"""Schedulers for CRSharing: the paper's algorithms plus oracles.

Online policies (run via :func:`repro.core.simulate` or
``policy.run(instance)``):

* :class:`RoundRobin` -- Section 4.2, worst-case ratio exactly 2;
* :class:`GreedyBalance` -- Section 8.3, worst-case ratio exactly
  ``2 - 1/m``;
* the :mod:`~repro.algorithms.heuristics` baselines.

Offline exact algorithms:

* :func:`opt_res_assignment` / :func:`opt_res_assignment_pq` --
  Algorithm 1, optimal for ``m = 2`` in ``O(n^2)``;
* :func:`opt_res_assignment_general` -- Algorithm 2, optimal for any
  fixed ``m`` in polynomial time (practical for small ``m``);
* :func:`brute_force_makespan` and :func:`milp_makespan` --
  independent optimality oracles for cross-validation;
* :func:`branch_and_bound_order` / :func:`enumerate_order_optimum` --
  exact optimization *over queue orders* (the NP-hard Theorem 4 axis),
  wrapped for certification by :mod:`repro.analysis.certify`.
"""

from .base import (
    Policy,
    WaterFillPolicy,
    available_policies,
    get_policy,
    register_policy,
    resolve_policy,
    water_fill,
    water_fill_multi,
)
from .brute_force import brute_force_makespan
from .fastpath import greedy_balance_makespan, round_robin_makespan
from .flowdeadline import EDFWaterfill, WeightedSRPT
from .greedy_balance import GreedyBalance
from .heuristics import (
    FewestRemainingJobsFirst,
    GreedyFinishJobs,
    LargestRequirementFirst,
    ProportionalShare,
)
from .milp import milp_feasible, milp_makespan
from .opt_general import OptGeneralResult, opt_res_assignment_general
from .opt_order import (
    OrderSearchResult,
    branch_and_bound_order,
    enumerate_order_optimum,
    exact_order_makespan,
    identity_order,
    order_invariant_lower_bound,
    order_space_size,
)
from .opt_two import OptTwoResult, opt_res_assignment, opt_res_assignment_pq
from .round_robin import RoundRobin, round_robin_makespan_formula, round_robin_phase

__all__ = [
    "EDFWaterfill",
    "FewestRemainingJobsFirst",
    "GreedyBalance",
    "GreedyFinishJobs",
    "LargestRequirementFirst",
    "OptGeneralResult",
    "OptTwoResult",
    "OrderSearchResult",
    "Policy",
    "ProportionalShare",
    "RoundRobin",
    "WaterFillPolicy",
    "available_policies",
    "branch_and_bound_order",
    "brute_force_makespan",
    "enumerate_order_optimum",
    "exact_order_makespan",
    "get_policy",
    "greedy_balance_makespan",
    "identity_order",
    "milp_feasible",
    "milp_makespan",
    "order_invariant_lower_bound",
    "order_space_size",
    "round_robin_makespan",
    "opt_res_assignment",
    "opt_res_assignment_general",
    "opt_res_assignment_pq",
    "register_policy",
    "resolve_policy",
    "round_robin_makespan_formula",
    "round_robin_phase",
    "water_fill",
    "water_fill_multi",
    "WeightedSRPT",
]
