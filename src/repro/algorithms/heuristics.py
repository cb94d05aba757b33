"""Baseline heuristic policies.

These are not analyzed in the paper (except :class:`GreedyFinishJobs`,
which is the policy behind Figure 1's example schedule); they serve as
comparison points in the benchmark harness and as stress inputs for
the property-based tests (e.g. :class:`ProportionalShare` produces
valid but deliberately non-progressive schedules).

The three water-filling baselines are
:class:`~repro.algorithms.base.WaterFillPolicy` subclasses that only
declare a priority ``key``.  :class:`ProportionalShare` is the one
policy here that does not water-fill: it writes its float rule once,
rank-polymorphic, for one lane and a batch alike.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from ..core.numerics import ONE, ZERO, frac_sum
from ..core.state import ExecState
from .base import Policy, WaterFillPolicy, register_policy, scalar_lanes

__all__ = [
    "GreedyFinishJobs",
    "LargestRequirementFirst",
    "FewestRemainingJobsFirst",
    "ProportionalShare",
]


@register_policy
class GreedyFinishJobs(WaterFillPolicy):
    """Finish as many jobs as possible each step (Figure 1's policy).

    Water-fills in order of *increasing* remaining requirement: cheap
    jobs first maximizes the number of completions per step.  Greedy
    per-step job count is not globally optimal -- Figure 1 shows it
    fragmenting the schedule into three components.

    Example:
        >>> from repro.generators import fig1_instance
        >>> GreedyFinishJobs().run(fig1_instance()).makespan
        6
    """

    name = "greedy-finish-jobs"
    key = ("remaining",)


@register_policy
class LargestRequirementFirst(WaterFillPolicy):
    """Water-fill in order of decreasing remaining requirement.

    The "anti-greedy": clears the heaviest active job first regardless
    of queue lengths.  Non-wasting and progressive but not balanced.

    Example:
        >>> from repro.generators import fig1_instance
        >>> LargestRequirementFirst().run(fig1_instance()).makespan
        7
    """

    name = "largest-requirement-first"
    key = ("-remaining",)


@register_policy
class FewestRemainingJobsFirst(WaterFillPolicy):
    """Water-fill processors with *fewer* remaining jobs first.

    The deliberate inversion of GreedyBalance's priority; useful as an
    ablation showing that the balance direction (not greediness per se)
    is what earns the 2 - 1/m guarantee.

    Example:
        >>> from repro.generators import fig1_instance
        >>> FewestRemainingJobsFirst().run(fig1_instance()).makespan
        7
    """

    name = "fewest-remaining-jobs-first"
    key = ("jobs_remaining", "-remaining")


@register_policy
class ProportionalShare(Policy):
    """Split the resource proportionally to remaining requirements.

    Every active job progresses every step (fair sharing, as a bus
    arbiter without scheduler support would do).  The resulting
    schedules are feasible and non-wasting but *not* progressive:
    several jobs can be left partially processed in one step.  Included
    as the "no scheduling" baseline the paper's introduction argues
    against.

    Note: proportional division compounds denominators step over step,
    so exact arithmetic grows quickly -- intended for small
    demonstration instances, not bulk benchmarks.

    Example:
        >>> from repro.generators import fig1_instance
        >>> ProportionalShare().run(fig1_instance()).makespan
        8
    """

    name = "proportional-share"

    def shares_array(self, state) -> np.ndarray:
        if state.num_resources == 1:
            return self._proportional_rows(state)
        return scalar_lanes(state, self._theta_rows(state), self._proportional_rows)

    # The float rules below serve a (m,) lane and a (B, m) batch alike:
    # every reduction runs along the last axis.
    @staticmethod
    def _proportional_rows(state) -> np.ndarray:
        # Demand <= 1 grants remaining work outright, otherwise the row
        # is normalized by its total (an all-zero row passes through).
        total = state.remaining.sum(axis=-1, keepdims=True)
        scaled = np.divide(
            state.remaining,
            total,
            out=np.zeros_like(state.remaining),
            where=total > 1.0,
        )
        return np.where(total > 1.0, scaled, state.remaining)

    @staticmethod
    def _theta_rows(state) -> np.ndarray:
        # The k > 1 rule of `_shares_multi`: desired speed fractions
        # scaled by one common theta per lane.
        rstar = state.active_requirements
        fraction = np.zeros_like(rstar)
        np.divide(state.remaining, rstar, out=fraction, where=rstar > 0.0)
        np.minimum(fraction, 1.0, out=fraction)
        consume = state.active_req_matrix * fraction[..., None, :]
        demand = consume.sum(axis=-1)  # full-speed demand per resource
        inv = np.divide(
            1.0, demand, out=np.full_like(demand, np.inf), where=demand > 1.0
        )
        theta = np.minimum(inv.min(axis=-1, keepdims=True), 1.0)
        return consume * theta[..., None]

    def shares(self, state: ExecState) -> Sequence[Fraction]:
        if state.instance.num_resources != 1:
            return self._shares_multi(state)
        active = state.active_processors()
        shares = [ZERO] * state.num_processors
        total = frac_sum(state.remaining_work(i) for i in active)
        if total == ZERO:
            return shares
        if total <= ONE:
            for i in active:
                shares[i] = state.remaining_work(i)
            return shares
        for i in active:
            shares[i] = state.remaining_work(i) / total
        return shares

    # The multi-resource variant scales every job's *desired speed
    # fraction* (min(1, remaining / r*)) by one common factor theta =
    # min(1, min_l 1 / demand_l), so all resource rows stay within
    # capacity and every active job still progresses every step.  For
    # unit-size single-resource jobs it reduces to the scalar rule.
    def _shares_multi(self, state: ExecState) -> list[list[Fraction]]:
        inst = state.instance
        k = inst.num_resources
        m = state.num_processors
        rows: list[list[Fraction]] = [[ZERO] * m for _ in range(k)]
        wanted: dict[int, tuple[Fraction, tuple[Fraction, ...]]] = {}
        demand = [ZERO] * k
        for i in state.active_processors():
            job = inst.job(i, state.active_job(i))
            rstar = job.requirement
            if rstar == ZERO:
                continue
            fraction = min(ONE, state.remaining_work(i) / rstar)
            wanted[i] = (fraction, job.requirements)
            for lane, req in enumerate(job.requirements):
                demand[lane] += fraction * req
        if not wanted:
            return rows
        theta = ONE
        for lane_demand in demand:
            if lane_demand > ONE:
                scale = ONE / lane_demand
                if scale < theta:
                    theta = scale
        for i, (fraction, reqs) in wanted.items():
            for lane, req in enumerate(reqs):
                rows[lane][i] = theta * fraction * req
        return rows
