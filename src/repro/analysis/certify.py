"""Optimality certification over queue orders.

The public face of :mod:`repro.algorithms.opt_order`: run the
branch-and-bound order search and package the outcome as a
:class:`Certificate` -- value, witness order, search statistics, and
crucially the ``proved`` flag that separates "this is OPT" from "this
is the best order we found before the node budget ran out".

Two certification modes:

``mode="exact"``
    Each complete order is evaluated by the per-order exact oracles
    (Theorem 5's m=2 DP / Theorem 6's configuration search), so the
    certified value is the true sequencing-aware optimum

    .. math:: \\mathrm{OPT}^* = \\min_{\\sigma} \\mathrm{OPT}(I^\\sigma)

    over exact rational arithmetic.  Requires the oracles' model
    (single resource, unit sizes, no arrivals).

``mode="epsilon"``
    A *policy* is certified instead of the offline optimum: complete
    orders are evaluated by running the policy through a simulation
    backend (default the fast float64 vector backend, completion
    tolerance 1e-9 -- hence "epsilon").  The certificate then reads
    "no queue order lets this policy finish sooner than ``value``",
    which is exactly the quantity ``LocalSearchSequencer`` chases
    heuristically.  Works for any instance the backends accept
    (multi-resource, arrivals, non-unit sizes).  For the makespan on
    the oracles' model, an order runs only while its fixed-order
    optimum is still below the incumbent.

Telemetry: under an installed session, certification emits a
``certify.opt`` span and ``certify.nodes`` / ``certify.pruned`` /
``certify.bound_calls`` counters, so ``crsharing certify --trace``
shows where the search time went.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Callable

from ..algorithms.opt_order import (
    branch_and_bound_order,
    order_invariant_lower_bound,
    order_space_size,
)
from ..core.instance import Instance
from ..exceptions import SolverError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..algorithms.base import Policy

__all__ = ["Certificate", "certify_opt"]

#: Default branch-and-bound node budget (beyond it: ``proved=False``).
DEFAULT_MAX_NODES = 100_000


@dataclass(frozen=True, slots=True)
class Certificate:
    """Outcome of one :func:`certify_opt` call.

    Attributes:
        value: best makespan found over all queue orders.  When
            ``proved`` this is the certified optimum; otherwise it is
            only an upper bound on it.
        order: per-queue index permutations witnessing ``value``;
            ``instance.with_order([list(row) for row in order])``
            reproduces it.
        nodes: branch-and-bound nodes expanded.
        bound_calls: fixed-order oracle calls made as lower bounds: on
            committed prefixes and, when a *policy* is certified for
            the makespan, also on whole orders before they run.
        proved: True iff the search closed every branch within the
            node budget -- only then may ``value`` be used as a lower
            bound on other runs.
        mode: ``"exact"`` (per-order exact oracles) or ``"epsilon"``
            (policy through a float64 backend).
        pruned: subtrees cut by the bound test and, with a *policy*
            (makespan), also the whole orders, seeds included, whose
            bound already met the incumbent, so the policy never ran.
        leaf_evaluations: complete orders actually evaluated: oracle
            calls without a *policy*, policy runs with one.
        lower_bound: order-invariant global lower bound used at the
            root (``lower_bound <= value`` always).
        order_space: ``prod_i n_i!`` -- the unreduced search space.
        evaluator: human-readable description of the leaf evaluator.
        seconds: wall-clock time of the search.
    """

    value: int
    order: tuple[tuple[int, ...], ...]
    nodes: int
    bound_calls: int
    proved: bool
    mode: str = "exact"
    pruned: int = 0
    leaf_evaluations: int = 0
    lower_bound: int = 0
    order_space: int = 1
    evaluator: str = "exact-oracle"
    seconds: float = field(default=0.0, compare=False)

    def witness(self, instance: Instance) -> Instance:
        """*instance* reordered to the certified order (the witness)."""
        return instance.with_order([list(row) for row in self.order])

    def gap(self, value: int | float) -> float:
        """Optimality gap of *value* against the certified optimum.

        ``(value - OPT) / OPT`` -- 0.0 means *value* matches the
        certificate.  Raises :class:`SolverError` when the certificate
        is unproved (its value is an upper bound, so a "gap" against
        it would be meaningless and possibly negative).
        """
        if not self.proved:
            raise SolverError(
                "cannot compute an optimality gap from an unproved "
                "certificate (value is only an upper bound); raise "
                "max_nodes and re-certify"
            )
        return (value - self.value) / self.value

    def summary(self) -> dict:
        """A JSON-friendly dict of the certificate (CLI / bench stores)."""
        return {
            "value": self.value,
            "order": [list(row) for row in self.order],
            "proved": self.proved,
            "mode": self.mode,
            "nodes": self.nodes,
            "bound_calls": self.bound_calls,
            "pruned": self.pruned,
            "leaf_evaluations": self.leaf_evaluations,
            "lower_bound": self.lower_bound,
            "order_space": self.order_space,
            "evaluator": self.evaluator,
            "seconds": self.seconds,
        }


def _policy_evaluator(
    policy, backend: str, objective: str | None
) -> tuple[Callable[[Instance], int | float], str]:
    """Build an ``Instance -> value`` evaluator running *policy*."""
    from ..core.simulator import run_policy

    # The evaluator reads only the makespan or the objective value.
    kwargs: dict = {"record_shares": False}
    if objective is not None:
        kwargs["objectives"] = (objective,)

    def evaluate(inst: Instance) -> int | float:
        result = run_policy(inst, policy, backend=backend, **kwargs)
        if objective is not None:
            return result.objective_values[objective]
        return result.makespan

    name = policy if isinstance(policy, str) else type(policy).__name__
    target = objective or "makespan"
    return evaluate, f"policy:{name}/{backend}/{target}"


def certify_opt(
    instance: Instance,
    *,
    oracle: str = "auto",
    policy=None,
    backend: str = "vector",
    objective: str | None = None,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> Certificate:
    """Certify the optimal queue order of *instance*.

    With no *policy* (the default), runs the exact mode: branch and
    bound over per-queue orders with each leaf evaluated by the
    per-order exact *oracle* -- the certified value is the true
    order-aware optimum OPT*.  With a *policy* (name or object), runs
    the epsilon mode: leaves are evaluated by simulating the policy
    through *backend* (and optionally a registered *objective*), so
    the certificate bounds what any queue order can achieve **for that
    policy**.  For the makespan, a policy leaf is first bounded by its
    fixed-order optimum and runs only when that bound is below the
    incumbent; the certificate is the same, with fewer runs.  So with
    a policy, ``leaf_evaluations`` counts policy runs, and
    ``bound_calls`` / ``pruned`` also count the whole orders bounded
    and skipped; without one, the oracle's calls on whole orders,
    prefixes and cut subtrees (see :class:`Certificate`).

    Args:
        instance: the instance to certify.
        oracle: per-order exact oracle name for the exact mode
            ("auto", "opt-two", "opt-general", "brute-force", "milp").
        policy: optional policy (registry name or object) switching to
            the epsilon mode.
        backend: simulation backend for the epsilon mode.
        objective: optional registered objective name for the epsilon
            mode (default: makespan).
        max_nodes: branch-and-bound node budget; when exhausted the
            certificate comes back with ``proved=False``.

    Returns:
        A :class:`Certificate`.  Check ``certificate.proved`` before
        using ``certificate.value`` as a lower bound on anything.

    Example:
        >>> from repro.core import Instance
        >>> cert = certify_opt(Instance([["1/2", 1, "1/2"], [1, "1/2", 1]]))
        >>> cert.value, cert.proved, cert.mode
        (5, True, 'exact')
    """
    from ..telemetry import get_session

    t0 = perf_counter()
    if policy is None:
        mode = "exact"
        evaluator = None
        evaluator_name = f"exact-oracle:{oracle}"
        prefix_bounds = True
    else:
        mode = "epsilon" if backend != "exact" else "exact"
        evaluator, evaluator_name = _policy_evaluator(policy, backend, objective)
        # Prefix oracle bounds stay admissible for policies: any
        # policy's makespan on a completion is >= OPT of that order,
        # which is >= OPT of the committed prefix.  They are NOT valid
        # for non-makespan objectives, where the oracle bounds the
        # wrong quantity.
        prefix_bounds = objective is None
    result = branch_and_bound_order(
        instance,
        evaluator=evaluator,
        oracle=oracle,
        max_nodes=max_nodes,
        prefix_bounds=prefix_bounds,
        lower_bound_fn=(
            order_invariant_lower_bound if objective is None else (lambda inst: 0)
        ),
    )
    seconds = perf_counter() - t0
    session = get_session()
    if session is not None:
        session.metrics.counter("certify.nodes").inc(result.nodes)
        session.metrics.counter("certify.pruned").inc(result.pruned)
        session.metrics.counter("certify.bound_calls").inc(result.bound_calls)
        session.tracer.complete(
            "certify.opt",
            t0,
            seconds,
            mode=mode,
            value=result.value,
            proved=result.proved,
            nodes=result.nodes,
            pruned=result.pruned,
            bound_calls=result.bound_calls,
            order_space=order_space_size(instance),
        )
    return Certificate(
        value=result.value,
        order=result.order,
        nodes=result.nodes,
        bound_calls=result.bound_calls,
        proved=result.proved,
        mode=mode,
        pruned=result.pruned,
        leaf_evaluations=result.leaf_evaluations,
        lower_bound=result.lower_bound,
        order_space=result.order_space,
        evaluator=evaluator_name,
        seconds=seconds,
    )
