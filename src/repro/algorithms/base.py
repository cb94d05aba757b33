"""Policy interface and shared helpers for CRSharing schedulers.

Two kinds of algorithms live in this subpackage:

* **online policies** -- state-feedback rules invoked once per time
  step by :func:`repro.core.simulator.simulate` (RoundRobin,
  GreedyBalance, the baseline heuristics).  They subclass
  :class:`Policy` and implement :meth:`Policy.shares`; water-filling
  policies subclass :class:`WaterFillPolicy` and only declare a
  priority ``key``, from which the exact, vector and batched shares
  are all derived.
* **offline exact algorithms** -- functions that take an
  :class:`~repro.core.instance.Instance` and return an optimal
  :class:`~repro.core.schedule.Schedule` directly
  (:mod:`~repro.algorithms.opt_two`, :mod:`~repro.algorithms.opt_general`,
  the oracles).

The dominant building block for policies is *water-filling*
(:func:`water_fill`): visit processors in priority order and grant each
its maximum useful share until the resource is exhausted.  Greedy
water-filling is exactly what the paper's GreedyBalance does and what
RoundRobin does within a phase; it guarantees the resulting schedules
are non-wasting and progressive by construction (at most one processor
receives a partial grant).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..core.instance import Instance
from ..core.numerics import ONE, ZERO
from ..core.schedule import Schedule
from ..core.simulator import simulate
from ..core.state import ExecState
from ..exceptions import (
    UnknownKeyColumnError,
    UnknownPolicyError,
    VectorizationUnsupportedError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..backends.base import BackendResult
    from ..backends.batched import BatchVectorState
    from ..backends.vector import VectorState

__all__ = [
    "Policy",
    "WaterFillPolicy",
    "water_fill",
    "water_fill_multi",
    "water_fill_array",
    "water_fill_array_multi",
    "scalar_lanes",
    "sort_key",
    "register_policy",
    "get_policy",
    "resolve_policy",
    "available_policies",
]


class Policy:
    """Base class for online resource-assignment policies.

    Subclasses implement :meth:`shares`; the base class makes instances
    directly usable as simulator callables and provides :meth:`run`.

    Policies must be stateless with respect to the run (the full
    execution state arrives each step), so one policy object can be
    reused across instances and runs.

    Example:
        >>> from repro.core import Instance
        >>> from repro.algorithms import get_policy
        >>> policy = get_policy("greedy-balance")
        >>> policy.run(Instance.from_percent([[60, 40], [80, 20]])).makespan
        3
    """

    #: Short identifier used by the registry/CLI.
    name: str = "policy"

    def shares(self, state: ExecState) -> Sequence[Fraction]:
        """Return the per-processor share vector for the current step."""
        raise NotImplementedError

    def shares_array(self, state: "VectorState | BatchVectorState") -> np.ndarray:
        """Vectorized variant of :meth:`shares` for the float engines.

        Receives a :class:`repro.backends.vector.VectorState` (one
        lane: ``(m,)`` / ``(k, m)`` float64 arrays) or a
        :class:`repro.backends.batched.BatchVectorState` (``B`` padded
        lanes: ``(B, m)`` / ``(B, k, m)``) and returns shares of the
        matching shape: ``(m,)`` or ``(B, m)`` when the state has one
        resource, ``(k, m)`` or ``(B, k, m)`` otherwise.  Must
        implement the *same* rule as :meth:`shares` for every lane so
        the engines agree; the cross-validation suite enforces
        agreement within tolerance.  Lanes that have finished (all
        remaining work zero) must receive all-zero rows.  The returned
        array must be freshly allocated (never a view of the state's
        arrays): the kernel records it as the step's share row.

        The default raises -- policies without a vectorized path can
        only run on the exact backend.
        """
        raise VectorizationUnsupportedError(
            f"policy {self.name!r} has no vectorized shares_array path; "
            "run it on the exact backend"
        )

    @property
    def supports_vector(self) -> bool:
        """True iff this policy overrides :meth:`shares_array`."""
        return type(self).shares_array is not Policy.shares_array

    def __call__(self, state: ExecState) -> Sequence[Fraction]:
        return self.shares(state)

    def run(self, instance: Instance, **kwargs) -> Schedule:
        """Simulate this policy on *instance* and return the schedule
        (always exact arithmetic; see :meth:`run_backend` for the
        pluggable-backend entry point)."""
        return simulate(instance, self, **kwargs)

    def run_backend(
        self, instance: Instance, backend: str = "vector", **kwargs
    ) -> "BackendResult":
        """Run this policy through a named simulation backend.

        ``backend="exact"`` reproduces :meth:`run` semantics (the
        result carries the validated :class:`Schedule`);
        ``backend="vector"`` runs the NumPy float64 engine.
        """
        from ..backends import get_backend  # local: avoid import cycle

        return get_backend(backend).run(instance, self, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def _active_job(state: ExecState, i: int):
    return state.instance.job(i, state.active_job(i))


def _exact_deadline(state: ExecState, i: int):
    due = _active_job(state, i).deadline
    return math.inf if due is None else due


def _density(state) -> np.ndarray:
    # Finished/unreleased processors have weight 0; park their density
    # at 0 (they sort first but receive no useful share).
    w = state.active_weights
    return sort_key(np.divide(state.remaining, w, out=np.zeros_like(w), where=w > 0.0))


#: The priority-key columns: ``name -> (exact value of processor i,
#: float column of a (m,) or (B, m) state)``.
_KEY_COLUMNS = {
    "jobs_remaining": (ExecState.jobs_remaining, lambda s: s.jobs_remaining),
    "remaining": (ExecState.remaining_work, lambda s: sort_key(s.remaining)),
    "deadline": (_exact_deadline, lambda s: s.active_deadlines),
    "density": (lambda s, i: s.remaining_work(i) / _active_job(s, i).weight, _density),
}


class WaterFillPolicy(Policy):
    """A policy that water-fills in the order of a declared priority key.

    Subclasses declare ``key``: column names from ``jobs_remaining``,
    ``remaining``, ``deadline`` (``inf`` when absent) and ``density``
    (remaining work / weight), most significant first, each ascending
    unless prefixed with ``-``.  The processor index breaks the last
    ties; the empty key is processor-index order.  From that
    one declaration this class derives the exact :meth:`shares` (a
    ``sorted`` over the active processors) and the float
    :meth:`shares_array` (one ``lexsort`` along the last axis, serving
    ``(m,)`` and ``(B, m)`` states alike).  A subclass may also
    restrict the float fill with :meth:`eligible` (RoundRobin's
    phases).  The exact backend runs these policies on the integer
    grid, so an own :meth:`shares` must grant through
    :func:`water_fill`.

    Example:
        >>> from repro.core import Instance
        >>> class HeaviestFirst(WaterFillPolicy):
        ...     name = "heaviest-first"
        ...     key = ("-remaining",)
        >>> inst = Instance.from_percent([[60, 40], [80, 20]])
        >>> HeaviestFirst().run(inst).makespan
        3
        >>> HeaviestFirst().run_backend(inst, "vector").makespan
        3
    """

    #: Priority columns, most significant first (``-name``: descending).
    key: tuple[str, ...] = ()
    #: ``(exact value, float column, descending)`` for each key column.
    _columns: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        columns = []
        for name in cls.key:
            column = _KEY_COLUMNS.get(name.removeprefix("-"))
            if column is None:
                raise UnknownKeyColumnError(
                    f"{cls.__name__}.key names unknown column {name!r}; "
                    f"available: {sorted(_KEY_COLUMNS)}"
                )
            columns.append((*column, name.startswith("-")))
        cls._columns = tuple(columns)

    def eligible(self, state) -> np.ndarray | None:
        """Mask of the processors the float fills may serve (all: None)."""
        return None

    def shares(self, state: ExecState) -> Sequence[Fraction]:
        columns = self._columns
        order = sorted(
            state.active_processors(),
            key=lambda i: (*[-f(state, i) if neg else f(state, i) for f, _, neg in columns], i),
        )
        return water_fill(state, order)

    def _order(self, state) -> np.ndarray | None:
        # lexsort is stable, so equal keys keep index order, as in the
        # exact path, and its last key is the primary one.  Finished
        # processors have zero useful share, so wherever they sort, the
        # fill skips them.
        if not self._columns:
            return None
        return np.lexsort([-f(state) if neg else f(state) for _, f, neg in reversed(self._columns)])

    def shares_array(self, state: "VectorState | BatchVectorState") -> np.ndarray:
        return water_fill_array(state, self._order(state), eligible=self.eligible(state))


def water_fill(
    state: ExecState,
    order: Iterable[int],
    *,
    capacity: Fraction | None = None,
) -> list[Fraction]:
    """Grant processors their maximum useful share in the given order.

    Each processor in *order* receives
    ``min(remaining_work, requirement, capacity_left)`` -- the most it
    can convert into work this step.  Processors not listed (or listed
    after capacity runs out) receive zero.  *capacity* defaults to the
    state's: 1, or ``D`` int units on a :class:`~repro.core.state.GridState`.

    For unit-size jobs, remaining work never exceeds the requirement,
    so every fully-served processor finishes its job; at most one
    processor receives a partial grant.  This is the mechanism behind
    the *progressive* property of all our greedy policies.

    Multi-resource instances dispatch to :func:`water_fill_multi` (the
    bottleneck-resource generalization of the same rule), so every
    water-filling policy supports ``k > 1`` through its usual order.
    """
    left = state.capacity if capacity is None else capacity
    if state.instance.num_resources != 1:
        return water_fill_multi(state, order, capacity=left)
    zero = state.zero
    shares = [zero] * state.num_processors
    if left < zero:
        raise ValueError("capacity must be non-negative")
    for i in order:
        if left <= zero:
            break
        remaining = state.remaining_work(i)  # zero unless active
        if remaining <= zero:
            continue
        useful = min(remaining, state.requirement(i), left)
        if useful > zero:
            shares[i] = useful
            left -= useful
    return shares


def water_fill_multi(
    state: ExecState,
    order: Iterable[int],
    *,
    capacity: Fraction = ONE,
) -> list[list[Fraction]]:
    """Bottleneck water-filling over ``k`` shared resources.

    The multi-resource generalization of :func:`water_fill`: visit
    processors in priority order and grant each the largest *speed
    fraction* ``f`` its active job can still use --
    ``f = min(1, remaining / r*, min_l capacity_left_l / r_l)`` over
    the resources it needs -- then charge ``f * r_l`` against every
    resource ``l``.  For ``k == 1`` this reduces exactly to the
    scalar rule (``min(remaining, r, capacity_left)``).

    Returns ``k`` share rows (one per resource), each of length ``m``.
    """
    if capacity < ZERO:
        raise ValueError("capacity must be non-negative")
    inst = state.instance
    k = inst.num_resources
    m = state.num_processors
    rows: list[list[Fraction]] = [[ZERO] * m for _ in range(k)]
    left: list[Fraction] = [capacity] * k
    for i in order:
        if not state.is_active(i):
            continue
        job = inst.job(i, state.active_job(i))
        rstar = job.requirement
        if rstar == ZERO:
            continue  # zero-requirement job: completes without resource
        fraction = min(ONE, state.remaining_work(i) / rstar)
        for lane, req in enumerate(job.requirements):
            if req > ZERO:
                afford = left[lane] / req
                if afford < fraction:
                    fraction = afford
        if fraction <= ZERO:
            continue
        for lane, req in enumerate(job.requirements):
            if req > ZERO:
                grant = fraction * req
                rows[lane][i] = grant
                left[lane] -= grant
    return rows


def sort_key(values: np.ndarray, *, decimals: int = 9) -> np.ndarray:
    """Quantize a float key for priority sorting.

    Partial water-fill grants leave ~1e-16 residue on remaining-work
    values, which would break exact ties (values equal as rationals)
    inconsistently with the exact path's value-then-index order.
    Rounding to the backend tolerance restores those ties; instances on
    a requirement grid coarser than ``10**-decimals`` sort identically
    to exact arithmetic.  Bitwise ``np.round``: its scale, ``rint`` and
    divide on floats, without its dispatch.
    """
    scale = 10.0**decimals
    key = np.multiply(values, scale)
    np.rint(key, out=key)
    key /= scale
    return key


def water_fill_array(
    state: "VectorState | BatchVectorState",
    order: np.ndarray | None,
    *,
    eligible: np.ndarray | None = None,
    capacity: float = 1.0,
) -> np.ndarray:
    """Vectorized :func:`water_fill` over one float64 lane or a batch.

    *order* holds processor indices in priority order -- ``(m,)`` for
    a :class:`~repro.backends.vector.VectorState`, one permutation per
    lane, ``(B, m)``, for a
    :class:`~repro.backends.batched.BatchVectorState` -- and may
    include inactive or padded processors: their useful share is zero,
    so they neither receive nor consume capacity.  ``None`` is
    processor-index order.  *eligible* optionally masks processors out
    of the fill (a boolean shaped like the state's processor arrays,
    indexed by processor, **not** by order position -- RoundRobin's
    phase restriction).  The grant rule is identical to the exact
    path: each processor gets ``min(remaining_work, requirement,
    capacity_left)``, realized as a prefix-sum followed by a clip, so
    the whole fill is NumPy work with no Python loop.

    Multi-resource states run the depletion rounds of
    :func:`water_fill_array_multi` (one lane) or
    :func:`_fill_arrays_batch_multi` (a batch) and return a ``(k, m)``
    / ``(B, k, m)`` share tensor; single-resource lanes of a mixed
    batch keep the scalar rule (:func:`scalar_lanes`).
    """
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    if state.remaining.ndim == 1:
        if state.num_resources == 1:
            return _prefix_fill(state, order, eligible, capacity)
        order = np.arange(state.num_processors) if order is None else np.asarray(order)
        if eligible is not None:
            order = order[eligible[order]]
        return water_fill_array_multi(state, order, capacity=capacity)
    at = None if order is None else order + state.lane_offsets
    if state.num_resources == 1:
        return _prefix_fill(state, at, eligible, capacity)
    if order is None:
        order = np.broadcast_to(np.arange(state.num_processors), state.remaining.shape)
    shares = _fill_arrays_batch_multi(
        state.remaining,
        state.active_requirements,
        state.active_req_matrix,
        np.asarray(order, dtype=np.int64),
        eligible,
        capacity,
    )
    return scalar_lanes(state, shares, lambda s: _prefix_fill(s, at, eligible, capacity))


def scalar_lanes(state, shares: np.ndarray, scalar_rule: Callable) -> np.ndarray:
    """Give the single-resource lanes of a mixed-``k`` batch the scalar rule.

    *shares* comes from a policy's ``k > 1`` rule; for a ``(B, k, m)``
    batch whose lanes have mixed resource counts, every lane with one
    resource gets ``scalar_rule(state)``'s row (the policy's ``k == 1``
    rule, ``(B, m)``) as resource row 0 and zeros elsewhere, exactly as
    its standalone single-lane run grants.  A single lane's ``(k, m)``
    shares pass through.
    """
    if shares.ndim == 3:
        scalar = state.lane_num_resources == 1
        if scalar.any():
            shares[scalar] = 0.0
            shares[scalar, 0, :] = scalar_rule(state)[scalar]
    return shares


def _prefix_fill(state, at: np.ndarray | None, eligible, capacity: float) -> np.ndarray:
    """The single-resource prefix-sum grant rule over ``(m,)`` or ``(B, m)``.

    *at* holds flat indices into the processor arrays in priority order
    -- the order itself for one lane, ``order + lane * m`` for a batch
    -- or is ``None`` for index order (no gather, no scatter).
    Processors outside *eligible* get zero useful share.  Each row's
    cumsum sees exactly the ordered values of a per-lane fill, since
    interleaved exact zeros never perturb a float cumsum.  A full-size
    *at* is a permutation (priority orders are): it fills an ``empty`` block.
    """
    useful = np.minimum(state.remaining, state.active_requirements)
    if eligible is not None:
        useful = np.where(eligible, useful, 0.0)
    u = useful if at is None else useful.take(at)
    # grants = clip(capacity - (cumsum(u) - u), 0, u), in place.
    grants = u.cumsum(axis=-1)
    grants -= u
    np.subtract(capacity, grants, out=grants)
    np.maximum(grants, 0.0, out=grants)
    np.minimum(grants, u, out=grants)
    if at is None:
        return grants
    shares = (np.empty if at.size == useful.size else np.zeros)(useful.shape)
    shares.put(at, grants)
    return shares


#: Slack absorbing float rounding when deciding whether a prefix of
#: grants over-commits a resource; far below the backend tolerance, so
#: boundary cases (a row summing to exactly 1) grant fully, as the
#: exact path does.
_FILL_EPS = 1e-15


def water_fill_array_multi(
    state: "VectorState",
    order: np.ndarray,
    *,
    capacity: float = 1.0,
) -> np.ndarray:
    """Vectorized :func:`water_fill_multi` over a ``(k, m)`` state.

    Implements the same sequential grant rule as the exact path --
    each processor in *order* gets speed fraction
    ``min(1, remaining / r*, min_l left_l / r_l)`` -- in depletion
    *rounds*: optimistically cumsum full grants along the order, find
    the first processor whose grant would over-commit some resource,
    grant everything before it in one shot plus a partial grant there,
    then continue with the survivors.  Each round retires at least one
    processor, and in the common case one round grants everyone, so
    the fill stays NumPy-vectorized.
    """
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    return _fill_arrays_multi(
        state.remaining,
        state.active_requirements,
        state.active_req_matrix,
        np.asarray(order, dtype=np.int64),
        float(capacity),
    )


def _fill_arrays_multi(
    remaining: np.ndarray,
    rstar: np.ndarray,
    req_matrix: np.ndarray,
    order: np.ndarray,
    capacity: float,
) -> np.ndarray:
    """Array-level core of :func:`water_fill_array_multi` (one lane).

    :func:`_fill_arrays_batch_multi` is its batch lift and grants
    bit-identically, lane by lane.
    """
    k, m = req_matrix.shape
    shares = np.zeros((k, m), dtype=np.float64)
    fraction_cap = np.divide(
        remaining, rstar, out=np.zeros(m, dtype=np.float64), where=rstar > 0.0
    )
    np.minimum(fraction_cap, 1.0, out=fraction_cap)
    pending = order[fraction_cap[order] > 0.0]
    left = np.full(k, capacity, dtype=np.float64)
    while pending.size:
        req = req_matrix[:, pending]  # gathered once per round
        consume = fraction_cap[pending] * req  # (k, p) full grants
        over = np.logical_or.reduce(consume.cumsum(axis=1) > left[:, None] + _FILL_EPS)
        first = int(over.argmax())
        if not over[first]:
            shares[:, pending] = consume
            break
        if first:
            grants = consume[:, :first]
            shares[:, pending[:first]] = grants
            left -= np.add.reduce(grants, axis=1)
        # Partial grant at the first over-committing processor: the
        # binding resource caps its speed fraction.
        i = pending[first]
        needs = req[:, first]
        fraction = min(
            [float(fraction_cap[i])]
            + [room / need for room, need in zip(left.tolist(), needs.tolist()) if need > 0.0]
        )
        if fraction > 0.0:
            grant = fraction * needs
            shares[:, i] = grant
            left -= grant
        np.maximum(left, 0.0, out=left)
        # Retire the served prefix and the processors whose needed
        # resources are exhausted; in the common case nothing is left.
        blocked = np.logical_or.reduce(
            (req[:, first + 1 :] > 0.0) & (left[:, None] <= _FILL_EPS)
        )
        pending = pending[first + 1 :][~blocked]
    return shares


def _fill_arrays_batch_multi(
    remaining: np.ndarray,
    rstar: np.ndarray,
    req_matrix: np.ndarray,
    order: np.ndarray,
    eligible: np.ndarray | None,
    capacity: float,
) -> np.ndarray:
    """Batched depletion-rounds core: ``B`` lanes per round, no lane loop.

    The batch lift of :func:`_fill_arrays_multi`, working in *order
    position* space: per round, every live lane optimistically cumsums
    its full grants along its priority order, the first over-committing
    position gets a partial grant (its binding resource caps the speed
    fraction), everything before it is granted in one shot, and
    positions whose needed resources are exhausted retire.  Inactive
    positions contribute exact ``0.0`` terms, so the cumsums match the
    per-lane compacted fill bit for bit; the only per-lane work left is
    the capacity update of over-committing lanes, which sums each such
    lane's compacted prefix exactly as the single-lane kernel does.
    Lanes that never over-commit (the common case) finish in one fully
    vectorized round.
    """
    B, k, m = req_matrix.shape
    fraction_cap = np.zeros((B, m), dtype=np.float64)
    positive = rstar > 0.0
    np.divide(remaining, rstar, out=fraction_cap, where=positive)
    np.minimum(fraction_cap, 1.0, out=fraction_cap)
    if eligible is not None:
        fraction_cap = np.where(eligible, fraction_cap, 0.0)
    # Everything below runs in order-position space; one scatter at the
    # end maps grants back to processor indices.  Flat indices into the
    # raveled (B, m) and (B, k, m) arrays: order + (lane * k + l) * m.
    fc_ord = fraction_cap.take(order + np.arange(0, B * m, m)[:, None])
    at = order[:, None, :] + np.arange(0, B * k * m, m).reshape(B, k, 1)
    req_ord = req_matrix.take(at)  # (B, k, m)
    granted_ord = np.zeros((B, k, m), dtype=np.float64)
    left = np.full((B, k), capacity, dtype=np.float64)
    active = fc_ord > 0.0  # (B, m) positions still pending
    pos = np.arange(m)
    while True:
        live = active.any(axis=1)
        if not live.any():
            break
        consume = np.where(
            active[:, None, :], fc_ord[:, None, :] * req_ord, 0.0
        )
        over_ord = (
            np.cumsum(consume, axis=2) > left[:, :, None] + _FILL_EPS
        ).any(axis=1)
        over_lane = over_ord.any(axis=1)
        fits = live & ~over_lane
        if fits.any():
            # No over-commit: the whole pending set is granted.
            granted_ord[fits] = np.where(
                active[fits, None, :], consume[fits], granted_ord[fits]
            )
            active[fits] = False
        sel = np.flatnonzero(live & over_lane)
        if not sel.size:
            break
        first = np.argmax(over_ord[sel], axis=1)  # over is monotone
        prefix = active[sel] & (pos[None, :] < first[:, None])
        granted_ord[sel] = np.where(
            prefix[:, None, :], consume[sel], granted_ord[sel]
        )
        for row, b in enumerate(sel):
            # Compacted prefix sum, exactly as the single-lane kernel
            # charges its capacity (bit-identical reduction order).
            taken = consume[b][:, prefix[row]]
            if taken.shape[1]:
                left[b] -= taken.sum(axis=1)
        # Partial grant at each lane's first over-committing position.
        needs = req_ord[sel, :, first]  # (|sel|, k)
        needed = needs > 0.0
        afford = np.divide(
            left[sel], needs, out=np.full_like(needs, np.inf), where=needed
        )
        fraction = np.minimum(fc_ord[sel, first], afford.min(axis=1))
        partial = fraction[:, None] * np.where(needed, needs, 0.0)
        granted_ord[sel, :, first] = np.where(
            fraction[:, None] > 0.0, partial, 0.0
        )
        left[sel] -= np.where(fraction[:, None] > 0.0, partial, 0.0)
        np.maximum(left, 0.0, out=left)
        # Retire the served prefix and positions whose needed resources
        # are exhausted.
        active[sel] &= pos[None, :] > first[:, None]
        blocked = (
            (req_ord[sel] > 0.0) & (left[sel, :, None] <= _FILL_EPS)
        ).any(axis=1)
        active[sel] &= ~blocked
    shares = np.zeros((B, k, m), dtype=np.float64)
    shares.put(at, granted_ord)
    return shares


# ----------------------------------------------------------------------
# Registry (CLI / experiment harness lookup)
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Callable[[], Policy]] = {}


def register_policy(factory: Callable[[], Policy]) -> Callable[[], Policy]:
    """Register a policy factory under its ``name`` (decorator-friendly)."""
    probe = factory()
    _REGISTRY[probe.name] = factory
    return factory


def get_policy(name: str) -> Policy:
    """Instantiate a registered policy by name.

    Raises:
        UnknownPolicyError: (a ``KeyError`` subclass) with the list of
            known names.
    """
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise UnknownPolicyError(
            f"unknown policy {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def resolve_policy(policy: "Policy | Callable | str") -> Policy:
    """Resolve a policy given by registry name, passing objects through.

    The shared name-resolution step behind every public entry point
    (``run_policy``, ``simulate``, ``cross_validate``,
    ``ManyCoreEngine.run``, the backends), so
    ``run_policy(inst, "round-robin")`` works anywhere a policy object
    does instead of crashing with ``TypeError: 'str' object is not
    callable`` deep inside the kernel.

    Raises:
        UnknownPolicyError: for names missing from the registry.
    """
    if isinstance(policy, str):
        return get_policy(policy)
    return policy


def available_policies() -> list[str]:
    """Names of all registered policies."""
    return sorted(_REGISTRY)
