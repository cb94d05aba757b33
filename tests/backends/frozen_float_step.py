"""Frozen copies of the float64 engines' grant and bottleneck rules.

These are the share-fill and bottleneck-apply kernels the vector and
batched engines ran while every job field lived in its own array
(``_prefix_fill``, ``_fill_arrays_multi``, and the ``_multi_work``
methods of ``VectorRuntime`` and ``BatchVectorRuntime``), kept as
*test oracles only*.  ``test_frozen_float_step.py`` asserts that the
library's current kernels return bitwise-equal shares, work and
``resource_spent``: a rewrite of the step arithmetic must repeat the
same IEEE operations in the same order.  Nothing in ``src/`` imports
this module.

The ``_multi_work`` copies take the state as an argument instead of
reading ``self.state``; their bodies are otherwise unchanged.
"""

from __future__ import annotations

import numpy as np

#: The fill's over-commit slack, as the frozen kernels used it.
FILL_EPS = 1e-15


def prefix_fill(state, at: np.ndarray | None, eligible, capacity: float) -> np.ndarray:
    """The single-resource prefix-sum grant rule over ``(m,)`` or ``(B, m)``."""
    useful = np.minimum(state.remaining, state.active_requirements)
    if eligible is not None:
        useful = np.where(eligible, useful, 0.0)
    u = useful if at is None else useful.take(at)
    taken_before = np.cumsum(u, axis=-1) - u
    grants = np.clip(capacity - taken_before, 0.0, u)
    if at is None:
        return grants
    shares = np.zeros(useful.shape)
    shares.put(at, grants)
    return shares


def fill_arrays_multi(
    remaining: np.ndarray,
    rstar: np.ndarray,
    req_matrix: np.ndarray,
    order: np.ndarray,
    capacity: float,
) -> np.ndarray:
    """The single-lane ``k > 1`` depletion-rounds fill."""
    k, m = req_matrix.shape
    shares = np.zeros((k, m), dtype=np.float64)
    fraction_cap = np.zeros(m, dtype=np.float64)
    positive = rstar > 0.0
    fraction_cap[positive] = np.minimum(
        1.0, remaining[positive] / rstar[positive]
    )
    left = np.full(k, capacity, dtype=np.float64)
    pending = order[fraction_cap[order] > 0.0]
    while pending.size:
        fc = fraction_cap[pending]
        consume = fc[None, :] * req_matrix[:, pending]  # (k, p) full grants
        over = (
            np.cumsum(consume, axis=1) > left[:, None] + FILL_EPS
        ).any(axis=0)
        if not over.any():
            shares[:, pending] = consume
            break
        first = int(np.argmax(over))
        fully = pending[:first]
        if fully.size:
            grants = consume[:, :first]
            shares[:, fully] = grants
            left -= grants.sum(axis=1)
        i = int(pending[first])
        needs = req_matrix[:, i]
        needed = needs > 0.0
        fraction = min(
            float(fraction_cap[i]), float((left[needed] / needs[needed]).min())
        )
        if fraction > 0.0:
            grant = fraction * needs
            shares[:, i] = grant
            left -= grant
        np.maximum(left, 0.0, out=left)
        pending = pending[first + 1 :]
        if pending.size:
            blocked = (
                (req_matrix[:, pending] > 0.0) & (left[:, None] <= FILL_EPS)
            ).any(axis=0)
            pending = pending[~blocked]
    return shares


def vector_multi_work(state, shares: np.ndarray) -> np.ndarray:
    """``VectorRuntime._multi_work``: the ``(k, m)`` bottleneck rule."""
    req = state.active_req_matrix  # (k, m)
    rstar = state.active_requirements
    needed = req > 0.0
    ratio = np.divide(
        np.minimum(shares, req),
        req,
        out=np.full_like(req, np.inf),
        where=needed,
    )
    fraction = ratio.min(axis=0)
    positive = rstar > 0.0
    work = np.zeros(state.num_processors, dtype=np.float64)
    work[positive] = np.minimum(
        fraction[positive] * rstar[positive], state.remaining[positive]
    )
    np.maximum(work, 0.0, out=work)
    progress = np.zeros_like(work)
    progress[positive] = work[positive] / rstar[positive]
    state.resource_spent += (req * progress[None, :]).sum(axis=1)
    return work


def batch_multi_work(state, shares: np.ndarray) -> np.ndarray:
    """``BatchVectorRuntime._multi_work``: the ``(B, k, m)`` rule."""
    req = state.active_req_matrix  # (B, k, m)
    rstar = state.active_requirements  # (B, m)
    needed = req > 0.0
    ratio = np.divide(
        np.minimum(shares, req),
        req,
        out=np.full_like(req, np.inf),
        where=needed,
    )
    fraction = ratio.min(axis=1)
    positive = rstar > 0.0
    work = np.zeros_like(rstar)
    work[positive] = np.minimum(
        fraction[positive] * rstar[positive], state.remaining[positive]
    )
    np.maximum(work, 0.0, out=work)
    scalar = state.lane_num_resources == 1
    if scalar.any():
        row = np.minimum(shares[:, 0, :], rstar)
        scalar_work = np.minimum(row, state.remaining)
        np.maximum(scalar_work, 0.0, out=scalar_work)
        work[scalar] = scalar_work[scalar]
    progress = np.zeros_like(work)
    progress[positive] = work[positive] / rstar[positive]
    state.resource_spent += (req * progress[:, None, :]).sum(axis=2)
    return work


def vector_scalar_work(state, shares: np.ndarray) -> np.ndarray:
    """``VectorRuntime.apply``'s ``k == 1`` rule, with its ledger update."""
    speed = np.minimum(shares, state.active_requirements)
    work = np.minimum(speed, state.remaining)
    np.maximum(work, 0.0, out=work)
    state.resource_spent[0] += float(work.sum())
    return work


def batch_scalar_work(state, shares: np.ndarray) -> np.ndarray:
    """``BatchVectorRuntime._apply``'s ``k == 1`` rule, with its ledger update."""
    work = np.minimum(shares, state.active_requirements)
    np.minimum(work, state.remaining, out=work)
    np.maximum(work, 0.0, out=work)
    state.resource_spent[:, 0] += work.sum(axis=1)
    return work
