"""The float engines' step arithmetic against its frozen copy.

:mod:`tests.backends.frozen_float_step` keeps the grant and bottleneck
kernels as they were when every job field lived in its own array.
Each example here builds a single-lane or batched float state over a
random instance -- ``k`` in {1, 2, 3}, up to 40 processors,
requirements on the 1/100 grid including 0 and 1, partial remaining
work, unreleased processors, random orders and ``eligible`` masks, or
a resource row that sums to exactly 1 -- and asserts that the
library's fill and apply produce *bitwise* the shares, work and
``resource_spent`` of the frozen kernels (``np.array_equal``, not a
tolerance): the same IEEE operations in the same order.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import (
    _fill_arrays_multi,
    _prefix_fill,
    water_fill_array,
)
from repro.backends.batched import BatchVectorRuntime
from repro.backends.vector import VectorRuntime
from repro.core.instance import Instance
from repro.core.job import Job

from . import frozen_float_step as frozen

SETTINGS = settings(max_examples=120, deadline=None)

#: Requirements on the 1/100 grid, with the endpoints drawn often.
GRID = st.one_of(st.sampled_from([0, 100]), st.integers(0, 100))


@st.composite
def lanes(draw, k: int, max_m: int = 40):
    """``(requirements, sizes, releases, remaining fractions, exact)`` of one lane.

    *requirements* holds, per processor, the active job's ``k``
    requirements in hundredths.  Half the lanes are *exact*: at least
    8 processors (where possible) whose first-resource requirements sum
    to exactly 1 while the others stay small, every processor released
    with its full work left, so a float cumsum along the fill order
    often lands an ulp past 1 (the case the fill's slack absorbs; the
    tests fill such lanes at capacity 1 with every processor
    eligible).  For ``k > 1`` one requirement is zeroed, so a processor
    can keep running on its other resources after a shared one runs
    out (a second depletion round).
    """
    exact = draw(st.booleans())
    m = draw(st.integers(min(8, max_m) if exact else 1, max_m))
    reqs = [[draw(GRID) for _ in range(k)] for _ in range(m)]
    if exact:
        cuts = sorted(draw(st.lists(st.integers(0, 100), min_size=m - 1, max_size=m - 1)))
        for i, (lo, hi) in enumerate(zip([0] + cuts, cuts + [100])):
            reqs[i] = [hi - lo] + [draw(st.integers(0, 100 // m)) for _ in range(k - 1)]
    if k > 1:
        i = draw(st.integers(0, m - 1))
        reqs[i][draw(st.integers(0, k - 1))] = 0
    sizes = [draw(st.sampled_from([1, 1, 2, Fraction(3, 2)])) for _ in range(m)]
    if exact:
        releases, fractions = [0] * m, [1.0] * m
    else:
        releases = [draw(st.sampled_from([0, 0, 0, 1])) for _ in range(m)]
        fractions = [draw(st.integers(1, 100)) / 100 for _ in range(m)]
    return reqs, sizes, releases, fractions, exact


def build(lane, k: int) -> Instance:
    """An instance whose queues start with the drawn jobs (plus a successor)."""
    reqs, sizes, releases = lane[:3]
    queues = [
        [
            Job([Fraction(r, 100) for r in req] if k > 1 else Fraction(req[0], 100), size),
            Job([Fraction(1, 2)] * k if k > 1 else Fraction(1, 2)),
        ]
        for req, size in zip(reqs, sizes)
    ]
    return Instance(queues, releases=releases)


def partial(state, fractions) -> None:
    """Scale the active jobs' remaining work in place (partial progress)."""
    scale = np.zeros(state.remaining.shape)
    if scale.ndim == 1:
        scale[:] = fractions
    else:
        for b, row in enumerate(fractions):
            scale[b, : len(row)] = row
    state.remaining[...] = state.remaining * scale


def grid_shares(draw, shape):
    """Shares in [0, 1] on the 1/100 grid (any row sums: apply is unchecked)."""
    flat = draw(st.lists(GRID, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(flat, dtype=np.float64).reshape(shape) / 100


class TestSingleLane:
    @SETTINGS
    @given(data=st.data(), k=st.sampled_from([1, 2, 3]))
    def test_fill_and_apply(self, data, k):
        lane = data.draw(lanes(k))
        inst = build(lane, k)
        new, old = VectorRuntime(inst), VectorRuntime(inst)
        for rt in (new, old):
            partial(rt.state, lane[3])
        m = inst.num_processors
        order = np.array(data.draw(st.permutations(range(m))), dtype=np.int64)
        eligible = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
        capacity = data.draw(st.sampled_from([1.0, 0.5, 0.37]))
        if lane[4]:
            eligible[:], capacity = True, 1.0
        state = new.state
        if k == 1:
            for at, elig in ((order, eligible), (None, None), (order, None)):
                got = _prefix_fill(state, at, elig, capacity)
                want = frozen.prefix_fill(old.state, at, elig, capacity)
                assert np.array_equal(got, want)
            shares = water_fill_array(state, order, eligible=eligible, capacity=capacity)
            assert np.array_equal(shares, frozen.prefix_fill(old.state, order, eligible, capacity))
        else:
            kept = order[eligible[order]]
            got = _fill_arrays_multi(
                state.remaining, state.active_requirements, state.active_req_matrix,
                kept, capacity,
            )
            want = frozen.fill_arrays_multi(
                old.state.remaining, old.state.active_requirements,
                old.state.active_req_matrix, kept, capacity,
            )
            assert np.array_equal(got, want)
            shares = water_fill_array(state, order, eligible=eligible, capacity=capacity)
            assert np.array_equal(shares, want)
        if data.draw(st.booleans()):
            shares = grid_shares(data.draw, shares.shape)
        rule = frozen.vector_scalar_work if k == 1 else frozen.vector_multi_work
        want_work = rule(old.state, shares.copy())
        event = new.apply(shares.copy())
        assert np.array_equal(event.processed, want_work)
        assert np.array_equal(new.state.resource_spent, old.state.resource_spent)


class TestBatch:
    @SETTINGS
    @given(data=st.data(), k=st.sampled_from([1, 2, 3]))
    def test_fill_and_apply(self, data, k):
        num_lanes = data.draw(st.integers(1, 4))
        # Mixed-k batches: lane 0 carries k, the others any k' <= k.
        ks = [k] + [data.draw(st.integers(1, k)) for _ in range(num_lanes - 1)]
        drawn = [data.draw(lanes(kb, max_m=40 // num_lanes)) for kb in ks]
        insts = [build(lane, kb) for lane, kb in zip(drawn, ks)]
        new = BatchVectorRuntime(insts, "greedy-balance", compact_threshold=None)
        old = BatchVectorRuntime(insts, "greedy-balance", compact_threshold=None)
        for rt in (new, old):
            partial(rt.state, [lane[3] for lane in drawn])
        state = new.state
        B, m = state.remaining.shape
        order = np.array(
            [data.draw(st.permutations(range(m))) for _ in range(B)], dtype=np.int64
        )
        eligible = np.array(
            data.draw(st.lists(st.booleans(), min_size=B * m, max_size=B * m))
        ).reshape(B, m)
        capacity = data.draw(st.sampled_from([1.0, 0.5]))
        if drawn[0][4]:
            eligible[:], capacity = True, 1.0
        at = order + np.arange(0, B * m, m)[:, None]
        for a, elig in ((at, eligible), (None, None), (at, None)):
            got = _prefix_fill(state, a, elig, capacity)
            want = frozen.prefix_fill(old.state, a, elig, capacity)
            assert np.array_equal(got, want)
        shares = water_fill_array(state, order, eligible=eligible, capacity=capacity)
        if state.num_resources == 1:
            assert np.array_equal(shares, frozen.prefix_fill(old.state, at, eligible, capacity))
        if data.draw(st.booleans()):
            shares = grid_shares(data.draw, shares.shape)
        if state.num_resources == 1:
            before = state.remaining.copy()
            want_work = frozen.batch_scalar_work(old.state, shares.copy())
            slots, _, spent = new._apply(shares.copy())
            assert np.array_equal(spent, want_work.sum(axis=1))
            # Slots that did not complete keep exactly remaining - work.
            kept = np.ones(B * m, dtype=bool)
            kept[slots] = False
            assert np.array_equal(
                state.remaining.ravel()[kept], (before - want_work).ravel()[kept]
            )
        else:
            want_work = frozen.batch_multi_work(old.state, shares.copy())
            assert np.array_equal(new._multi_work(shares.copy()), want_work)
        assert np.array_equal(state.resource_spent, old.state.resource_spent)
