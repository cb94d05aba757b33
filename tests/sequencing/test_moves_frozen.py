"""The search's moves against the frozen list-based moves.

``_swap`` draws two flat indices with ``rng.sample(range(total), 2)``
and locates them; the frozen ``_swap`` sampled the list of every
``(queue, position)`` pair.  Both draws consume the same random
numbers, so the two must pick the same pairs, make the same swap and
leave the generator in the same state.  The search's moves replace
the tuples they touch where the frozen ones edit lists in place, so
``_insert`` is checked as well.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequencing.local_search import LocalSearchSequencer, _locate

from .frozen_instance_climb import FrozenInstanceClimb

# A small id pool makes equal jobs (a no-op swap) common.
_queues = st.lists(st.lists(st.integers(0, 6), max_size=7), min_size=1, max_size=6)


def _positions(queues):
    return [(i, j) for i, q in enumerate(queues) for j in range(len(q))]


@settings(max_examples=300, deadline=None)
@given(queues=_queues)
def test_locate_walks_the_position_list(queues):
    tuples = [tuple(q) for q in queues]
    located = [_locate(tuples, at) for at in range(sum(map(len, queues)))]
    assert located == _positions(queues)


@settings(max_examples=300, deadline=None)
@given(queues=_queues, seed=st.integers(0, 2**32 - 1), draws=st.integers(1, 12))
def test_swap_equals_frozen_swap(queues, seed, draws):
    old = [list(q) for q in queues]
    new = [tuple(q) for q in queues]
    rng_old, rng_new = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        assert LocalSearchSequencer._swap(new, rng_new) == FrozenInstanceClimb._swap(
            old, rng_old
        )
        assert new == [tuple(q) for q in old]
        assert rng_new.getstate() == rng_old.getstate()


@settings(max_examples=300, deadline=None)
@given(queues=_queues, seed=st.integers(0, 2**32 - 1), draws=st.integers(1, 12))
def test_insert_equals_frozen_insert(queues, seed, draws):
    old = [list(q) for q in queues]
    new = [tuple(q) for q in queues]
    rng_old, rng_new = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        assert LocalSearchSequencer._insert(
            new, rng_new
        ) == FrozenInstanceClimb._insert(old, rng_old)
        assert new == [tuple(q) for q in old]
        assert rng_new.getstate() == rng_old.getstate()


def test_distinct_jobs_reveal_the_pairs():
    # With distinct ids every swap moves two jobs, so equal queues mean
    # equal pairs; 16 x 10 is the benchmark search's bag.
    queues = [tuple(range(i * 10, i * 10 + 10)) for i in range(16)]
    for seed in range(50):
        old, new = [list(q) for q in queues], list(queues)
        assert FrozenInstanceClimb._swap(old, random.Random(seed))
        assert LocalSearchSequencer._swap(new, random.Random(seed))
        assert new == [tuple(q) for q in old] != queues
