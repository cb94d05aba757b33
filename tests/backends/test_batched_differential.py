"""Hypothesis differential for the batched engine's padded job tables.

Every queue of a :class:`~repro.backends.batched.BatchVectorState` ends
in the sentinel column of :func:`~repro.backends.vector.job_tables`,
so loading a drained queue's successor reads the empty job instead of
branching.  Hypothesis draws ragged batches over every axis that
layout meets: mixed ``m``, queue lengths up to the batch maximum (one
queue is exactly that long, so its successor *is* the sentinel
column), per-lane ``k`` in {1, 2, 3}, releases, requirements 0 and 1,
weights and deadlines, every policy plus the lane-by-lane fallback,
and compaction on and off.  Every lane must equal a standalone
:class:`~repro.backends.vector.VectorBackend` run on its makespan and
all five objectives, and the exact backend on its makespan.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import GreedyBalance, Policy, available_policies, get_policy
from repro.backends import ExactBackend, VectorBackend, run_batch
from repro.core import Instance, Job
from repro.objectives import available_objectives

REQUIREMENTS = [Fraction(0), Fraction(1, 5), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
SIZES = [Fraction(1), Fraction(1, 2), Fraction(2)]
OBJECTIVES = tuple(available_objectives())


class _ArrayOnlyBalance(GreedyBalance):
    """GreedyBalance without its batched path: steps through ``_LaneView``."""

    name = "array-only-balance"
    shares_batch = Policy.shares_batch


POLICIES = sorted(available_policies()) + [_ArrayOnlyBalance.name]


def _policy(name: str) -> Policy:
    if name == _ArrayOnlyBalance.name:
        return _ArrayOnlyBalance()
    return get_policy(name)


def _jobs(k: int):
    requirement = st.sampled_from(REQUIREMENTS)
    if k > 1:
        requirement = st.tuples(*[requirement] * k)
    return st.builds(
        Job,
        requirement,
        st.sampled_from(SIZES),
        weight=st.sampled_from([1, 2, Fraction(1, 2), 3]),
        deadline=st.one_of(st.none(), st.integers(1, 12)),
    )


@st.composite
def _lane(draw, nmax: int, *, full: bool) -> Instance:
    k = draw(st.sampled_from([1, 2, 3]))
    m = draw(st.integers(1, 4))
    lengths = [draw(st.integers(1, nmax)) for _ in range(m)]
    if full:
        lengths[0] = nmax
    inst = Instance([[draw(_jobs(k)) for _ in range(n)] for n in lengths])
    if draw(st.booleans()):
        inst = inst.with_releases([draw(st.integers(0, 3)) for _ in range(m)])
    return inst


@st.composite
def ragged_batches(draw) -> list[Instance]:
    nmax = draw(st.integers(1, 4))
    first = draw(_lane(nmax, full=True))
    rest = draw(st.lists(_lane(nmax, full=False), max_size=5))
    lanes = [first, *rest]
    return draw(st.permutations(lanes))


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    batch=ragged_batches(),
    policy_name=st.sampled_from(POLICIES),
    compact=st.sampled_from([0.5, None]),
)
def test_lanes_equal_standalone_runs(batch, policy_name, compact):
    policy = _policy(policy_name)
    result = run_batch(
        batch, policy, objectives=OBJECTIVES, compact_threshold=compact
    )
    vector, exact = VectorBackend(), ExactBackend()
    for b, inst in enumerate(batch):
        ref = vector.run(inst, policy, record_shares=False, objectives=OBJECTIVES)
        assert int(result.makespans[b]) == ref.makespan, (b, inst)
        for name in OBJECTIVES:
            got = result.objective_values[name][b]
            want = ref.objective_values[name]
            assert got == want and type(got) is type(want), (name, b, inst)
        exact_makespan = exact.run(inst, policy, record_shares=False).makespan
        assert ref.makespan == exact_makespan, (b, inst)
