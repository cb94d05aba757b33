"""The batched climb on row ids against the frozen ``Instance``-keyed climb.

Candidates are per-queue row-id lists over one
:class:`~repro.backends.vector.JobBag`; equal jobs share an id, so the
move stream, the cache and every acceptance decision must match the
old climb, which held each candidate as an ``Instance``.  Hypothesis
draws instances over k in {1, 2}, releases, deadlines, fractional
weights and duplicate jobs (equal objects and equal values), under
all five objectives.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Instance, Job
from repro.generators import bag_instance
from repro.objectives import available_objectives
from repro.sequencing import LocalSearchSequencer

from .frozen_instance_climb import FrozenInstanceClimb

OBJECTIVES = tuple(available_objectives())
REQUIREMENTS = [Fraction(1, 5), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


def _job(k: int):
    requirement = st.sampled_from(REQUIREMENTS)
    if k > 1:
        requirement = st.tuples(*[requirement] * k)
    return st.builds(
        Job,
        requirement,
        st.sampled_from([1, 2, Fraction(1, 2)]),
        weight=st.sampled_from([1, 3, Fraction(1, 2), Fraction(2, 3)]),
        deadline=st.one_of(st.none(), st.integers(1, 8)),
    )


@st.composite
def instances(draw) -> Instance:
    k = draw(st.sampled_from([1, 2]))
    # A small pool makes duplicates common: the same object repeated,
    # and equal jobs built twice.
    pool = draw(st.lists(_job(k), min_size=1, max_size=5))
    m = draw(st.integers(1, 4))
    queues = [
        [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(1, 4)))]
        for _ in range(m)
    ]
    if draw(st.booleans()):
        queues[0].append(queues[0][0].replace())
    inst = Instance(queues)
    if draw(st.booleans()):
        inst = inst.with_releases([draw(st.integers(0, 3)) for _ in range(m)])
    return inst


def _stats(seq) -> dict:
    return {
        k: v
        for k, v in seq.last_stats.items()
        if k not in ("seconds", "evals_per_second")
    }


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    inst=instances(),
    objective=st.sampled_from(OBJECTIVES),
    policy=st.sampled_from(["greedy-balance", "weighted-srpt", "round-robin"]),
    lanes=st.sampled_from([2, 5, 16]),
    seed=st.integers(0, 3),
)
def test_id_climb_equals_instance_climb(inst, objective, policy, lanes, seed):
    options = dict(policy=policy, objective=objective, budget=24, seed=seed, batch_lanes=lanes)
    frozen = FrozenInstanceClimb(**options)
    live = LocalSearchSequencer(**options)
    assert live.sequence(inst) == frozen.sequence(inst)
    assert _stats(live) == frozen.last_stats


def test_batched_search_builds_few_instances(monkeypatch):
    inst = bag_instance(6, 5, seed=2)
    built = []
    init = Instance.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Instance, "__init__", counting)
    restarts = 3
    seq = LocalSearchSequencer(
        budget=60, restarts=restarts, seed=1, batch_lanes=16, objective="weighted-flow"
    )
    seq.sequence(inst)
    assert seq.last_stats["evaluations"] > 3 * restarts
    assert len(built) <= restarts + 2


@pytest.mark.parametrize("lanes", [1, 8])
def test_equal_jobs_are_one_row(lanes):
    # Equal jobs built as distinct objects share a row id, so a swap of
    # two equal jobs is a no-op exactly as it is on Job lists.
    inst = Instance([[Job("1/2"), Job("1/3")], [Job("1/2"), Job("1/2")]])
    seq = LocalSearchSequencer(budget=20, seed=0, batch_lanes=lanes)
    out = seq.sequence(inst)
    assert inst.same_bag(out)
    assert out.releases == inst.releases
