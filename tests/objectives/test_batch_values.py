"""Batched objective reductions against the per-lane default.

:meth:`~repro.objectives.base.Objective.batch_values` evaluates an
objective on every lane of a batched run; its default folds
:meth:`~repro.objectives.base.Objective.value_from_completions` lane
by lane.  The makespan and weighted-flow overrides must return the
same values (``==`` and the same types), including the weighted-flow
fold's fallback when its int64 sum could overflow.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.backends import VectorBackend
from repro.backends.vector import BagSelection
from repro.core import Instance, Job
from repro.generators import bag_instance, with_weights
from repro.objectives import available_objectives, get_objective
from repro.objectives.base import Objective


def _completions(selection: BagSelection):
    """Per-lane completion steps and makespans from standalone runs."""
    _, _, ids = selection.row_ids()
    finish = np.zeros(ids.shape, dtype=np.int64)
    makespans = []
    for b, inst in enumerate(selection.instances):
        run = VectorBackend().run(inst, "weighted-srpt", record_shares=False)
        for (i, j), t in run.completion_steps.items():
            finish[b, i, j] = t
        makespans.append(run.makespan)
    return finish, np.array(makespans, dtype=np.int64)


def _assert_default(objective, selection):
    finish, makespans = _completions(selection)
    got = objective.batch_values(selection, finish, makespans)
    want = Objective.batch_values(objective, selection, finish, makespans)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("name", available_objectives())
def test_overrides_equal_the_per_lane_default(name):
    lanes = [
        with_weights(bag_instance(3, 3, seed=s), profile="skewed", seed=s)
        for s in range(4)
    ]
    lanes.append(lanes[0].with_releases([2, 0, 1]))
    lanes.append(Instance([[Job("1/2", 2, weight="1/3")]], releases=[3]))
    _assert_default(get_objective(name), BagSelection.of(lanes))


def test_id_lanes_equal_the_default():
    inst = with_weights(bag_instance(4, 3, seed=5), profile="skewed", seed=1)
    whole = BagSelection.of([inst])
    start = whole.queues[0]
    swapped = (start[1], start[0]) + tuple(start[2:])
    selection = whole.bag.select([start, swapped], [inst.releases] * 2)
    _assert_default(get_objective("weighted-flow"), selection)


@pytest.mark.parametrize(
    "weights",
    [
        (Fraction(2**60), Fraction(1)),  # numerators fit; the sums could not
        tuple(Fraction(3, 2**31 - d) for d in (1, 19, 61)),  # numerators do not fit
    ],
)
def test_weighted_flow_falls_back_before_int64_overflow(monkeypatch, weights):
    jobs = [Job("1/2", weight=w) for w in weights]
    inst = Instance([jobs, list(reversed(jobs))], releases=[0, 1])
    calls = []
    default = Objective.batch_values

    def spy(self, *args):
        calls.append(self.name)
        return default(self, *args)

    monkeypatch.setattr(Objective, "batch_values", spy)
    _assert_default(get_objective("weighted-flow"), BagSelection.of([inst, inst]))
    # One call from the override's fallback, one from the reference.
    assert calls == ["weighted-flow", "weighted-flow"]
