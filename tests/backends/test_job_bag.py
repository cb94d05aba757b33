"""The job-row table behind the batched engine (:class:`JobBag`).

Equal jobs share one row id, lane tables are one contiguous gather of
the bag's rows, and a batch of row-id lanes runs without building an
``Instance``.
"""

import numpy as np
import pytest

from repro.backends import VectorBackend, run_batch
from repro.backends.vector import BagSelection, JobBag, job_tables
from repro.core import Instance, Job
from repro.generators import bag_instance, uniform_instance, with_resources


def test_equal_jobs_share_a_row():
    bag = JobBag()
    assert bag.ids([Job("1/2"), Job("1/3"), Job("1/2")]) == (0, 1, 0)
    assert bag.ids([Job("1/3", weight=2)]) == (2,)
    assert len(bag.jobs) == 3


@pytest.mark.parametrize("k", [1, 2])
def test_gathered_tables_are_c_contiguous(k):
    lanes = [uniform_instance(4, 3, seed=s) for s in range(3)]
    if k > 1:
        lanes = [with_resources(inst, k, seed=1) for inst in lanes]
    lanes.append(Instance([[Job("1/2")]]))  # ragged m and n
    num_jobs, release, jobs, reqk = job_tables(lanes)
    assert jobs.flags["C_CONTIGUOUS"]
    assert (reqk is None) == (k == 1)
    if reqk is not None:
        assert reqk.flags["C_CONTIGUOUS"]
        assert reqk.shape == (4, k) + jobs.shape[2:]
    # Every queue ends in the sentinel's empty job.
    assert (jobs[1][np.arange(jobs.shape[3]) >= num_jobs[..., None]] == 0).all()


def test_id_lanes_run_without_instances(monkeypatch):
    inst = bag_instance(4, 3, seed=2)
    whole = BagSelection.of([inst])
    start = whole.queues[0]
    lanes = [start, tuple(reversed(start))]
    built = []
    init = Instance.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Instance, "__init__", counting)
    selection = whole.bag.select(lanes, [inst.releases] * 2)
    result = run_batch(
        selection, "greedy-balance", objectives=("makespan", "weighted-flow"), max_steps=200
    )
    assert built == []
    monkeypatch.undo()
    for b, lane in enumerate(selection.instances):
        ref = VectorBackend().run(lane, "greedy-balance", objectives=("weighted-flow",))
        assert result.makespans[b] == ref.makespan
        assert result.objective_values["weighted-flow"][b] == ref.objective_values["weighted-flow"]
