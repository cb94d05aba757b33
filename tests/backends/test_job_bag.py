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
    assert bag.add(Instance([[Job("1/2"), Job("1/3"), Job("1/2")]])) == ((0, 1, 0),)
    assert bag.add(Instance([[Job("1/3", weight=2)]])) == ((2,),)
    assert len(bag.jobs) == 3


@pytest.mark.parametrize("k", [1, 2])
def test_gathered_table_is_one_c_contiguous_block(k):
    lanes = [uniform_instance(4, 3, seed=s) for s in range(3)]
    if k > 1:
        lanes = [with_resources(inst, k, seed=1) for inst in lanes]
    lanes.append(Instance([[Job("1/2")]]))  # ragged m and n (and k)
    num_jobs, release, table = job_tables(lanes)
    assert table.flags["C_CONTIGUOUS"]
    # Requirement, work, weight, deadline, then k per-resource rows.
    assert table.shape == (4 + k if k > 1 else 4,) + num_jobs.shape + (4,)
    # Every queue ends in the sentinel's empty job.
    pad = np.arange(table.shape[3]) >= num_jobs[..., None]
    assert (np.delete(table, 3, axis=0)[:, pad] == 0).all()
    assert (table[3][pad] == np.inf).all()
    for b, lane in enumerate(lanes):
        for i, queue in enumerate(lane.queues):
            for j, job in enumerate(queue):
                column = table[:, b, i, j]
                assert column[0] == float(job.requirement)
                assert column[1] == float(job.work)
                if k > 1:
                    reqs = [float(r) for r in job.requirements]
                    assert list(column[4:]) == reqs + [0.0] * (k - len(reqs))


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
