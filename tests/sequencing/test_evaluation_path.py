"""Which engine evaluates each order of a search, by counted calls.

A batched vector search runs every order in ``run_batch``: a climb's
starting order (the initial one, or a restart's perturbed one) rides
its first batch as one more lane, so the single-lane backend stays
idle.  A sequential search keeps evaluating one order at a time.
"""

import pytest

import repro.backends.batched as batched
from repro.backends.vector import VectorBackend
from repro.generators import bag_instance
from repro.sequencing import LocalSearchSequencer


@pytest.fixture
def calls(monkeypatch):
    counts = {"run": 0, "run_batch": 0, "lanes": 0}
    run, run_batch = VectorBackend.run, batched.run_batch

    def counted_run(self, *args, **kwargs):
        counts["run"] += 1
        return run(self, *args, **kwargs)

    def counted_run_batch(selection, *args, **kwargs):
        counts["run_batch"] += 1
        counts["lanes"] += len(selection.queues)
        return run_batch(selection, *args, **kwargs)

    monkeypatch.setattr(VectorBackend, "run", counted_run)
    monkeypatch.setattr(batched, "run_batch", counted_run_batch)
    return counts


def test_batched_search_runs_every_order_in_run_batch(calls):
    seq = LocalSearchSequencer(budget=48, restarts=3, seed=1, batch_lanes=8)
    seq.sequence(bag_instance(6, 5, seed=2))
    stats = seq.last_stats
    assert stats["perturbations"] == 2
    # 18 batches, as when the three starting orders ran alone.
    assert calls == {"run": 0, "run_batch": 18, "lanes": stats["kernel_runs"]}


def test_single_missed_order_still_runs_alone(calls):
    # A 2 x 2 bag revisits orders, so some batches leave one order
    # uncached; that order takes the single-lane backend.
    seq = LocalSearchSequencer(budget=60, seed=0, batch_lanes=8)
    seq.sequence(bag_instance(2, 2, seed=0))
    assert calls["run"] > 0
    assert calls["run"] + calls["lanes"] == seq.last_stats["kernel_runs"]


def test_sequential_search_runs_one_order_at_a_time(calls):
    seq = LocalSearchSequencer(budget=12, restarts=2, seed=0)
    seq.sequence(bag_instance(3, 4, seed=0))
    assert calls["run_batch"] == 0
    assert calls["run"] == seq.last_stats["kernel_runs"]
