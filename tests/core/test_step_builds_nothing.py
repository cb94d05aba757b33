"""The kernel's step builds no per-step report when nothing reads one.

A :class:`~repro.core.kernel.StepEvent` is built only for observers
that override ``on_step``, and the kernel's runtimes never build a
:class:`~repro.core.state.StepOutcome` (the validators' report).  The
counts here are exact: every construction of either class is counted
while a campaign row, a bare vector run, a service stream, an exact
grid run and a certification execute.
A second check measures, with ``tracemalloc`` in a fresh process, the
traced-memory peak of each step on a fixed run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algorithms import get_policy
from repro.analysis.certify import certify_opt
from repro.backends import BatchRunner, ExactBackend
from repro.backends.vector import VectorBackend, VectorRuntime
from repro.core.kernel import StepEvent, StepObserver, run_kernel
from repro.core.simulator import simulate
from repro.core.state import StepOutcome
from repro.generators import uniform_instance, with_resources
from repro.service import PoissonStream, SchedulingService

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def built(monkeypatch):
    """Counts of ``StepEvent`` / ``StepOutcome`` constructions."""
    counts = {StepEvent: 0, StepOutcome: 0}
    for cls in counts:
        init = cls.__init__

        def counting(self, *args, __init=init, __cls=cls, **kwargs):
            counts[__cls] += 1
            __init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def _instance(k: int):
    inst = uniform_instance(8, 6, seed=5)
    return inst if k == 1 else with_resources(inst, k, seed=5)


@pytest.mark.parametrize("k", [1, 2])
def test_vector_run_without_shares_builds_nothing(built, k):
    result = VectorBackend().run(_instance(k), "greedy-balance", record_shares=False)
    assert result.makespan > 0
    assert len(result.completion_steps) == _instance(k).total_jobs
    assert built == {StepEvent: 0, StepOutcome: 0}


@pytest.mark.parametrize("k", [1, 2])
def test_campaign_row_builds_nothing(built, k):
    result = BatchRunner("greedy-balance", "vector").run([_instance(k)])
    assert result.rows[0]["makespan"] > 0
    assert built == {StepEvent: 0, StepOutcome: 0}


def test_service_stream_builds_nothing(built):
    service = SchedulingService(backend="vector", max_queues=4)
    for event in PoissonStream(rate=1.5, count=40, seed=2):
        service.submit(event)
    service.drain()
    assert service.completed == 40
    assert built == {StepEvent: 0, StepOutcome: 0}


def test_exact_grid_run_without_shares_builds_nothing(built):
    inst = _instance(1)
    assert inst.job_table().on_grid
    result = ExactBackend().run(inst, "greedy-balance", record_shares=False)
    assert len(result.completion_steps) == inst.total_jobs
    assert built == {StepEvent: 0, StepOutcome: 0}


def test_certification_builds_nothing(built):
    cert = certify_opt(uniform_instance(2, 3, seed=4), policy="greedy-balance", backend="exact")
    assert cert.proved and cert.leaf_evaluations > 0
    assert built == {StepEvent: 0, StepOutcome: 0}


def test_events_built_once_per_step_for_step_observers(built):
    class Steps(StepObserver):
        def on_step(self, event):
            pass

    inst = _instance(1)
    makespan = run_kernel(VectorRuntime(inst), get_policy("round-robin"), [Steps()])
    assert built == {StepEvent: makespan, StepOutcome: 0}


def test_schedule_validation_still_builds_outcomes(built):
    schedule = simulate(uniform_instance(3, 3, seed=1), "greedy-balance")
    # One report per replayed row; the kernel run before it builds none.
    assert built[StepOutcome] == schedule.makespan


#: Runs ``VectorBackend.run(..., record_shares=False)`` on one fixed
#: instance per k in a fresh interpreter under ``tracemalloc``.  The
#: policy query samples traced memory at each step's start: the peak
#: above the previous step's post-query level (``reset_peak`` after
#: each query, whose own allocations are left out), and snapshots at
#: steps 20 and 120 for what the step loop's own modules retain.
_PROBE = """
import json, tracemalloc
from repro.algorithms import GreedyBalance
from repro.backends.vector import VectorBackend
from repro.generators import uniform_instance, with_resources

LOOP = [tracemalloc.Filter(True, f"*/{name}") for name in
        ("core/kernel.py", "core/state.py", "backends/vector.py")]

class Probe(GreedyBalance):
    def __init__(self):
        super().__init__()
        self.mark = None
        self.peaks = []
        self.snapshots = []

    def shares_array(self, state):
        if tracemalloc.is_tracing():
            if self.mark is not None:
                self.peaks.append(tracemalloc.get_traced_memory()[1] - self.mark)
            if len(self.peaks) in (20, 120):
                self.snapshots.append(tracemalloc.take_snapshot().filter_traces(LOOP))
        shares = super().shares_array(state)
        tracemalloc.reset_peak()
        self.mark = tracemalloc.get_traced_memory()[0]
        return shares

out = {}
for k in (1, 2):
    inst = uniform_instance(32, 10, seed=3)
    if k == 2:
        inst = with_resources(inst, 2, seed=3)
    VectorBackend().run(inst, Probe(), record_shares=False)  # warm
    probe = Probe()
    tracemalloc.start()
    steps = VectorBackend().run(inst, probe, record_shares=False).makespan
    tracemalloc.stop()
    first, last = probe.snapshots
    retained = sum(stat.size_diff for stat in last.compare_to(first, "filename"))
    out[k] = {
        "steps": steps,
        "peak_mean": sum(probe.peaks) / len(probe.peaks),
        "peak_max": max(probe.peaks),
        "loop_retained_per_step": retained / 100,
    }
print(json.dumps(out))
"""


def test_step_loop_retains_nothing_per_step():
    """The float run's completion record is preallocated: the step loop's
    modules hold no more traced memory at step 120 than at step 20."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env, check=True
    )
    figures = json.loads(proc.stdout.strip().splitlines()[-1])
    for k in ("1", "2"):
        assert figures[k]["steps"] > 120, figures
        assert figures[k]["loop_retained_per_step"] <= 0, figures
