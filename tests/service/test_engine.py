"""The event-driven scheduling engine (:mod:`repro.service.engine`)."""

import sys
from fractions import Fraction

import pytest

import repro.core.checkpoint as checkpoint
import repro.core.kernel as kernel
import repro.core.numerics as numerics
import repro.core.simulator as simulator
import repro.service.engine as engine
from repro.backends.vector import VectorState
from repro.core import Instance, Job
from repro.core.state import ExecState
from repro.core.table import JobTable
from repro.exceptions import ServiceError
from repro.service import (
    ArrivalEvent,
    PoissonStream,
    SchedulingService,
    UtilizationCap,
    replay_log,
)
from repro.telemetry import TelemetrySession, use_session

from .checkpoint_oracle import CheckpointRestoreService

BACKENDS = ("exact", "vector")


def _stream(count=30, rate=2.0, seed=5):
    return PoissonStream(rate=rate, count=count, seed=seed)


class TestBasicLifecycle:
    def test_submit_drain_report(self):
        svc = SchedulingService(max_queues=2)
        assert svc.submit(ArrivalEvent(0, Job("1/2")))
        assert svc.submit(ArrivalEvent(1, Job("3/4")))
        makespan = svc.drain()
        assert makespan >= 1
        report = svc.report()
        assert report.submitted == 2
        assert report.admitted == 2
        assert report.completed == 2
        assert report.dropped_events == 0
        assert svc.closed

    def test_empty_service_drains_to_zero(self):
        svc = SchedulingService()
        assert svc.drain() == 0
        assert svc.report().completed == 0

    def test_submit_after_drain_rejected(self):
        svc = SchedulingService()
        svc.drain()
        with pytest.raises(ServiceError, match="closed"):
            svc.submit(ArrivalEvent(0, Job("1/2")))

    def test_double_drain_rejected(self):
        svc = SchedulingService()
        svc.drain()
        with pytest.raises(ServiceError, match="closed"):
            svc.drain()

    def test_clock_never_rewinds(self):
        svc = SchedulingService()
        svc.submit(ArrivalEvent(5, Job("1/2")))
        with pytest.raises(ServiceError, match="in order"):
            svc.submit(ArrivalEvent(3, Job("1/2")))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ServiceError, match="backend"):
            SchedulingService(backend="quantum")

    def test_bad_max_queues_rejected(self):
        with pytest.raises(ServiceError, match="max_queues"):
            SchedulingService(max_queues=0)


class TestPlacement:
    def test_grows_queues_up_to_the_cap(self):
        svc = SchedulingService(max_queues=3)
        for step in range(3):
            svc.submit(ArrivalEvent(step, Job("1/2", 50)))
        assert svc.report().num_queues == 3

    def test_then_places_on_the_least_loaded_queue(self):
        svc = SchedulingService(max_queues=2)
        svc.submit(ArrivalEvent(0, Job("1/2", 100)))  # heavy queue 0
        svc.submit(ArrivalEvent(0, Job("1/2")))  # opens queue 1
        svc.submit(ArrivalEvent(0, Job("1/2")))  # lighter queue 1 wins
        log = [r for r in svc.event_log if r["type"] == "arrival"]
        assert [r["queue"] for r in log] == [0, 1, 1]

    def test_idle_gap_fast_forwards(self):
        svc = SchedulingService()
        svc.submit(ArrivalEvent(0, Job("1/2")))
        # The queue drains after a couple of steps; the next arrival
        # far in the future must advance the clock without issue.
        assert svc.submit(ArrivalEvent(500, Job("1/2")))
        assert svc.clock == 500
        svc.drain()
        assert svc.report().completed == 2


class TestMatchesCheckpointOracle:
    """In-place growth equals growth by checkpoint restore, bit for bit."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bit_identical_completions(self, backend):
        count = 12 if backend == "exact" else 30
        results = []
        for cls in (SchedulingService, CheckpointRestoreService):
            svc = cls(backend=backend, max_queues=4)
            svc.run_stream(_stream(count=count))
            results.append(svc.completion_steps)
        assert results[0] == results[1]

    def test_identical_event_logs(self):
        logs = []
        for cls in (SchedulingService, CheckpointRestoreService):
            svc = cls(max_queues=4)
            svc.run_stream(_stream())
            logs.append(svc.event_log)
        assert logs[0] == logs[1]


def _counting(monkeypatch, owner, name, counts, key=None):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key or name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestPerEventCost:
    """After the first arrival, no event rebuilds, checkpoints or rescans.

    Counted calls, not wall clock: the per-event hot path must never
    reach the whole-history primitives.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_submit_never_rebuilds(self, backend, monkeypatch):
        events = list(_stream(count=40, rate=1.0, seed=2))
        # An idle gap long enough to drain every queue, then a burst.
        gap = events[-1].time + 200
        events += [ArrivalEvent(gap, Job("1/3", 2)) for _ in range(6)]
        svc = SchedulingService(backend=backend, max_queues=4)
        svc.submit(events[0])
        counts = {
            name: 0
            for name in (
                "checkpoint_run",
                "restore_runtime",
                "default_step_limit",
                "__init__",
                "job_table_builds",
            )
        }
        for module in (engine, checkpoint):
            _counting(monkeypatch, module, "checkpoint_run", counts)
            _counting(monkeypatch, module, "restore_runtime", counts)
        for module in (engine, simulator):
            _counting(monkeypatch, module, "default_step_limit", counts)
        for cls in (VectorState, ExecState, Instance):
            _counting(monkeypatch, cls, "__init__", counts)
        # The grown instances get no job table: extend converts only the new job.
        _counting(monkeypatch, JobTable, "__init__", counts, "job_table_builds")
        for event in events[1:]:
            svc.submit(event)
        assert svc.report().num_queues == 4
        assert counts == dict.fromkeys(counts, 0)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("at", [0, 7])
    def test_first_arrival_builds_one_state(self, backend, at, monkeypatch):
        """No checkpoint round trip; the state equals the one it gave."""
        counts = dict.fromkeys(("checkpoint_run", "restore_runtime", "__init__"), 0)
        for module in (engine, checkpoint):
            _counting(monkeypatch, module, "checkpoint_run", counts)
            _counting(monkeypatch, module, "restore_runtime", counts)
        for cls in (VectorState, ExecState):
            _counting(monkeypatch, cls, "__init__", counts)
        svc = SchedulingService(backend=backend)
        job = Job("1/3", 2)
        svc.submit(ArrivalEvent(at, job))
        assert counts == {"checkpoint_run": 0, "restore_runtime": 0, "__init__": 1}
        fresh = svc._new_runtime(Instance([[job]], releases=[at]))
        restored = checkpoint.restore_runtime(checkpoint.checkpoint_run(fresh).at_step(at))
        assert svc._runtime.capture() == restored.capture()
        assert svc.clock == at

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_submit_reads_running_totals(self, backend):
        """No per-job rescan, no exact work sum, no idle kernel entry.

        Calls are counted by code object under a profile hook, so a
        function is caught however the engine reaches it.
        """
        # An overloaded stream (queues build up behind their active job)
        # with same-step arrivals, then an idle gap that drains every queue.
        events = list(_stream(count=60, rate=4.0, seed=4))
        assert len({event.time for event in events}) < len(events)
        gap = events[-1].time + 200
        events += [ArrivalEvent(gap, Job("1/3", 2)), ArrivalEvent(gap, Job("1/2"))]
        svc = SchedulingService(backend=backend, max_queues=4)
        svc.submit(events[0])
        watched = {
            "work_vector": Job.work_vector.fget,
            "frac_ceil": numerics.frac_ceil,
            "steps_at_full_speed": Job.steps_at_full_speed,
            "_total_backlog": SchedulingService._total_backlog,
            "run_kernel": kernel.run_kernel,
        }
        names = {fn.__code__: name for name, fn in watched.items()}
        counts = dict.fromkeys(watched, 0)

        def count(frame, what, _arg):
            if what == "call" and frame.f_code in names:
                counts[names[frame.f_code]] += 1

        stepping = 0
        before = sys.getprofile()
        sys.setprofile(count)
        try:
            for event in events[1:]:
                runtime = svc._runtime
                stepping += event.time > svc.clock and not runtime.all_done
                svc.submit(event)
        finally:
            sys.setprofile(before)
        assert svc.admitted == len(events)
        assert 0 < stepping < len(events) - 1
        assert counts.pop("steps_at_full_speed") <= len(events) - 1
        assert counts == {
            "work_vector": 0,
            "frac_ceil": 0,
            "_total_backlog": 0,
            "run_kernel": stepping,
        }

    def test_one_session_read_per_submit(self, monkeypatch):
        counts = {"get_session": 0}
        _counting(monkeypatch, engine, "get_session", counts)
        svc = SchedulingService(max_queues=2)
        for event in _stream(count=10):
            svc.submit(event)
        assert counts["get_session"] == 10


class TestOldEventLogs:
    @pytest.mark.parametrize("mode", ["incremental", "from-scratch"])
    def test_config_with_mode_replays(self, mode):
        svc = SchedulingService(max_queues=3)
        svc.run_stream(_stream(count=12))
        config = {**svc.config(), "mode": mode}
        report, replayed = replay_log(config, svc.event_log)
        assert replayed.event_log == svc.event_log
        assert report.completed == 12


class TestDrainedQueueDefect:
    """A job appended to a drained queue must still do its work.

    Both runtimes keep the drained lane's ``remaining == 0`` when the
    queue grows, so the job "completes" at once without using any
    resource.  The fix changes the ``stream`` benchmark's quality
    figure and waits for a work-conservation check there.
    """

    @pytest.mark.xfail(strict=True, reason="drained-queue append skips work")
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_appended_job_does_its_work(self, backend):
        svc = SchedulingService(backend=backend, max_queues=1)
        svc.submit(ArrivalEvent(0, Job("1/2")))
        svc.submit(ArrivalEvent(50, Job("1/2", 10)))
        svc.drain()
        spent = svc._runtime.state.resource_spent[0]
        assert spent == pytest.approx(float(Fraction(11, 2)))
        assert svc.completion_steps[(0, 1)] >= 59


class TestAdmissionIntegration:
    def test_utilization_cap_sheds_bursts(self):
        svc = SchedulingService(
            admission=UtilizationCap(cap=0.5, window=4), max_queues=2
        )
        decisions = [
            svc.submit(ArrivalEvent(0, Job("1/2", 2))) for _ in range(5)
        ]
        assert True in decisions and False in decisions
        report = svc.report()
        assert report.admitted + report.rejected == report.submitted == 5

    def test_deadline_feasibility_rejects_late_jobs(self):
        svc = SchedulingService(
            admission="deadline-feasibility", max_queues=1
        )
        assert svc.submit(ArrivalEvent(0, Job("1/2", 10, deadline=30)))
        assert not svc.submit(ArrivalEvent(0, Job("1/2", deadline=2)))

    def test_rejected_jobs_never_enter_the_instance(self):
        svc = SchedulingService(
            admission=UtilizationCap(cap=0.5, window=2), max_queues=1
        )
        svc.submit(ArrivalEvent(0, Job("1/2", 2)))
        assert not svc.submit(ArrivalEvent(0, Job("1/2", 2)))
        svc.drain()
        assert svc.report().completed == 1


class TestReport:
    def test_utilization_is_a_fraction(self):
        svc = SchedulingService(max_queues=4)
        svc.run_stream(_stream())
        report = svc.report()
        assert 0.0 <= report.utilization <= 1.0
        assert report.total_work > 0

    def test_latency_percentiles_are_ordered(self):
        svc = SchedulingService(max_queues=4)
        svc.run_stream(_stream())
        lat = svc.report().latency_percentiles
        assert set(lat) == {"p50", "p90", "p99", "mean", "max"}
        assert 0.0 <= lat["p50"] <= lat["p90"] <= lat["p99"] <= lat["max"]

    def test_to_dict_round_trips_through_json(self):
        import json

        svc = SchedulingService()
        svc.run_stream(_stream(count=5))
        doc = svc.report().to_dict()
        assert json.loads(json.dumps(doc)) == doc

    def test_render_mentions_the_headline_figures(self):
        svc = SchedulingService()
        svc.run_stream(_stream(count=5))
        text = svc.report().render()
        assert "utilization=" in text
        assert "p99=" in text


class TestEventLog:
    def test_log_structure(self):
        svc = SchedulingService(max_queues=2)
        svc.run_stream(_stream(count=8))
        log = svc.event_log
        kinds = [r["type"] for r in log]
        assert kinds[-1] == "drain"
        arrivals = [r for r in log if r["type"] == "arrival"]
        completions = [r for r in log if r["type"] == "completion"]
        assert len(arrivals) == 8
        assert len(completions) == 8
        assert [r["seq"] for r in arrivals] == list(range(8))

    def test_config_is_replayable(self):
        svc = SchedulingService(
            admission=UtilizationCap(cap=0.7, window=16), max_queues=3
        )
        config = svc.config()
        assert config["admission"] == {
            "name": "utilization-cap",
            "options": {"cap": 0.7, "window": 16},
        }


class TestReplay:
    def test_replay_reproduces_the_run(self):
        svc = SchedulingService(
            admission=UtilizationCap(cap=0.9, window=8), max_queues=4
        )
        original = svc.run_stream(_stream(count=20))
        report, replayed = replay_log(svc.config(), svc.event_log)
        assert report.admitted == original.admitted
        assert report.rejected == original.rejected
        assert report.completed == original.completed
        assert replayed.completion_steps == svc.completion_steps

    def test_diverging_decision_rejected(self):
        svc = SchedulingService(max_queues=2)
        svc.run_stream(_stream(count=5))
        records = svc.event_log
        tampered = [
            {**r, "admitted": False} if r["type"] == "arrival" else r
            for r in records
        ]
        with pytest.raises(ServiceError, match="diverged"):
            replay_log(svc.config(), tampered)

    def test_malformed_config_rejected(self):
        with pytest.raises(ServiceError, match="malformed event-log config"):
            replay_log({}, [])

    def test_malformed_arrival_record_rejected(self):
        config = SchedulingService().config()
        with pytest.raises(ServiceError, match="malformed arrival"):
            replay_log(config, [{"type": "arrival", "t": 0}])

    def test_non_iterable_records_rejected(self):
        with pytest.raises(ServiceError, match="not iterable"):
            replay_log(SchedulingService().config(), 5)

    def test_record_without_known_type_rejected(self):
        with pytest.raises(ServiceError, match="no known type"):
            replay_log(SchedulingService().config(), [{"kind": "arrival"}])


class TestTelemetry:
    def test_service_metrics_are_recorded(self):
        session = TelemetrySession(tracing=False)
        with use_session(session):
            svc = SchedulingService(max_queues=4)
            svc.run_stream(_stream(count=10))
        metrics = session.metrics
        assert metrics.counter("service.arrivals").value == 10
        assert metrics.counter("service.admitted").value == 10
        assert metrics.counter("service.completions").value == 10

    def test_phase_histograms_and_gauges(self):
        session = TelemetrySession(tracing=False)
        svc = SchedulingService(
            admission=UtilizationCap(cap=0.5, window=4), max_queues=2
        )
        with use_session(session):
            for event in _stream(count=20, rate=4.0):
                svc.submit(event)
        metrics = session.metrics
        for phase in ("advance", "place", "admit"):
            assert metrics.histogram(f"service.phase.{phase}").count == 20
        assert 0 < svc.admitted < 20
        assert metrics.histogram("service.phase.extend").count == svc.admitted
        live = svc.admitted - svc.completed
        assert metrics.gauge("service.live_jobs").value == live
        assert metrics.gauge("service.backlog").value > 0

    def test_stream_span_is_traced(self):
        session = TelemetrySession()
        with use_session(session):
            SchedulingService().run_stream(_stream(count=5))
        names = [r.name for r in session.tracer.records]
        assert "service.stream" in names
