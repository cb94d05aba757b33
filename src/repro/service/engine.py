"""The always-on scheduling service: event-driven incremental runs.

:class:`SchedulingService` keeps one live kernel runtime and reacts to
arrival events instead of re-simulating from ``t=0``:

1. **advance** the runtime to the arrival step (an idle gap after the
   run has drained is skipped by moving the step counter, never
   simulated);
2. **place** the job -- a new logical queue while the service is
   below ``max_queues``, otherwise the least-loaded existing queue;
3. **admit or shed** via the pluggable admission policy
   (:mod:`repro.service.admission`);
4. on admission, **extend** the live runtime in place: the job's row
   is appended to the runtime's tables (a new queue adds one lane,
   released at the arrival step), and the run continues exactly as a
   checkpoint restored into the grown instance would.

An event costs O(live queues) and rescans no job.  Exact int running
totals grow once per admitted job: per queue, prefix sums of the jobs'
full-speed steps (a backlog is the active job's term off the state
plus a difference of two sums, the float a rescan gives); per shared
resource, the admitted work over one common denominator (the kernel's
step limit).  ``total_backlog`` is a float sum that a running total
would round differently, so it is summed only when read
(``utilization-cap`` and the ``service.backlog`` gauge do, ``accept-all``
does not).  An arrival at the clock's own step enters no kernel.
``benchmarks/bench_service.py`` gates the flatness: p99 submit latency
at 8000 jobs stays within 1.5x of p99 at 1000 jobs.  Checkpoints remain
the persistence and replay format; they are off the event path (the
first arrival builds one runtime and sets its clock).

Every decision lands in an event log replayable through
:func:`replay_log`; :meth:`SchedulingService.report` summarizes
steady-state utilization and per-event scheduling-latency percentiles.

Example:
    >>> from repro.service import ArrivalEvent, SchedulingService
    >>> from repro.core import Job
    >>> svc = SchedulingService(policy="greedy-balance", max_queues=2)
    >>> svc.submit(ArrivalEvent(0, Job("1/2")))
    True
    >>> svc.submit(ArrivalEvent(1, Job("3/4")))
    True
    >>> svc.drain()
    2
    >>> svc.report().completed
    2
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable

from ..algorithms import get_policy
from ..backends.vector import VectorRuntime
# Unused here; kept as module attributes that ``perfbench/tracing.py`` patches.
from ..core.checkpoint import checkpoint_run, restore_runtime  # noqa: F401
from ..core.instance import Instance
from ..core.job import Job
from ..core.kernel import CompletionRecorder, ExactRuntime, run_kernel
from ..core.simulator import default_step_limit  # noqa: F401  (perfbench patches it here)
from ..exceptions import InvalidInstanceError, ServiceError
from ..io.serialization import job_from_dict, job_to_dict
from ..telemetry import get_session
from .admission import AdmissionContext, AdmissionPolicy, get_admission
from .events import ArrivalEvent

__all__ = ["SchedulingService", "ServiceReport", "replay_log"]

_BACKENDS = ("exact", "vector")


class _CompletionLog(CompletionRecorder):
    """A completion recorder that also queues completions not yet logged."""

    __slots__ = ("fresh",)

    def __init__(self) -> None:
        super().__init__()
        self.fresh: list[tuple[int, int, int]] = []

    def on_complete(self, job, t: int) -> None:
        """Record that *job* completed in step *t*, and queue it for the log."""
        self.completion_steps[job] = t
        self.fresh.append((t, job[0], job[1]))


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


@dataclass(frozen=True, slots=True)
class ServiceReport:
    """Steady-state summary of one service run.

    Attributes:
        policy: scheduling policy registry name.
        backend: kernel backend (``"exact"`` / ``"vector"``).
        admission: admission policy description.
        num_queues: logical queues at shutdown.
        final_step: the step the run drained at (0 if nothing ran).
        submitted: arrival events offered to the service.
        admitted: arrivals accepted into the system.
        rejected: arrivals shed by admission control.
        completed: jobs finished by drain time.
        dropped_events: events lost by the engine -- always 0; the
            soak test pins it.
        total_work: processing volume admitted (float).
        utilization: admitted work / (queues x elapsed steps), the
            steady-state busy fraction in ``[0, 1]``.
        latency_percentiles: per-event scheduling-latency seconds at
            p50/p90/p99, plus mean and max.
    """

    policy: str
    backend: str
    admission: str
    num_queues: int
    final_step: int
    submitted: int
    admitted: int
    rejected: int
    completed: int
    dropped_events: int
    total_work: float
    utilization: float
    latency_percentiles: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the ``crsharing serve`` report payload)."""
        return asdict(self)

    def render(self) -> str:
        """Human-readable multi-line report for the CLI."""
        lat = self.latency_percentiles
        lines = [
            f"policy={self.policy} backend={self.backend} "
            f"admission={self.admission}",
            f"queues={self.num_queues} final_step={self.final_step}",
            f"events: submitted={self.submitted} admitted={self.admitted} "
            f"rejected={self.rejected} completed={self.completed} "
            f"dropped={self.dropped_events}",
            f"utilization={self.utilization:.3f} "
            f"(total_work={self.total_work:.2f})",
            "scheduling latency: "
            + " ".join(
                f"{key}={lat.get(key, 0.0) * 1e3:.3f}ms"
                for key in ("p50", "p90", "p99", "max")
            ),
        ]
        return "\n".join(lines)


class SchedulingService:
    """A long-running, event-driven scheduler over the stepping kernel.

    Args:
        policy: scheduling policy registry name (or callable accepted
            by :func:`repro.algorithms.get_policy` names only here --
            the event log must be able to name it).
        backend: ``"vector"`` (default, float64) or ``"exact"``
            (Fraction arithmetic).
        admission: admission policy registry name or
            :class:`~repro.service.admission.AdmissionPolicy` object.
        max_queues: logical queue cap -- the service grows one queue
            per early arrival up to this many "cores", then places on
            the least-loaded queue.

    Raises:
        ServiceError: unknown backend/admission, bad ``max_queues``.
    """

    def __init__(
        self,
        *,
        policy: str = "greedy-balance",
        backend: str = "vector",
        admission: str | AdmissionPolicy = "accept-all",
        max_queues: int = 8,
    ) -> None:
        if backend not in _BACKENDS:
            raise ServiceError(
                f"unknown service backend {backend!r}; "
                f"available: {list(_BACKENDS)}"
            )
        if max_queues < 1:
            raise ServiceError(f"max_queues must be >= 1, got {max_queues}")
        self.policy_name = policy
        self._policy = get_policy(policy)
        self.backend = backend
        self.admission = get_admission(admission)
        self.max_queues = int(max_queues)
        self._runtime = None
        self._recorder = _CompletionLog()
        # Running totals kept by _count: per queue, step prefix sums; per
        # resource, admitted work over _work_den; the latest release.
        self._steps: list[list[int]] = []
        self._work: list[int] = []
        self._work_den = 1
        self._max_release = 0
        self._clock = 0
        self._closed = False
        self._seq = 0
        self._records: list[dict[str, Any]] = []
        self._latencies: list[float] = []
        self.submitted = 0
        self.admitted = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    # Kernel plumbing
    # ------------------------------------------------------------------
    def _new_runtime(self, instance: Instance):
        if self.backend == "exact":
            return ExactRuntime(instance)
        return VectorRuntime(instance)

    def _step_limit(self) -> int:
        """``default_step_limit`` of the live instance, from running totals."""
        bound = -(-max(self._work) // self._work_den)
        return 2 * (self.admitted + bound) + 16 + self._max_release

    def _advance(self, target: int) -> None:
        """Step the live runtime forward to *target* (>= the clock).

        The kernel is entered only when a step can run (not at the
        clock's own step, not on a drained run).
        """
        runtime = self._runtime
        if runtime is not None and target > self._clock:
            finished = runtime.t if runtime.all_done else run_kernel(
                runtime,
                self._policy,
                (self._recorder,),
                max_steps=self._step_limit() + target + 16,
                stop=lambda rt: rt.t >= target,
            )
            if finished is not None and finished < target:
                # Drained before the event: jump the step counter over
                # the idle gap, in which nothing runs (the precondition
                # of KernelCheckpoint.at_step).
                runtime.state.t = target
        self._clock = target
        self._log_new_completions()

    def _log_new_completions(self) -> None:
        fresh = self._recorder.fresh
        for t, i, j in sorted(fresh):
            self._records.append(
                {"type": "completion", "t": t, "queue": i, "index": j}
            )
        fresh.clear()

    # ------------------------------------------------------------------
    # Placement / admission
    # ------------------------------------------------------------------
    def _queue_backlogs(self) -> list[float]:
        """Full-speed steps of unfinished work per queue (see the module docstring)."""
        state = self._runtime.state
        done, remaining = state.done, state.remaining
        if hasattr(done, "tolist"):  # the vector state's arrays
            done, remaining = done.tolist(), remaining.tolist()
        backlogs: list[float] = []
        for sums, queue, d, left in zip(
            self._steps, self._runtime.instance.queues, done, remaining
        ):
            steps = 0.0
            if d < len(sums) - 1:
                bottleneck = float(queue[d].requirement)
                if bottleneck > 0:
                    steps += float(left) / bottleneck
                steps += sums[-1] - sums[d + 1]
            backlogs.append(steps)
        return backlogs

    def _total_backlog(self) -> float:
        """Unfinished processing volume across all queues (a rescan)."""
        if self._runtime is None:
            return 0.0
        state = self._runtime.state
        total = 0.0
        for i, queue in enumerate(self._runtime.instance.queues):
            done = int(state.done[i])
            if done < len(queue):
                total += float(state.remaining[i])
                total += sum(float(job.work) for job in queue[done + 1 :])
        return total

    def _extend(self, job: Job, queue_index: int, at: int) -> None:
        """Grow the live run by *job* on *queue_index* at step *at*."""
        if self._runtime is None:
            # The first arrival starts a fresh run at the arrival step:
            # nothing runs before its queue's release, so the clock
            # skips there as over an idle gap (see _advance).
            self._runtime = self._new_runtime(Instance([[job]], releases=[at]))
            self._runtime.state.t = at
        elif queue_index == self._runtime.instance.num_processors:
            self._runtime.extend(job, queue_index, at)
        else:
            self._runtime.extend(job, queue_index)

    def _count(self, job: Job, queue_index: int, at: int) -> None:
        """Add the admitted *job* to the running totals (rescaled onto a finer grid if needed).

        Called by :meth:`submit`, not :meth:`_extend`, so a subclass
        that grows the run another way keeps the totals.
        """
        p, q = job.size.as_integer_ratio()
        steps = -(-p // q)
        if queue_index == len(self._steps):
            self._steps.append([0, steps])
            self._max_release = max(self._max_release, at)
        else:
            sums = self._steps[queue_index]
            sums.append(sums[-1] + steps)
        ratios = [r.as_integer_ratio() for r in job.requirements]
        den = math.lcm(self._work_den, *(d * q for _, d in ratios))
        up, self._work_den = den // self._work_den, den
        self._work = [
            units * up + n * p * (den // (d * q))
            for units, (n, d) in zip(self._work or [0] * len(ratios), ratios)
        ]

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, event: ArrivalEvent) -> bool:
        """Process one arrival; returns the admission decision.

        Under an installed telemetry session the arrival also records
        per-phase latency histograms (``service.phase.advance`` /
        ``place`` / ``admit``, and ``extend`` for admitted jobs) and
        the ``service.live_jobs`` / ``service.backlog`` gauges (the
        unfinished work the admission policy saw).

        Raises:
            ServiceError: after :meth:`drain` (the engine is closed),
                or when *event* is earlier than an already-processed
                event (the clock never rewinds).
        """
        if self._closed:
            raise ServiceError("service is closed (drain() already ran)")
        if event.time < self._clock:
            raise ServiceError(
                f"event at step {event.time} arrived after the clock "
                f"reached {self._clock}; arrivals must be in order"
            )
        session = get_session()
        started = time.perf_counter()
        self._advance(event.time)
        if session is not None:
            advanced = time.perf_counter()
        # Below the cap the arrival opens a new, empty queue.
        queues = len(self._steps)
        queue_index, queue_backlog = queues, 0.0
        if queues >= self.max_queues:
            backlogs = self._queue_backlogs()
            queue_index = min(range(queues), key=backlogs.__getitem__)
            queue_backlog = backlogs[queue_index]
        ctx = AdmissionContext(
            time=event.time,
            job=event.job,
            queue_index=queue_index,
            queue_backlog=queue_backlog,
            # Summed when read; the gauge below reads it after _extend.
            total_backlog=(
                self._total_backlog if session is None else self._total_backlog()
            ),
            num_processors=queues,
        )
        if session is not None:
            placed = time.perf_counter()
        decision = bool(self.admission.admit(ctx))
        if session is not None:
            decided = time.perf_counter()
        if decision:
            self._extend(event.job, queue_index, event.time)
            self._count(event.job, queue_index, event.time)
            self.admitted += 1
        else:
            self.rejected += 1
        if session is not None:
            extended = time.perf_counter()
        self.submitted += 1
        self._records.append(
            {
                "type": "arrival",
                "seq": self._seq,
                "t": event.time,
                "job": job_to_dict(event.job),
                "admitted": decision,
                "queue": queue_index if decision else None,
            }
        )
        self._seq += 1
        elapsed = time.perf_counter() - started
        self._latencies.append(elapsed)
        if session is not None:
            metrics = session.metrics
            metrics.counter("service.arrivals").inc()
            metrics.counter(
                "service.admitted" if decision else "service.rejected"
            ).inc()
            metrics.histogram("service.latency_seconds").observe(elapsed)
            metrics.histogram("service.phase.advance").observe(advanced - started)
            metrics.histogram("service.phase.place").observe(placed - advanced)
            metrics.histogram("service.phase.admit").observe(decided - placed)
            if decision:
                metrics.histogram("service.phase.extend").observe(
                    extended - decided
                )
            metrics.gauge("service.live_jobs").set(self.admitted - self.completed)
            metrics.gauge("service.backlog").set(ctx.total_backlog)
        return decision

    def drain(self) -> int:
        """Run the admitted workload to completion and close the engine.

        Returns:
            The final step (0 if nothing was ever admitted).  The
            service accepts no further events afterwards.
        """
        if self._closed:
            raise ServiceError("service is closed (drain() already ran)")
        makespan = 0
        if self._runtime is not None:
            finished = run_kernel(
                self._runtime,
                self._policy,
                (self._recorder,),
                max_steps=self._step_limit() + self._clock + 16,
            )
            makespan = finished if finished is not None else self._clock
            self._clock = max(self._clock, makespan)
            self._log_new_completions()
        self._records.append({"type": "drain", "t": self._clock})
        self._closed = True
        session = get_session()
        if session is not None:
            session.metrics.counter("service.completions").inc(self.completed)
        return makespan

    def run_stream(self, stream: Iterable[ArrivalEvent]) -> "ServiceReport":
        """Feed every event of *stream*, drain, and report.

        Under an installed telemetry session the whole run is wrapped
        in a ``service.stream`` span.
        """
        session = get_session()
        if session is None:
            for event in stream:
                self.submit(event)
            self.drain()
            return self.report()
        with session.tracer.span(
            "service.stream", policy=self.policy_name, backend=self.backend
        ) as span:
            for event in stream:
                self.submit(event)
            self.drain()
            report = self.report()
            span.note(
                submitted=report.submitted,
                admitted=report.admitted,
                final_step=report.final_step,
            )
        return report

    @property
    def completed(self) -> int:
        """Jobs finished so far."""
        return len(self._recorder.completion_steps)

    @property
    def clock(self) -> int:
        """The step the kernel state currently sits at."""
        return self._clock

    @property
    def closed(self) -> bool:
        """True once :meth:`drain` has run."""
        return self._closed

    def config(self) -> dict[str, Any]:
        """The replayable engine configuration (event-log header)."""
        return {
            "policy": self.policy_name,
            "backend": self.backend,
            "admission": {
                "name": self.admission.name,
                "options": self.admission.options(),
            },
            "max_queues": self.max_queues,
        }

    @property
    def event_log(self) -> list[dict[str, Any]]:
        """The event records so far (copy; pair with :meth:`config`)."""
        return list(self._records)

    def report(self) -> ServiceReport:
        """Summarize the run (valid mid-stream or after drain).

        ``total_work`` is summed in processor-major order, which keeps
        the float bit-identical to earlier releases; a running total in
        arrival order would round differently.
        """
        total_work = 0.0
        queues = 0
        if self._runtime is not None:
            instance = self._runtime.instance
            total_work = sum(
                float(job.work) for queue in instance.queues for job in queue
            )
            queues = instance.num_processors
        elapsed = max(self._clock, 1)
        utilization = (
            total_work / (queues * elapsed) if queues else 0.0
        )
        ordered = sorted(self._latencies)
        percentiles = {
            "p50": _percentile(ordered, 0.50),
            "p90": _percentile(ordered, 0.90),
            "p99": _percentile(ordered, 0.99),
            "mean": (
                sum(ordered) / len(ordered) if ordered else 0.0
            ),
            "max": ordered[-1] if ordered else 0.0,
        }
        return ServiceReport(
            policy=self.policy_name,
            backend=self.backend,
            admission=self.admission.describe(),
            num_queues=queues,
            final_step=self._clock,
            submitted=self.submitted,
            admitted=self.admitted,
            rejected=self.rejected,
            completed=self.completed,
            dropped_events=0,
            total_work=total_work,
            utilization=min(1.0, utilization),
            latency_percentiles=percentiles,
        )

    @property
    def completion_steps(self) -> dict[tuple[int, int], int]:
        """Completion step per finished ``(queue, index)`` job."""
        return dict(self._recorder.completion_steps)


def replay_log(
    config: dict[str, Any], records: Iterable[dict[str, Any]]
) -> tuple[ServiceReport, SchedulingService]:
    """Deterministically re-run a recorded event log.

    Rebuilds the service from the log's config, re-submits every
    arrival, re-derives every admission decision, and checks each one
    against the recorded decision -- a mismatch means the log and the
    engine disagree and the replay is rejected.  A ``"mode"`` key in
    configs written by older versions is ignored: every mode they
    offered produced the same schedule.

    Returns:
        ``(report, service)`` for the re-run.

    Raises:
        ServiceError: malformed config/records, or an admission
            decision that diverges from the record.
    """
    try:
        admission_doc = config.get("admission", {"name": "accept-all"})
        service = SchedulingService(
            policy=config["policy"],
            backend=config.get("backend", "vector"),
            admission=get_admission(
                admission_doc["name"], **admission_doc.get("options", {})
            ),
            max_queues=config.get("max_queues", 8),
        )
    except (KeyError, TypeError) as exc:
        raise ServiceError(f"malformed event-log config: {exc}") from exc
    try:
        records = iter(records)
    except TypeError as exc:
        raise ServiceError(f"event-log records are not iterable: {exc}") from exc
    for record in records:
        kind = record.get("type") if isinstance(record, dict) else None
        if kind not in ("arrival", "completion", "drain"):
            raise ServiceError(f"event-log record {record!r} has no known type")
        if kind != "arrival":
            continue
        try:
            event = ArrivalEvent(
                time=int(record["t"]), job=job_from_dict(record["job"])
            )
            recorded = bool(record["admitted"])
        except InvalidInstanceError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"malformed arrival record {record!r}: {exc}"
            ) from exc
        decision = service.submit(event)
        if decision != recorded:
            raise ServiceError(
                f"replay diverged at seq {record.get('seq')}: recorded "
                f"admitted={recorded} but the engine decided {decision}"
            )
    service.drain()
    return service.report(), service
