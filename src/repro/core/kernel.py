"""The unified stepping kernel (the one step loop in the codebase).

Before this module existed, the paper's step dynamics (Eq. (1)/(2),
Section 3.1) were implemented three times -- in the exact simulator,
the many-core engine, and the vectorized backend -- and every scenario
or metric had to be added to each copy.  The kernel collapses them:

:func:`run_kernel`
    owns the loop -- stall and step-limit handling, waiting on
    arrival releases, the heartbeat, suspension and observer
    dispatch -- and knows nothing about arithmetic or telemetry.

:class:`KernelRuntime`
    the arithmetic adapter.  :class:`ExactRuntime` (here) drives the
    exact :class:`~repro.core.state.ExecState` in ``Fraction``
    arithmetic; :class:`~repro.backends.vector.VectorRuntime` drives
    the float64 NumPy state.  A runtime translates between the
    policy's native share representation and the shared step
    semantics.  Its :meth:`~KernelRuntime.step` is the loop body --
    release, query, check, apply -- and returns two plain values:
    whether the step progressed and how many jobs it completed.  The
    step's details stay readable on the runtime's :class:`AppliedStep`
    record, which each step overwrites, and its state keeps the run's
    completion record.

:class:`StepObserver`
    the telemetry adapter.  Share recording,
    :class:`~repro.simulation.traces.RunTrace` construction, and
    busy/stall accounting are all observers subscribed to the kernel,
    so new metrics compose instead of being inlined into loop bodies.
    A :class:`StepEvent` is built for a step only when an attached
    observer overrides :meth:`~StepObserver.on_step`.

``simulate``, ``ManyCoreEngine.run``, ``ExactBackend`` and
``VectorBackend`` are thin configurations of this kernel; golden-output
tests pin that release-time-0 instances execute bit-identically to the
pre-kernel implementations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..exceptions import (
    InfeasibleAssignmentError,
    ObserverError,
    SimulationLimitError,
)
from ..telemetry import get_session
from .instance import Instance
from .numerics import ONE, ZERO, format_frac, frac_sum, to_frac
from .state import ExecState, GridState

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..telemetry import TelemetrySession
    from .job import JobId

__all__ = [
    "StepEvent",
    "StepObserver",
    "ShareRecorder",
    "CompletionRecorder",
    "TelemetryObserver",
    "KernelRuntime",
    "ExactRuntime",
    "GridRuntime",
    "check_share_vector",
    "run_kernel",
]

#: Structured stall/heartbeat log channel (see ``run_kernel``).
_KERNEL_LOG = logging.getLogger("repro.kernel")


def check_share_vector(
    instance: Instance, t: int, shares: Sequence[Fraction]
) -> None:
    """Exact feasibility check of one share assignment (Section 3.1).

    This is the over-grant check of every ``Fraction`` layer: the
    simulator, the many-core engine, and the exact backend off the
    grid (:meth:`GridRuntime.check` is its integer mirror).  For
    single-resource instances *shares* is one value per processor; for
    ``k > 1`` it is ``k`` rows (one per resource) and every row is
    checked against that resource's unit capacity.

    Raises:
        InfeasibleAssignmentError: wrong arity, share outside
            ``[0, 1]``, or resource overuse (on any resource).
    """
    if instance.num_resources != 1:
        _check_share_matrix(instance, t, shares)
        return
    _check_share_row(instance, t, shares, resource=None)


def _check_share_row(
    instance: Instance,
    t: int,
    shares: Sequence[Fraction],
    *,
    resource: int | None,
) -> None:
    """Check one per-processor share row against unit capacity."""
    where = "" if resource is None else f" on resource {resource}"
    if len(shares) != instance.num_processors:
        raise InfeasibleAssignmentError(
            f"policy returned {len(shares)} shares for "
            f"{instance.num_processors} processors at step {t}{where}"
        )
    for i, x in enumerate(shares):
        if x < ZERO or x > ONE:
            raise InfeasibleAssignmentError(
                f"step {t}: share {format_frac(x)} for processor "
                f"{i} outside [0, 1]{where}"
            )
    total = frac_sum(shares)
    if total > ONE:
        raise InfeasibleAssignmentError(
            f"step {t}: resource overused{where} "
            f"(sum of shares = {format_frac(total)} > 1)"
        )


def _check_share_matrix(
    instance: Instance, t: int, rows: Sequence[Sequence[Fraction]]
) -> None:
    """Check a ``k x m`` share matrix row by row (capacity 1 each)."""
    k = instance.num_resources
    if len(rows) != k:
        raise InfeasibleAssignmentError(
            f"policy returned {len(rows)} share rows for {k} shared "
            f"resources at step {t} (expected one row per resource)"
        )
    for lane, row in enumerate(rows):
        _check_share_row(instance, t, row, resource=lane)


@dataclass(frozen=True, slots=True)
class StepEvent:
    """One executed kernel step, in the runtime's native arithmetic.

    Built from the runtime's :class:`AppliedStep` only for observers
    that override :meth:`StepObserver.on_step`.

    Attributes:
        t: 0-based index of the step that just executed.
        shares: the share vector the policy produced (``Fraction``
            tuples for the exact runtime, a float64 array for the
            vector runtime).
        processed: work processed per processor this step.
        completed: jobs that finished during this step.
        had_work: per processor, whether it was *active* (released and
            with unfinished jobs) when the step began -- the basis of
            busy/stall accounting.
        progressed: True iff the step completed a job or processed a
            measurable amount of work (the runtime's tolerance
            decides "measurable").
    """

    t: int
    shares: Sequence[Any]
    processed: Sequence[Any]
    completed: tuple["JobId", ...]
    had_work: Sequence[Any]
    progressed: bool


class StepObserver:
    """Composable telemetry hook; all callbacks default to no-ops.

    Observers receive every executed step (:meth:`on_step`), every job
    completion (:meth:`on_complete`, called once per finished job after
    the step's :meth:`on_step`), and the final makespan
    (:meth:`on_finish`).  They must not mutate the runtime state.

    The kernel calls only the callbacks an observer's class overrides:
    a :class:`StepEvent` is built for a step only when some attached
    observer overrides :meth:`on_step`, and :meth:`on_complete` is
    called only on observers that override it, with the jobs read off
    the runtime's completion record.  A duck-typed observer (an object
    with these methods whose class is not a subclass) receives every
    callback.  Runs that only need completion steps attach no observer
    and read the record instead (``completion_steps()`` on the
    runtime's state).

    Example:
        >>> from repro.core import Instance
        >>> from repro.algorithms import GreedyBalance
        >>> class StepCounter(StepObserver):
        ...     steps = 0
        ...     def on_step(self, event):
        ...         self.steps += 1
        >>> counter = StepCounter()
        >>> inst = Instance.from_percent([[50, 50], [50, 50]])
        >>> run_kernel(ExactRuntime(inst), GreedyBalance(), [counter])
        2
        >>> counter.steps
        2
    """

    def on_step(self, event: StepEvent) -> None:
        """Called after every executed step."""

    def on_complete(self, job: "JobId", t: int) -> None:
        """Called once per job completion (after that step's on_step)."""

    def on_finish(self, makespan: int) -> None:
        """Called once, after the last step."""

    def capture_state(self) -> dict | None:
        """JSON-serializable observer state for checkpointing.

        ``None`` (the default) marks the observer as stateless: the
        checkpoint layer (:mod:`repro.core.checkpoint`) records nothing
        and :meth:`restore_state` is never called for it on resume.
        Stateful observers return a plain-data dict instead and accept
        the same dict back.
        """
        return None

    def restore_state(self, state: dict) -> None:
        """Restore observer state from a :meth:`capture_state` dict.

        Only called with a non-``None`` captured state; the default
        (stateless) observer rejects any payload, because receiving one
        means the checkpoint was taken from a different observer.
        """
        raise NotImplementedError(
            f"{type(self).__name__} is stateless but a checkpoint "
            "carries state for it"
        )


class ShareRecorder(StepObserver):
    """Record per-step share and progress rows (memory permitting).

    Mutable rows (NumPy arrays) are copied at record time, so a policy
    that reuses an output buffer cannot retroactively corrupt earlier
    rows; immutable rows (the exact runtime's tuples) are stored as-is.
    """

    __slots__ = ("shares", "processed")

    def __init__(self) -> None:
        self.shares: list[Sequence[Any]] = []
        self.processed: list[Sequence[Any]] = []

    @staticmethod
    def _freeze(row: Sequence[Any]) -> Sequence[Any]:
        if type(row) is tuple:
            return row
        copy = getattr(row, "copy", None)
        return copy() if copy is not None else row

    def on_step(self, event: StepEvent) -> None:
        """Record the step's share and progress rows."""
        self.shares.append(self._freeze(event.shares))
        self.processed.append(self._freeze(event.processed))


class CompletionRecorder(StepObserver):
    """Record the 0-based completion step of every job."""

    __slots__ = ("completion_steps",)

    def __init__(self) -> None:
        self.completion_steps: dict["JobId", int] = {}

    def on_complete(self, job: "JobId", t: int) -> None:
        """Record that *job* completed in step *t*."""
        self.completion_steps[job] = t

    def capture_state(self) -> dict:
        """Completion table as plain data (``[[i, j, t], ...]``)."""
        return {
            "completions": [
                [i, j, t] for (i, j), t in self.completion_steps.items()
            ]
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild the completion table from a captured payload."""
        self.completion_steps = {
            (int(i), int(j)): int(t) for i, j, t in state["completions"]
        }


class AppliedStep:
    """The step a runtime applied last: one record per runtime.

    :meth:`KernelRuntime.apply` overwrites and returns it, so a kernel
    step builds no object; read it before the next step.  Runtimes
    subclass it to add ``processed``, ``had_work`` and ``completed``
    (the fields of :class:`StepEvent`) in their own arithmetic.

    Attributes:
        t: 0-based index of the step.
        shares: the share vector (or matrix) the step applied.
        progressed: True iff the step completed a job or processed a
            measurable amount of work.
        count: the number of jobs the step completed.
    """

    __slots__ = ("t", "shares", "progressed", "count")

    def event(self) -> StepEvent:
        """The step as a frozen :class:`StepEvent` (for ``on_step``)."""
        return StepEvent(
            t=self.t,
            shares=self.shares,
            processed=self.processed,
            completed=self.completed,
            had_work=self.had_work,
            progressed=self.progressed,
        )


class _ExactStep(AppliedStep):
    """:class:`AppliedStep` of :class:`ExactRuntime` (and the grid)."""

    __slots__ = ("active", "work", "_state")

    def __init__(self, state: ExecState) -> None:
        self._state = state

    @property
    def processed(self) -> tuple:
        """Work processed per processor."""
        return tuple(self.work)

    @property
    def had_work(self) -> tuple[bool, ...]:
        """Per processor, whether it was active when the step began."""
        return tuple([j is not None for j in self.active])

    @property
    def completed(self) -> tuple["JobId", ...]:
        """Jobs that finished in the step, read off the completion record."""
        record = self._state.completions
        return tuple(job for job, _ in record[len(record) - self.count :])


class KernelRuntime:
    """Arithmetic adapter contract consumed by :func:`run_kernel`.

    A runtime owns the mutable execution state and translates the
    shared loop skeleton into one arithmetic model:

    * :attr:`t` / :attr:`all_done` / :attr:`waiting` expose progress;
    * :meth:`step` executes one step: :meth:`begin_step` activates
      processors whose release time has arrived (a no-op for the
      static model), :meth:`query` asks the policy for shares in
      native form, :meth:`check` raises
      :class:`~repro.exceptions.InfeasibleAssignmentError` on invalid
      shares (within the runtime's tolerance), and :meth:`apply`
      advances the state and overwrites :attr:`last`;
    * :attr:`last` is the runtime's :class:`AppliedStep` record.
    """

    instance: Instance
    last: AppliedStep

    @property
    def t(self) -> int:
        """0-based index of the next step to execute."""
        raise NotImplementedError

    @property
    def all_done(self) -> bool:
        """True once every job on every processor has finished."""
        raise NotImplementedError

    @property
    def waiting(self) -> bool:
        """True iff some pending processor has not been released yet.

        Zero-progress steps are then legitimate waiting, not a stalled
        policy.
        """
        raise NotImplementedError

    def begin_step(self) -> None:
        """Activate processors whose release time has arrived."""

    def query(self, policy) -> Sequence[Any]:
        """Ask *policy* for shares in the runtime's native form."""
        raise NotImplementedError

    def check(self, shares: Sequence[Any]) -> None:
        """Validate one share assignment (raise on infeasibility)."""
        raise NotImplementedError

    def apply(self, shares: Sequence[Any]) -> AppliedStep:
        """Advance the state one step; return :attr:`last`, overwritten."""
        raise NotImplementedError

    def event(self) -> StepEvent:
        """The last step as a :class:`StepEvent` (for ``on_step`` observers)."""
        return self.last.event()

    def step(self, policy) -> tuple[bool, int]:
        """Execute one step of *policy*: release, query, check, apply.

        Returns:
            ``(progressed, completed)``: whether the step completed a
            job or processed measurable work, and how many jobs it
            completed.  :attr:`last` holds the rest.
        """
        self.begin_step()
        shares = self.query(policy)
        self.check(shares)
        applied = self.apply(shares)
        return applied.progressed, applied.count

    def describe_progress(self) -> str:
        """Short state description used in limit-error messages."""
        return ""


class ExactRuntime(KernelRuntime):
    """Exact ``Fraction`` arithmetic over :class:`ExecState`.

    The reference runtime; bit-identical to the pre-kernel simulator.
    """

    #: Checkpoint backend tag (see :mod:`repro.core.checkpoint`).
    kind = "exact"

    __slots__ = ("instance", "state", "last", "_m", "_k")

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.state = ExecState(instance)
        self.last = _ExactStep(self.state)
        self._m = instance.num_processors
        self._k = instance.num_resources

    @property
    def t(self) -> int:
        """0-based index of the next step to execute."""
        return self.state.t

    @property
    def all_done(self) -> bool:
        """True once every job on every processor has finished."""
        return self.state.all_done

    @property
    def waiting(self) -> bool:
        """True while unreleased processors still hold pending jobs."""
        return self.state.waiting

    def query(self, policy) -> tuple[Fraction, ...]:
        """Ask *policy* for exact shares (a vector, or ``k`` rows)."""
        raw = policy(self.state)
        if self._k == 1:
            return tuple(to_frac(x) for x in raw)
        try:
            return tuple(tuple(to_frac(x) for x in row) for row in raw)
        except TypeError:
            raise InfeasibleAssignmentError(
                f"policy returned a flat share vector for an instance "
                f"with {self._k} shared resources at step {self.state.t}; "
                "expected one share row per resource"
            ) from None

    def check(self, shares: Sequence[Fraction]) -> None:
        """Exact feasibility check via :func:`check_share_vector`."""
        check_share_vector(self.instance, self.state.t, shares)

    def apply(self, shares: Sequence[Fraction]) -> AppliedStep:
        """Advance :class:`ExecState` one step; return :attr:`last`."""
        last = self.last
        last.t = self.state.t
        last.shares = shares
        last.active, last.work, last.count, last.progressed = self.state.execute(shares)
        return last

    def describe_progress(self) -> str:
        """Completed-job counts, for limit-error messages."""
        return f"done={self.state.done}"

    def capture(self) -> dict:
        """Serializable snapshot of the runtime's mutable state."""
        return self.state.capture()

    def restore(self, data: dict) -> None:
        """Overwrite the runtime's state from a :meth:`capture` payload."""
        self.state.restore(data)

    def extend(self, job, processor: int, release: int | None = None) -> None:
        """Append *job* to queue *processor* (``== m`` opens a new queue).

        Grows the run in place instead of rebuilding its state; see
        :meth:`Instance.append_job` for the arguments and
        :meth:`ExecState.extend` for the resulting state.
        """
        instance = self.instance.append_job(job, processor, release=release)
        self.state.extend(instance, processor)
        self.instance = instance
        self._m = instance.num_processors


class GridRuntime(ExactRuntime):
    """:class:`ExactRuntime` over a :class:`~repro.core.state.GridState`.

    Shares are ints in units of ``1/D``; no checkpoints (``kind`` is None).
    The runtime keeps every share row the policy returned, in step order,
    in :attr:`rows`: the input of a replay or a ``Schedule``, with no
    observer attached.
    """

    kind = None

    __slots__ = ("rows",)

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.state = GridState(instance)
        self.last = _ExactStep(self.state)
        self.rows: list[tuple[int, ...]] = []
        self._m = instance.num_processors
        self._k = 1

    def query(self, policy) -> tuple[int, ...]:
        """Ask *policy* for its share vector in grid units; keep it in :attr:`rows`."""
        shares = tuple(policy(self.state))
        self.rows.append(shares)
        return shares

    def check(self, shares: Sequence[int]) -> None:
        """The integer mirror of :func:`check_share_vector`."""
        t, capacity = self.state.t, self.state.capacity
        if len(shares) != self._m:
            raise InfeasibleAssignmentError(
                f"policy returned {len(shares)} shares for {self._m} processors at step {t}"
            )
        for i, x in enumerate(shares):
            if type(x) is not int or not 0 <= x <= capacity:
                raise InfeasibleAssignmentError(
                    f"step {t}: share {x!r} for processor {i} is not a whole number of 1/{capacity} units in [0, 1]"
                )
        if sum(shares) > capacity:
            raise InfeasibleAssignmentError(
                f"step {t}: resource overused (sum of shares = {sum(shares)}/{capacity} > 1)"
            )


class TelemetryObserver(StepObserver):
    """Kernel step metrics for one run (auto-attached under telemetry).

    Records the run-level figures every future perf PR regressions
    against: a ``kernel.steps`` counter, ``kernel.completions``, a
    ``kernel.job_wait_steps`` histogram (completion step minus the
    processor's release -- the queue-wait distribution), and on finish
    the run wall time (``kernel.run_seconds`` histogram, the
    denominator of hot-spot attribution) plus a
    ``kernel.steps_per_second`` gauge.

    Args:
        session: the telemetry session receiving the metrics.
        instance: the instance the run executes (for release times).
    """

    __slots__ = ("_steps", "_completions", "_waits", "_runs", "_sps", "_run_hist", "_releases", "_t0")

    def __init__(self, session: "TelemetrySession", instance: Instance) -> None:
        metrics = session.metrics
        self._steps = metrics.counter("kernel.steps")
        self._completions = metrics.counter("kernel.completions")
        self._waits = metrics.histogram("kernel.job_wait_steps")
        self._run_hist = metrics.histogram("kernel.run_seconds")
        self._runs = metrics.counter("kernel.runs")
        self._sps = metrics.gauge("kernel.steps_per_second")
        self._releases = instance.releases
        self._t0 = perf_counter()

    def on_step(self, event: StepEvent) -> None:
        """Count the executed step."""
        self._steps.inc()

    def on_complete(self, job: "JobId", t: int) -> None:
        """Count the completion and record its queue wait."""
        self._completions.inc()
        self._waits.observe(t + 1 - self._releases[job[0]])

    def on_finish(self, makespan: int) -> None:
        """Record run wall time and throughput."""
        wall = perf_counter() - self._t0
        self._run_hist.observe(wall)
        self._runs.inc()
        if wall > 0:
            self._sps.set(makespan / wall)


class _TimedObserver(StepObserver):
    """Time one observer's callbacks into the observers histogram.

    Wrapping each observer separately (instead of timing the dispatch
    loop once) keeps the attribution honest when observers are nested
    or added by different layers; ``wrapped`` exposes the original for
    error reporting.
    """

    __slots__ = ("wrapped", "_hist")

    def __init__(self, observer: StepObserver, hist) -> None:
        self.wrapped = observer
        self._hist = hist

    def on_step(self, event: StepEvent) -> None:
        """Forward and time the step callback."""
        t0 = perf_counter()
        self.wrapped.on_step(event)
        self._hist.observe(perf_counter() - t0)

    def on_complete(self, job: "JobId", t: int) -> None:
        """Forward and time the completion callback."""
        t0 = perf_counter()
        self.wrapped.on_complete(job, t)
        self._hist.observe(perf_counter() - t0)

    def on_finish(self, makespan: int) -> None:
        """Forward and time the finish callback."""
        t0 = perf_counter()
        self.wrapped.on_finish(makespan)
        self._hist.observe(perf_counter() - t0)


class _InstrumentedRuntime(KernelRuntime):
    """Phase-timing proxy around a runtime (installed-session runs).

    Pure delegation plus two ``perf_counter`` reads per phase: query,
    check, and apply land in per-phase metrics histograms (query
    labelled by policy -- the per-policy query-latency series) and,
    when the tracer is live, per-step ``kernel.step.*`` span records.
    Building a step's :class:`StepEvent` counts as observer time.
    The proxy never touches shares or state, so instrumented runs stay
    bit-identical (the golden-with-tracing suite pins this).
    """

    __slots__ = ("instance", "_rt", "_tracer", "_trace_steps", "_q", "_c", "_a", "_o")

    def __init__(self, runtime: KernelRuntime, session: "TelemetrySession", policy_label: str) -> None:
        self._rt = runtime
        self.instance = runtime.instance
        self._tracer = session.tracer
        self._trace_steps = session.tracer.enabled
        metrics = session.metrics
        self._q = metrics.histogram("kernel.query_seconds", policy=policy_label)
        self._c = metrics.histogram("kernel.check_seconds")
        self._a = metrics.histogram("kernel.apply_seconds")
        self._o = metrics.histogram("kernel.observers_seconds")

    @property
    def t(self) -> int:
        """Delegate to the wrapped runtime."""
        return self._rt.t

    @property
    def all_done(self) -> bool:
        """Delegate to the wrapped runtime."""
        return self._rt.all_done

    @property
    def waiting(self) -> bool:
        """Delegate to the wrapped runtime."""
        return self._rt.waiting

    @property
    def last(self) -> AppliedStep:
        """Delegate to the wrapped runtime."""
        return self._rt.last

    def begin_step(self) -> None:
        """Delegate to the wrapped runtime."""
        self._rt.begin_step()

    def query(self, policy) -> Sequence[Any]:
        """Time the policy query into metrics (and the tracer)."""
        t0 = perf_counter()
        shares = self._rt.query(policy)
        dt = perf_counter() - t0
        self._q.observe(dt)
        if self._trace_steps:
            self._tracer.complete("kernel.step.query", t0, dt, t=self._rt.t)
        return shares

    def check(self, shares: Sequence[Any]) -> None:
        """Time the feasibility check into metrics (and the tracer)."""
        t0 = perf_counter()
        self._rt.check(shares)
        dt = perf_counter() - t0
        self._c.observe(dt)
        if self._trace_steps:
            self._tracer.complete("kernel.step.check", t0, dt, t=self._rt.t)

    def apply(self, shares: Sequence[Any]) -> AppliedStep:
        """Time the state advance into metrics (and the tracer)."""
        t0 = perf_counter()
        applied = self._rt.apply(shares)
        dt = perf_counter() - t0
        self._a.observe(dt)
        if self._trace_steps:
            self._tracer.complete(
                "kernel.step.apply",
                t0,
                dt,
                t=applied.t,
                completed=applied.count,
            )
        return applied

    def event(self) -> StepEvent:
        """Time building the step's event into the observers histogram."""
        t0 = perf_counter()
        event = self._rt.event()
        self._o.observe(perf_counter() - t0)
        return event

    def describe_progress(self) -> str:
        """Delegate to the wrapped runtime."""
        return self._rt.describe_progress()


def _log_heartbeat(runtime: KernelRuntime, waited: int, label: str) -> None:
    """Structured stall warning: the run is alive but waiting."""
    detail = runtime.describe_progress()
    _KERNEL_LOG.warning(
        "%s waiting on releases: %d consecutive zero-progress steps at "
        "t=%d%s",
        label,
        waited,
        runtime.t,
        f" ({detail})" if detail else "",
    )


def _subscribers(observers, wrap=None) -> tuple[tuple, tuple, tuple]:
    """The observers overriding ``on_step``, ``on_complete`` and ``on_finish``.

    An observer subscribes to each callback its class overrides; a
    duck-typed observer's class inherits no no-op, so it receives every
    callback (one it lacks fails as an :class:`ObserverError`).  Each
    is passed through *wrap* (once per observer) when given.
    """
    stepped, completing, finishing = [], [], []
    for observer in observers:
        used = observer if wrap is None else wrap(observer)
        if _overrides(observer, "on_step"):
            stepped.append(used)
        if _overrides(observer, "on_complete"):
            completing.append(used)
        if _overrides(observer, "on_finish"):
            finishing.append(used)
    return tuple(stepped), tuple(completing), tuple(finishing)


def _overrides(observer, name: str) -> bool:
    """True iff *observer*'s class does not inherit :class:`StepObserver`'s no-op *name*."""
    return getattr(type(observer), name, None) is not getattr(StepObserver, name)


def _kernel_loop(
    runtime: KernelRuntime,
    policy,
    subscribers: tuple[tuple, tuple, tuple],
    limit: int,
    stall_limit: int,
    label: str,
    heartbeat_interval: int | None,
    heartbeat,
    stop=None,
) -> int | None:
    """The one step loop (shared by the plain and instrumented paths)."""
    stepped, completing, finishing = subscribers
    stalled = 0
    waited = 0
    while not runtime.all_done:
        if stop is not None and stop(runtime):
            # Suspended at an event boundary: the state is consistent
            # (no partial step), on_finish is NOT dispatched, and the
            # run can be continued bit-identically (checkpoint layer).
            return None
        if runtime.t >= limit:
            detail = runtime.describe_progress()
            raise SimulationLimitError(
                f"{label} did not finish within {limit} steps"
                + (f" ({detail})" if detail else "")
            )
        progressed, completed = runtime.step(policy)
        if stepped or (completed and completing):
            applied = runtime.last
            observer: StepObserver | None = None
            try:
                if stepped:
                    event = runtime.event()
                    for observer in stepped:
                        observer.on_step(event)
                if completed and completing:
                    t = applied.t
                    for job in applied.completed:
                        for observer in completing:
                            observer.on_complete(job, t)
            except Exception as exc:
                raise _observer_error(observer, f"step {applied.t}", exc) from exc
        if progressed:
            stalled = 0
            waited = 0
        elif runtime.waiting:
            # Legitimate waiting on a future release -- not a stall,
            # but not silent either: emit a structured heartbeat so a
            # long wait (or a release-time bug) is visible.
            stalled = 0
            waited += 1
            if heartbeat_interval and waited % heartbeat_interval == 0:
                heartbeat(runtime, waited, label)
        else:
            stalled += 1
            if stalled >= stall_limit:
                raise SimulationLimitError(
                    f"{label} made no progress for {stalled} consecutive "
                    f"steps (t={runtime.t}); aborting"
                )

    makespan = runtime.t
    observer = None
    try:
        for observer in finishing:
            observer.on_finish(makespan)
    except Exception as exc:
        raise _observer_error(
            observer, f"finish (makespan={makespan})", exc
        ) from exc
    return makespan


def _observer_error(
    observer: StepObserver | None, where: str, exc: Exception
) -> ObserverError:
    """Build the :class:`ObserverError` for one failed callback."""
    target = getattr(observer, "wrapped", observer)
    name = type(target).__name__ if target is not None else "<none>"
    return ObserverError(
        f"observer {name} raised {type(exc).__name__} at {where}: {exc}"
    )


def run_kernel(
    runtime: KernelRuntime,
    policy,
    observers: Iterable[StepObserver] = (),
    *,
    max_steps: int | None = None,
    stall_limit: int = 3,
    label: str = "policy",
    heartbeat_interval: int | None = 64,
    stop=None,
) -> int | None:
    """Drive *policy* through *runtime* until every job is finished.

    Args:
        runtime: the arithmetic adapter owning the execution state.
        policy: the resource-assignment policy (queried via
            ``runtime.query``, so exact runtimes call ``policy(state)``
            and the vector runtime calls ``policy.shares_array``).
        observers: telemetry hooks, notified in the given order, each
            only through the callbacks it overrides (see
            :class:`StepObserver`).  An exception escaping an observer
            callback is re-raised as
            :class:`~repro.exceptions.ObserverError` (original
            chained); the step it interrupted has already fully
            applied, so the runtime state stays consistent.
        max_steps: hard safety limit (default
            :func:`~repro.core.simulator.default_step_limit` of the
            runtime's instance, which accounts for release times).
        stall_limit: abort after this many *consecutive* steps with no
            progress while no processor is waiting on a release -- the
            signature of a policy that will never terminate.
        label: subject of error messages ("policy", "workload").
        heartbeat_interval: while the run is legitimately *waiting*
            (zero progress, unreleased processors pending), emit a
            structured warning on the ``repro.kernel`` logger -- plus a
            ``kernel.heartbeat`` trace event under telemetry -- every
            this-many waiting steps, so stalls are never silent.
            ``None``/``0`` disables the heartbeat.
        stop: optional suspension predicate ``stop(runtime) -> bool``,
            evaluated before each step.  When it returns True the loop
            returns ``None`` *without* dispatching ``on_finish`` -- the
            runtime sits at a clean step boundary and can be resumed
            (same runtime, or a checkpoint restored through
            :mod:`repro.core.checkpoint`) by calling :func:`run_kernel`
            again; the continued run is bit-identical to an
            uninterrupted one.  The event engine of
            :mod:`repro.service` advances to each arrival this way.

    When a :class:`~repro.telemetry.TelemetrySession` is installed
    (:func:`repro.telemetry.use_session`), the run is instrumented: a
    ``kernel.run`` span wraps the loop, every step phase
    (query/check/apply/observers) is timed into metrics histograms
    (query latency labelled per policy), and a
    :class:`TelemetryObserver` records steps, completions, queue waits
    and throughput.  With no session installed the loop runs
    uninstrumented -- telemetry costs one global read per run
    (``benchmarks/bench_telemetry_overhead.py`` gates the disabled
    path at <= 2% overhead).  Instrumentation never alters arithmetic
    or control flow: traced runs are bit-identical to untraced ones.

    Returns:
        The makespan (number of executed steps).

    Raises:
        InfeasibleAssignmentError: if the policy emits an invalid
            share vector (via ``runtime.check``).
        SimulationLimitError: if a limit is exceeded.
        ObserverError: if an observer callback raises.

    Example:
        >>> from repro.core import Instance
        >>> from repro.algorithms import RoundRobin
        >>> inst = Instance.from_percent([[100], [100]])
        >>> run_kernel(ExactRuntime(inst), RoundRobin())
        2
    """
    if max_steps is None:
        from .simulator import default_step_limit  # circular-free: lazy

        limit = default_step_limit(runtime.instance)
    else:
        limit = max_steps
    session = get_session()
    if session is None:
        # The zero-cost path: no per-step telemetry work at all.
        return _kernel_loop(
            runtime,
            policy,
            _subscribers(observers),
            limit,
            stall_limit,
            label,
            heartbeat_interval,
            _log_heartbeat,
            stop,
        )

    tracer = session.tracer
    metrics = session.metrics
    policy_label = str(getattr(policy, "name", type(policy).__name__))
    obs_hist = metrics.histogram("kernel.observers_seconds")
    instrumented = _InstrumentedRuntime(runtime, session, policy_label)
    subscribers = _subscribers(
        (*observers, TelemetryObserver(session, runtime.instance)),
        lambda obs: _TimedObserver(obs, obs_hist),
    )

    def _heartbeat(rt: KernelRuntime, waited: int, lbl: str) -> None:
        _log_heartbeat(rt, waited, lbl)
        tracer.event(
            "kernel.heartbeat",
            t=rt.t,
            waited=waited,
            label=lbl,
            detail=rt.describe_progress(),
        )
        metrics.counter("kernel.heartbeats").inc()

    with tracer.span(
        "kernel.run",
        label=label,
        policy=policy_label,
        runtime=type(runtime).__name__,
        m=runtime.instance.num_processors,
        jobs=runtime.instance.total_jobs,
        resources=runtime.instance.num_resources,
    ) as span:
        makespan = _kernel_loop(
            instrumented,
            policy,
            subscribers,
            limit,
            stall_limit,
            label,
            heartbeat_interval,
            _heartbeat,
            stop,
        )
        span.note(
            makespan=makespan,
            **({} if makespan is not None else {"suspended_at": runtime.t}),
        )
    return makespan
