"""Batched vectorized execution: step ``B`` instances per array program.

The vector backend removed the per-*processor* Python loop; this module
removes the per-*instance* one.  Campaign rows, local-search
neighborhoods, and restart candidates all run the same policy over many
(usually similar) instances, yet each kernel run pays the full per-step
NumPy dispatch cost for one ``m``-vector at a time.
:class:`BatchVectorRuntime` instead holds the execution state of ``B``
padded instance *lanes* as ``(B, m)`` / ``(B, k, m)`` float64 arrays
and advances all of them with one shared array program per step:

* batched water-filling (:func:`repro.algorithms.base.water_fill_array_batch`)
  turns each policy's priority order into per-lane grants with one
  flat-index gather (``order + lane * m``) + ``cumsum`` + ``clip``
  and one scatter back;
* completion tests and release unmasking are batched boolean masks;
  successor loading is one flat gather and scatter per field from the
  sentinel-padded job tables (:func:`~repro.backends.vector.job_tables`),
  so a drained queue needs no branch;
* every lane terminates early -- a finished lane's processors hold
  zero remaining work, so it receives all-zero shares and rides along
  masked; once the live fraction of a large batch drops below the
  compaction threshold (default < 50%), the state *compacts* to the
  surviving lanes so long-tail ragged batches stop paying for dead
  ones (``BatchRunResult.compactions`` counts the shrinks);
* completion steps land in one ``(B, m, n + 1)`` array with one
  fancy-index store per step; each lane's record becomes a dict once,
  after the run, and every objective is evaluated once per lane through
  :meth:`~repro.objectives.base.Objective.value_from_completions`, so
  makespan / weighted flow / tardiness come out as length-``B``
  vectors equal to ``B`` separate
  :class:`~repro.backends.vector.VectorBackend` runs.

Policies advertise a batched priority path via
:meth:`repro.algorithms.base.Policy.shares_batch` (every
``WaterFillPolicy`` derives it from its priority key); policies with
only a single-lane ``shares_array`` are stepped lane by lane through
a :class:`_LaneView` adapter -- correct, just without the batched
speedup.  Multi-resource (``k > 1``) batches run the batched
depletion-rounds fill inside the same step.

Bit-consistency: padded processors carry zero jobs, zero remaining
work, and zero requirements, so they contribute exact ``0.0`` terms to
every cumsum and never perturb real grants; all apply arithmetic is
elementwise.  The crosscheck suite (``tests/backends``) pins batched
lanes' makespans and objective values equal (``==``) to per-lane
vector runs, and their makespans to the exact backend's.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from ..core.instance import Instance
from ..exceptions import (
    BackendError,
    InfeasibleAssignmentError,
    SimulationLimitError,
    VectorizationUnsupportedError,
)
from ..telemetry import get_session
from .base import resolve_objectives
from .vector import JobTableState, job_tables

__all__ = [
    "BatchVectorState",
    "BatchVectorRuntime",
    "BatchRunResult",
    "run_batch",
]


class BatchVectorState(JobTableState):
    """Float64 view of ``B`` execution states for ``Policy.shares_batch``.

    The batch analogue of :class:`~repro.backends.vector.VectorState`:
    every per-processor array gains a leading lane axis, padded to the
    batch maxima (``m`` = max processors, ``k`` = max resources,
    ``n`` = max queue length).  Policies must treat every array as
    read-only (the runtime owns the mutation).

    Padding invariants: a padded processor has ``num_jobs == 0``,
    zero remaining work, zero requirements, weight 0, deadline
    ``inf``, and release time 0 -- it is never pending, never active,
    and contributes exact zeros to every reduction.  A padded resource
    row is all zeros.  The job tables end every queue in the sentinel
    column of :func:`~repro.backends.vector.job_tables`.

    Attributes:
        instances: the originating instances, in lane order.
        t: 0-based current step (shared by all lanes).
        num_lanes: ``B``.
        num_processors: the padded processor count ``m``.
        num_resources: the padded resource count ``k``.
        lane_num_processors: per lane, the real processor count.
        lane_num_resources: per lane, the real resource count.
        num_jobs: ``(B, m)`` total job counts.
        done: ``(B, m)`` completed job counts.
        remaining: ``(B, m)`` remaining work of the active jobs.
        active_requirements: ``(B, m)`` bottleneck requirements.
        active_req_matrix: ``(B, k, m)`` per-resource requirements.
        active_weights: ``(B, m)`` objective weights.
        active_deadlines: ``(B, m)`` due steps (``inf`` when absent).
        resource_spent: ``(B, k)`` cumulative resource-time used.
    """

    __slots__ = (
        "instances",
        "t",
        "num_lanes",
        "num_resources",
        "lane_num_processors",
        "lane_num_resources",
        "num_jobs",
        "done",
        "remaining",
        "active_requirements",
        "active_req_matrix",
        "active_weights",
        "active_deadlines",
        "resource_spent",
        "_req",
        "_reqk",
        "_work",
        "_wgt",
        "_dl",
        "_release",
        "_released",
        "_all_released",
    )

    def __init__(self, instances: Sequence[Instance]) -> None:
        if not instances:
            raise BackendError("batch state needs at least one instance")
        self.instances = tuple(instances)
        self.t = 0
        self.num_lanes = len(instances)
        self.num_jobs, self._release, jobs, self._reqk = job_tables(self.instances)
        self.num_resources = max(inst.num_resources for inst in instances)
        self.lane_num_processors = np.array(
            [inst.num_processors for inst in instances], dtype=np.int64
        )
        self.lane_num_resources = np.array(
            [inst.num_resources for inst in instances], dtype=np.int64
        )
        self._start_views(jobs)

    @property
    def lane_done(self) -> np.ndarray:
        """``(B,)`` mask of lanes whose every job has finished."""
        return ~(self.done < self.num_jobs).any(axis=1)

    @property
    def lane_waiting(self) -> np.ndarray:
        """``(B,)`` mask of lanes with unreleased pending processors."""
        if self._all_released:
            return np.zeros(self.num_lanes, dtype=bool)
        return (~self._released & (self.num_jobs > 0)).any(axis=1)

    def compact(self, keep: np.ndarray) -> None:
        """Shrink the batch to the lanes selected by the *keep* mask.

        Dropped lanes must already be finished: a dead lane holds only
        exact zeros (shares, remaining work, requirements), and every
        step operation is elementwise or a lane-row reduction, so
        removing such lanes cannot perturb any surviving lane's
        arithmetic.  Callers own the lane-index bookkeeping (results
        are reported against original lane indices via an origin map).
        """
        idx = np.flatnonzero(keep)
        if not idx.size:
            raise BackendError("compaction must keep at least one lane")
        self.instances = tuple(self.instances[int(b)] for b in idx)
        self.num_lanes = int(idx.size)
        self.lane_num_processors = self.lane_num_processors[idx]
        self.lane_num_resources = self.lane_num_resources[idx]
        self.num_jobs = self.num_jobs[idx]
        self.done = self.done[idx]
        self._req = self._req[idx]
        self._work = self._work[idx]
        self._wgt = self._wgt[idx]
        self._dl = self._dl[idx]
        self._release = self._release[idx]
        self._released = self._released[idx]
        self._all_released = bool(self._released.all())
        self.remaining = self.remaining[idx]
        self.active_requirements = self.active_requirements[idx]
        self.active_weights = self.active_weights[idx]
        self.active_deadlines = self.active_deadlines[idx]
        self.resource_spent = self.resource_spent[idx]
        if self._reqk is None:
            # The k == 1 share-matrix view aliases active_requirements;
            # slicing produced a fresh array, so rebuild the view.
            self.active_req_matrix = self.active_requirements.reshape(
                self.num_lanes, 1, self.num_processors
            )
        else:
            self._reqk = self._reqk[idx]
            self.active_req_matrix = self.active_req_matrix[idx]


class _LaneView:
    """Single-lane, real-size view of a batch state.

    Presents one lane's slices under the
    :class:`~repro.backends.vector.VectorState` read API, so policies
    without a :meth:`~repro.algorithms.base.Policy.shares_batch` path
    run their ordinary ``shares_array`` per lane, bit-identical to a
    standalone vector run (the views expose exactly the real
    ``m_lane`` / ``k_lane`` prefix of each array).
    """

    __slots__ = ("_s", "_b", "_m", "_k")

    def __init__(self, state: BatchVectorState, b: int) -> None:
        self._s = state
        self._b = b
        self._m = int(state.lane_num_processors[b])
        self._k = int(state.lane_num_resources[b])

    @property
    def instance(self) -> Instance:
        """The lane's original :class:`~repro.core.instance.Instance`."""
        return self._s.instances[self._b]

    @property
    def t(self) -> int:
        """The shared step counter."""
        return self._s.t

    @property
    def num_processors(self) -> int:
        """The lane's real processor count ``m``."""
        return self._m

    @property
    def num_resources(self) -> int:
        """The lane's real resource count ``k``."""
        return self._k

    @property
    def num_jobs(self) -> np.ndarray:
        """``(m,)`` per-processor job counts."""
        return self._s.num_jobs[self._b, : self._m]

    @property
    def done(self) -> np.ndarray:
        """``(m,)`` per-processor completed-job counts."""
        return self._s.done[self._b, : self._m]

    @property
    def remaining(self) -> np.ndarray:
        """``(m,)`` remaining work of each active job."""
        return self._s.remaining[self._b, : self._m]

    @property
    def active_requirements(self) -> np.ndarray:
        """``(m,)`` bottleneck requirements of the active jobs."""
        return self._s.active_requirements[self._b, : self._m]

    @property
    def active_req_matrix(self) -> np.ndarray:
        """``(k, m)`` per-resource requirements of the active jobs."""
        if self._k == 1:
            return self.active_requirements.reshape(1, self._m)
        return self._s.active_req_matrix[self._b, : self._k, : self._m]

    @property
    def active_weights(self) -> np.ndarray:
        """``(m,)`` objective weights of the active jobs."""
        return self._s.active_weights[self._b, : self._m]

    @property
    def active_deadlines(self) -> np.ndarray:
        """``(m,)`` due steps of the active jobs (``inf`` if none)."""
        return self._s.active_deadlines[self._b, : self._m]

    @property
    def resource_spent(self) -> np.ndarray:
        """``(k,)`` cumulative resource-time consumed."""
        return self._s.resource_spent[self._b, : self._k]

    @property
    def active_mask(self) -> np.ndarray:
        """``(m,)`` mask of released processors with unfinished jobs."""
        return self._s.active_mask[self._b, : self._m]

    @property
    def pending_mask(self) -> np.ndarray:
        """``(m,)`` mask of processors with unfinished jobs."""
        return self._s.pending_mask[self._b, : self._m]

    @property
    def released_mask(self) -> np.ndarray:
        """``(m,)`` mask of released processors."""
        return self._s.released_mask[self._b, : self._m]

    @property
    def jobs_remaining(self) -> np.ndarray:
        """``(m,)`` remaining job counts."""
        return self._s.jobs_remaining[self._b, : self._m]


@dataclass(slots=True)
class BatchRunResult:
    """Outcome of one batched run.

    Attributes:
        makespans: ``(B,)`` int64 makespans, in lane order.
        objective_values: per requested objective, the length-``B``
            list of lane values (same numbers ``B`` separate
            :class:`~repro.backends.vector.VectorBackend` runs would
            report).
        lanes: ``B``.
        steps: shared steps the batch executed (= the largest lane
            makespan; finished lanes ride along masked).
        lane_steps: sum of per-lane makespans -- the useful work the
            batch amortized its dispatch over.
        wall_seconds: end-to-end wall time of the run.
        batched_policy: True when the policy supplied a
            ``shares_batch`` path; False means lanes were stepped one
            by one through ``shares_array`` (the fallback).
        compactions: how many times the runtime shrank the batch to
            its surviving lanes (ragged batches only; 0 when every
            lane finishes near the same step).
    """

    makespans: np.ndarray
    objective_values: dict[str, list]
    lanes: int
    steps: int
    lane_steps: int
    wall_seconds: float
    batched_policy: bool
    compactions: int = 0


class BatchVectorRuntime:
    """Step ``B`` instances through one policy with shared array programs.

    Args:
        instances: the batch, one lane per instance (ragged batches --
            mixed processor counts, queue lengths, resource counts,
            releases -- are padded; mixed makespans terminate lanes
            early).
        policy: the policy (registry name or object).  Must support
            the vector path; lanes fall back to per-lane
            ``shares_array`` stepping unless it also implements
            ``shares_batch``.
        tol: completion / feasibility tolerance (as
            :class:`~repro.backends.vector.VectorBackend`).
        compact_threshold: live-lane fraction below which a ragged
            batch compacts to its surviving lanes (``None`` or ``0``
            disables compaction).
    """

    def __init__(
        self,
        instances: Sequence[Instance],
        policy,
        *,
        tol: float = 1e-9,
        compact_threshold: float | None = 0.5,
    ) -> None:
        from ..algorithms import resolve_policy  # local: avoid import cycle

        if tol <= 0:
            raise ValueError("tol must be positive")
        policy = resolve_policy(policy)
        if not (
            getattr(policy, "supports_batch", False)
            or getattr(policy, "supports_vector", False)
        ):
            raise VectorizationUnsupportedError(
                f"policy {getattr(policy, 'name', policy)!r} implements "
                "neither shares_batch nor shares_array; use backend='exact'"
            )
        self.policy = policy
        timed = get_session() is not None
        start = perf_counter() if timed else 0.0
        self.state = BatchVectorState(instances)
        #: State-construction seconds, noted on the ``batched.run`` span
        #: (measured only under a telemetry session).
        self.build_s = perf_counter() - start if timed else 0.0
        self.tol = float(tol)
        self.batched_policy = bool(getattr(policy, "supports_batch", False))
        if compact_threshold is not None and not (
            0.0 <= float(compact_threshold) <= 1.0
        ):
            raise ValueError("compact_threshold must be in [0, 1] or None")
        self.compact_threshold = (
            None if compact_threshold is None else float(compact_threshold)
        )

    # ------------------------------------------------------------------
    # Step phases
    # ------------------------------------------------------------------
    def _query(self) -> np.ndarray:
        """One share row per lane, batched or via per-lane fallback."""
        state = self.state
        if self.batched_policy:
            return np.asarray(
                self.policy.shares_batch(state), dtype=np.float64
            )
        if state.num_resources == 1:
            shares = np.zeros(
                (state.num_lanes, state.num_processors), dtype=np.float64
            )
        else:
            shares = np.zeros(
                (
                    state.num_lanes,
                    state.num_resources,
                    state.num_processors,
                ),
                dtype=np.float64,
            )
        lane_done = state.lane_done
        for b in range(state.num_lanes):
            if lane_done[b]:
                continue
            view = _LaneView(state, b)
            row = np.asarray(
                self.policy.shares_array(view), dtype=np.float64
            )
            if state.num_resources == 1:
                shares[b, : view.num_processors] = row
            elif view.num_resources == 1:
                shares[b, 0, : view.num_processors] = row
            else:
                shares[b, : view.num_resources, : view.num_processors] = row
        return shares

    def _check(self, shares: np.ndarray) -> None:
        """Tolerance-aware feasibility check over every lane."""
        state = self.state
        tol = self.tol
        m = state.num_processors
        k = state.num_resources
        expected = (
            (state.num_lanes, m) if k == 1 else (state.num_lanes, k, m)
        )
        if shares.shape != expected:
            raise InfeasibleAssignmentError(
                f"policy returned shape {shares.shape} shares for a "
                f"batch of {state.num_lanes} lanes, {m} processors and "
                f"{k} resource(s) at step {state.t} (expected {expected})"
            )
        # Written as "not inside" so NaN fails the test too.
        lo, hi = shares.min(), shares.max()
        if not (lo >= -tol and hi <= 1.0 + tol):
            raise InfeasibleAssignmentError(
                f"step {state.t}: share outside [0, 1] in batch "
                f"(min={lo}, max={hi})"
            )
        totals = shares.sum(axis=-1)
        worst = float(totals.max())
        if not worst <= 1.0 + tol:
            lane = int(np.argmax(totals.reshape(state.num_lanes, -1).max(axis=1)))
            raise InfeasibleAssignmentError(
                f"step {state.t}: resource overused in lane {lane} "
                f"(sum of shares = {worst} > 1)"
            )

    def _apply(
        self, shares: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every lane one step.

        Returns the completed jobs' flat ``lane * m + i`` slots, their
        job indices, and each lane's total work this step.
        """
        state = self.state
        had_work = state.active_mask
        if state.num_resources == 1:
            work = np.minimum(shares, state.active_requirements)
            np.minimum(work, state.remaining, out=work)
            np.maximum(work, 0.0, out=work)
            state.remaining -= work
            spent = work.sum(axis=1)
            state.resource_spent[:, 0] += spent
        else:
            work = self._multi_work(shares)
            state.remaining -= work
            spent = work.sum(axis=1)
        slots = np.flatnonzero(had_work & (state.remaining <= self.tol))
        jobs = state.advance(slots) if slots.size else slots
        state.t += 1
        return slots, jobs, spent

    def _multi_work(self, shares: np.ndarray) -> np.ndarray:
        """Per-processor work under a ``(B, k, m)`` share tensor.

        The bottleneck rule, elementwise over lanes; single-resource
        lanes in a mixed batch are overridden with the scalar rule so
        every lane stays bit-identical to its standalone vector run.
        """
        state = self.state
        req = state.active_req_matrix  # (B, k, m)
        rstar = state.active_requirements  # (B, m)
        needed = req > 0.0
        ratio = np.divide(
            np.minimum(shares, req),
            req,
            out=np.full_like(req, np.inf),
            where=needed,
        )
        fraction = ratio.min(axis=1)  # (B, m); inf where nothing needed
        positive = rstar > 0.0
        work = np.zeros_like(rstar)
        work[positive] = np.minimum(
            fraction[positive] * rstar[positive], state.remaining[positive]
        )
        np.maximum(work, 0.0, out=work)
        scalar = state.lane_num_resources == 1
        if scalar.any():
            row = np.minimum(shares[:, 0, :], rstar)
            scalar_work = np.minimum(row, state.remaining)
            np.maximum(scalar_work, 0.0, out=scalar_work)
            work[scalar] = scalar_work[scalar]
        progress = np.zeros_like(work)
        progress[positive] = work[positive] / rstar[positive]
        state.resource_spent += (req * progress[:, None, :]).sum(axis=2)
        return work

    # ------------------------------------------------------------------
    # The batched loop
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        objectives: Iterable = (),
        max_steps: int | None = None,
        stall_limit: int = 3,
    ) -> BatchRunResult:
        """Drive every lane to completion and report per-lane results.

        Semantics mirror :func:`repro.core.kernel.run_kernel` per lane:
        per-lane step limits (*max_steps* or each instance's
        :func:`~repro.core.simulator.default_step_limit`), per-lane
        stall detection (*stall_limit* consecutive zero-progress steps
        while not waiting on a release).  Each lane's objectives are
        evaluated once, from its completion steps, when the run ends.

        Under an installed telemetry session the run is wrapped in a
        ``batched.run`` span (with per-step ``batched.step`` records
        when tracing is on) and fills the ``batch.lanes`` gauge plus
        ``batched.steps`` / ``batched.lane_steps`` / ``batched.runs``
        counters.

        Raises:
            SimulationLimitError: when any live lane exceeds its step
                limit or stalls.
            InfeasibleAssignmentError: when the policy emits an
                invalid share row for any lane.
        """
        from ..core.simulator import default_step_limit  # lazy: no cycle

        objectives = resolve_objectives(tuple(objectives))
        state = self.state
        B = state.num_lanes
        m = state.num_processors
        instances = state.instances
        if max_steps is None:
            limits = np.array(
                [default_step_limit(inst) for inst in instances],
                dtype=np.int64,
            )
        else:
            limits = np.full(B, int(max_steps), dtype=np.int64)
        # finish[b, i, j]: 0-based completion step of job j on queue i
        # of original lane b.
        finish = (
            np.zeros(state._work.shape, dtype=np.int64) if objectives else None
        )
        makespans = np.zeros(B, dtype=np.int64)
        jobs_left = state.num_jobs.sum(axis=1)
        stalled = np.zeros(B, dtype=np.int64)
        # Results (makespans, completion steps) are kept against
        # *original* lane indices; the state may compact to its
        # surviving lanes mid-run, so this map tracks where each
        # current lane started.
        origin = np.arange(B, dtype=np.int64)
        threshold = self.compact_threshold
        compactions = 0
        live = jobs_left > 0
        num_live = int(live.sum())
        # No live lane can exceed its step limit before this step.
        limit_floor = int(limits.min())
        tol = self.tol
        t0 = perf_counter()
        session = get_session()
        tracer = session.tracer if session is not None else None
        trace_steps = tracer is not None and tracer.enabled
        steps = 0
        while num_live:
            t = state.t
            if t >= limit_floor:
                over = live & (t >= limits)
                if over.any():
                    lane = int(np.argmax(over))
                    raise SimulationLimitError(
                        f"batched run: lane {int(origin[lane])} did not finish "
                        f"within {int(limits[lane])} steps "
                        f"(done={state.done[lane].tolist()})"
                    )
                limit_floor = int(limits[live].min())
            ts = perf_counter() if trace_steps else 0.0
            state.begin_step()
            shares = self._query()
            self._check(shares)
            slots, jobs, spent = self._apply(shares)
            steps += 1
            stuck = live & (spent <= tol)
            if slots.size:
                lanes, procs = np.divmod(slots, m)
                if finish is not None:
                    finish[origin[lanes], procs, jobs] = t
                jobs_left -= np.bincount(lanes, minlength=state.num_lanes)
                newly_done = live & (jobs_left == 0)
                if newly_done.any():
                    makespans[origin[newly_done]] = t + 1
                    live &= ~newly_done
                    num_live = int(live.sum())
                stuck[lanes] = False  # a completion is progress
            if stuck.any():
                if not state._all_released:
                    stuck &= ~state.lane_waiting
                stalled = np.where(stuck, stalled + 1, 0)
                if (stalled >= stall_limit).any():
                    lane = int(np.argmax(stalled >= stall_limit))
                    raise SimulationLimitError(
                        f"batched run: lane {int(origin[lane])} made no "
                        f"progress for {int(stalled[lane])} consecutive steps "
                        f"(t={state.t}); aborting"
                    )
            else:
                stalled.fill(0)
            if trace_steps:
                tracer.complete(
                    "batched.step",
                    ts,
                    perf_counter() - ts,
                    t=t,
                    live=num_live,
                    completed=int(slots.size),
                )
            if (
                threshold
                and live.size >= 4
                and 0 < num_live < threshold * live.size
            ):
                state.compact(live)
                origin = origin[live]
                limits = limits[live]
                stalled = stalled[live]
                jobs_left = jobs_left[live]
                live = np.ones(state.num_lanes, dtype=bool)
                compactions += 1
        objectives_start = perf_counter() if session is not None else 0.0
        objective_values = {obj.name: [] for obj in objectives}
        if objectives:
            for b, inst in enumerate(instances):
                rows = finish[b].tolist()
                done = {
                    (i, j): t
                    for i, queue in enumerate(inst.queues)
                    for j, t in enumerate(rows[i][: len(queue)])
                }
                makespan = int(makespans[b])
                for obj in objectives:
                    objective_values[obj.name].append(
                        obj.value_from_completions(inst, done, makespan)
                    )
        end = perf_counter()
        wall = end - t0
        result = BatchRunResult(
            makespans=makespans,
            objective_values=objective_values,
            lanes=B,
            steps=steps,
            lane_steps=int(makespans.sum()),
            wall_seconds=wall,
            batched_policy=self.batched_policy,
            compactions=compactions,
        )
        if session is not None:
            self._record_telemetry(
                session, result, start=t0, objective_s=end - objectives_start
            )
        return result

    def _record_telemetry(
        self, session, result: BatchRunResult, *, start: float, objective_s: float
    ) -> None:
        """Emit the batched-run span and metrics.

        The span notes where a run's time goes outside its steps:
        ``build_s`` (state construction, before the run) and
        ``objective_s`` (the once-per-lane objective reductions).
        """
        metrics = session.metrics
        metrics.gauge("batch.lanes").set(result.lanes)
        metrics.counter("batched.runs").inc()
        metrics.counter("batched.steps").inc(result.steps)
        metrics.counter("batched.lane_steps").inc(result.lane_steps)
        if result.compactions:
            metrics.counter("batch.compactions").inc(result.compactions)
        session.tracer.complete(
            "batched.run",
            start,
            result.wall_seconds,
            lanes=result.lanes,
            steps=result.steps,
            lane_steps=result.lane_steps,
            policy=str(getattr(self.policy, "name", "?")),
            m=self.state.num_processors,
            resources=self.state.num_resources,
            batched_policy=result.batched_policy,
            build_s=self.build_s,
            objective_s=objective_s,
        )


def run_batch(
    instances: Sequence[Instance],
    policy,
    *,
    objectives: Iterable = (),
    tol: float = 1e-9,
    max_steps: int | None = None,
    stall_limit: int = 3,
    compact_threshold: float | None = 0.5,
) -> BatchRunResult:
    """Run *policy* over a batch of instances in one shared array program.

    The convenience entry point over :class:`BatchVectorRuntime`: the
    batched counterpart of ``B`` separate
    ``get_backend("vector").run(...)`` calls, returning the same
    makespans and objective values as length-``B`` vectors.

    Example:
        >>> from repro.core import Instance
        >>> batch = [
        ...     Instance.from_percent([[50, 50], [50, 50]]),
        ...     Instance.from_percent([[100], [100], [100]]),
        ... ]
        >>> run_batch(batch, "greedy-balance").makespans.tolist()
        [2, 3]
    """
    runtime = BatchVectorRuntime(
        instances,
        policy,
        tol=tol,
        compact_threshold=compact_threshold,
    )
    return runtime.run(
        objectives=objectives, max_steps=max_steps, stall_limit=stall_limit
    )
