"""Vectorized float64 backend (NumPy).

The exact simulator pays for its correctness guarantees with
``Fraction`` arithmetic: every share, comparison, and subtraction
allocates and normalizes big-int pairs, which caps throughput far
below what large-``m`` campaigns need.  This backend implements the
*same* step semantics (Section 3.1 / Eq. (1)-(2)) on flat NumPy
arrays, as a :class:`VectorRuntime` plugged into the unified stepping
kernel (:func:`repro.core.kernel.run_kernel`):

* remaining work, active-job requirements, and share vectors are
  float64 arrays of length ``m``;
* water-filling policies produce a whole share vector with one
  ``argsort`` + ``cumsum`` + ``clip`` (no Python loop over
  processors, see :func:`repro.algorithms.base.water_fill_array`);
* completion tests are *tolerance-aware*: a job finishes when its
  remaining work drops to ``<= tol`` (default ``1e-9``), absorbing
  float rounding without changing which step a job completes in for
  any instance whose requirement grid is coarser than the tolerance;
* processors with non-zero release times stay masked (zero remaining
  work and requirement) until their release step, so water-filling
  policies skip them for free.

The float path is validated, not trusted: the cross-validation suite
(``tests/backends``) checks makespan and per-step shares against
:class:`~repro.backends.exact.ExactBackend` on hundreds of random
instances (static and arrival), and
:func:`repro.analysis.verification.verify_share_rows` re-executes
float rows independently with the same tolerance.
"""

from __future__ import annotations

import numpy as np

from ..core.instance import Instance
from ..core.kernel import (
    CompletionRecorder,
    KernelRuntime,
    ShareRecorder,
    StepEvent,
    run_kernel,
)
from ..exceptions import (
    CheckpointError,
    InfeasibleAssignmentError,
    VectorizationUnsupportedError,
)
from .base import Backend, BackendResult, backend_run_span, resolve_objectives

__all__ = ["VectorState", "VectorRuntime", "VectorBackend"]


class JobTableState:
    """Array operations shared by the two float64 states.

    :class:`VectorState` and
    :class:`~repro.backends.batched.BatchVectorState` hold their jobs
    in the one table layout of :func:`job_tables` (a single state is
    the ``B == 1`` case) and keep per-processor arrays shaped like
    ``num_jobs``: ``(m,)`` for one lane, ``(B, m)`` for a batch,
    indexed in flat C order (slot ``lane * m + i``).
    """

    __slots__ = ()

    def _start_views(self, jobs: np.ndarray) -> None:
        """Give a fresh state its tables, counters and first jobs' active views.

        *jobs* is the requirement / work / weight / deadline block of
        :func:`job_tables` for this state's lanes.  Processors not
        released at step 0 stay masked -- the empty job's zeros and
        ``inf`` deadline -- until :meth:`begin_step` unmasks them.
        """
        shape = self.num_jobs.shape
        lead, m, k = shape[:-1], shape[-1], self.num_resources
        self._req, self._work, self._wgt, self._dl = jobs
        released = self._released = self._release <= 0
        self._all_released = bool(released.all())
        self.done = np.zeros(shape, dtype=np.int64)
        self.resource_spent = np.zeros(lead + (k,))
        # The last column is a sentinel on every queue: the empty job.
        (
            self.active_requirements,
            self.remaining,
            self.active_weights,
            self.active_deadlines,
        ) = np.where(released, jobs[..., 0], jobs[..., -1])
        self.active_req_matrix = (
            self.active_requirements.reshape(lead + (1, m))  # k == 1: the same array
            if self._reqk is None
            else np.where(released[..., None, :], self._reqk[..., 0], 0.0)
        )

    def _load_jobs(self, slots: np.ndarray, columns: np.ndarray) -> None:
        """Load job ``columns[s]`` of each slot into the active views.

        One gather and one scatter per field: a *columns* entry equal
        to the queue length loads the sentinel's empty job.
        """
        width = self._work.shape[-1]
        at = slots * width + columns
        self.remaining.put(slots, self._work.take(at))
        self.active_requirements.put(slots, self._req.take(at))
        self.active_weights.put(slots, self._wgt.take(at))
        self.active_deadlines.put(slots, self._dl.take(at))
        if self._reqk is not None:
            k, m = self.active_req_matrix.shape[-2:]
            lane, i = np.divmod(slots, m)
            rows = (lane * (k * m) + i)[:, None] + np.arange(0, k * m, m)
            self.active_req_matrix.put(rows, self._reqk.take(rows * width + columns[:, None]))

    @property
    def num_processors(self) -> int:
        """``m`` -- the number of (padded) processors."""
        return int(self.num_jobs.shape[-1])

    @property
    def active_mask(self) -> np.ndarray:
        """Mask of released processors with unfinished jobs."""
        if self._all_released:
            return self.done < self.num_jobs
        return self._released & (self.done < self.num_jobs)

    @property
    def pending_mask(self) -> np.ndarray:
        """Mask of processors with unfinished jobs.

        Released or not: arrival-aware policies reason about future
        work too.
        """
        return self.done < self.num_jobs

    @property
    def released_mask(self) -> np.ndarray:
        """Mask of processors whose release time has arrived."""
        return self._released.copy()

    @property
    def jobs_remaining(self) -> np.ndarray:
        """``n_i(t)`` for every processor, as an int64 array."""
        return self.num_jobs - self.done

    def begin_step(self) -> None:
        """Unmask processors whose release time has arrived."""
        if self._all_released:
            return
        newly = ~self._released & (self._release <= self.t)
        if newly.any():
            slots = np.flatnonzero(newly)
            self._load_jobs(slots, self.done.take(slots))
            self._released |= newly
            self._all_released = bool(self._released.all())

    def advance(self, slots: np.ndarray) -> np.ndarray:
        """Complete the active jobs at the flat *slots*.

        Loads each successor job -- the sentinel's zeros on a drained
        queue -- and returns the completed jobs' indices.
        """
        completed = self.done.take(slots)
        successor = completed + 1
        self.done.put(slots, successor)
        self._load_jobs(slots, successor)
        return completed


class VectorState(JobTableState):
    """Float64 view of the execution state for ``Policy.shares_array``.

    Mirrors the read API of :class:`~repro.core.state.ExecState` in
    array form; policies must treat every array as read-only (the
    backend owns the mutation).

    Attributes:
        instance: the originating instance.
        t: 0-based current step.
        num_jobs: per processor, total job count (``n_i``).
        done: per processor, completed job count (``j_i(t)``).
        remaining: per processor, remaining work of the active job
            (0.0 once the processor has finished everything, and 0.0
            *before* a processor's release time -- unreleased work is
            invisible to policies).  Multi-resource instances measure
            work on the bottleneck resource.
        active_requirements: per processor, the (bottleneck)
            requirement ``r_ij`` of the active job (0.0 once finished
            or before release) -- the speed cap of Eq. (1).
        active_req_matrix: ``(k, m)`` per-resource requirements of the
            active jobs (the single-resource state aliases it to
            ``active_requirements`` reshaped, so the share-matrix view
            exists for every ``k``).
        active_weights: per processor, the objective weight ``w_ij`` of
            the active job (0.0 once finished or before release) --
            read by flow-tuned policies such as ``weighted-srpt``.
        active_deadlines: per processor, the due step ``d_ij`` of the
            active job (``inf`` when the job has no deadline, the
            processor is finished, or it is not yet released) -- read
            by deadline-aware policies such as ``edf-waterfill``.
        resource_spent: ``(k,)`` cumulative resource-time consumed per
            shared resource.
    """

    __slots__ = (
        "instance",
        "t",
        "num_jobs",
        "done",
        "remaining",
        "active_requirements",
        "active_req_matrix",
        "active_weights",
        "active_deadlines",
        "resource_spent",
        "num_resources",
        "_req",
        "_reqk",
        "_work",
        "_wgt",
        "_dl",
        "_release",
        "_released",
        "_all_released",
    )

    def __init__(self, instance: Instance) -> None:
        # Padded per-job tables: past its last job, every queue holds
        # the sentinel's empty job (see job_tables).
        num_jobs, release, jobs, reqk = job_tables((instance,))
        self.num_jobs, self._release = num_jobs[0], release[0]
        self._reqk = None if reqk is None else reqk[0]
        self.instance = instance
        self.t = 0
        self.num_resources = instance.num_resources
        self._start_views(jobs[:, 0])

    @property
    def all_done(self) -> bool:
        """True once every job on every processor has finished."""
        return bool((self.done >= self.num_jobs).all())

    @property
    def waiting(self) -> bool:
        """True iff some processor has not been released yet.

        Its jobs are pending by construction.
        """
        return not self._all_released

    def capture(self) -> dict:
        """JSON-serializable snapshot of the mutable float64 state.

        Floats survive JSON byte-exactly (``repr`` round-trips float64),
        so :meth:`restore` is bit-identical.  The padded requirement /
        work tables are immutable derivations of the instance and are
        rebuilt, not captured.
        """
        return {
            "t": self.t,
            "done": [int(x) for x in self.done],
            "remaining": [float(x) for x in self.remaining],
            "resource_spent": [float(x) for x in self.resource_spent],
            "released": [bool(x) for x in self._released],
        }

    def restore(self, data: dict) -> None:
        """Overwrite this state from a :meth:`capture` payload.

        As with :meth:`repro.core.state.ExecState.restore`, the payload
        may describe fewer processors than the instance this state was
        built over (extension restores keep the new queues' fresh
        state); the active-job views are recomputed from the padded
        tables in place, which preserves the ``k == 1`` aliasing of
        ``active_req_matrix``.

        Raises:
            CheckpointError: on malformed payloads or any inconsistency
                with the instance.
        """
        m = self.num_processors
        try:
            t = int(data["t"])
            done = np.array([int(x) for x in data["done"]], dtype=np.int64)
            remaining = np.array(
                [float(x) for x in data["remaining"]], dtype=np.float64
            )
            spent = np.array(
                [float(x) for x in data["resource_spent"]], dtype=np.float64
            )
            released = np.array(
                [bool(x) for x in data["released"]], dtype=bool
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed vector state payload: {exc}") from exc
        mm = int(done.shape[0])
        if not (
            mm == remaining.shape[0] == released.shape[0] and mm <= m
        ):
            raise CheckpointError(
                f"state payload describes {mm} processors "
                f"(remaining: {remaining.shape[0]}, released: "
                f"{released.shape[0]}) for an instance with {m}"
            )
        if spent.shape[0] != self.num_resources:
            raise CheckpointError(
                f"resource ledger has {spent.shape[0]} entries for "
                f"{self.num_resources} shared resource(s)"
            )
        if t < 0:
            raise CheckpointError(f"negative step counter {t}")
        nn = self.num_jobs[:mm]
        if (done < 0).any() or (done > nn).any():
            raise CheckpointError(
                f"done counts {done.tolist()} out of range for queues "
                f"of {nn.tolist()} jobs"
            )
        idx = np.arange(mm)
        # Column done of a drained queue is its sentinel: capacity 0.
        cap = self._work[idx, done]
        if (remaining < 0.0).any() or (remaining > cap).any():
            raise CheckpointError(
                f"remaining work {remaining.tolist()} outside [0, work] "
                "for the active jobs"
            )
        self.t = t
        self.done[:mm] = done
        self.remaining[:mm] = remaining
        self.resource_spent[:] = spent
        self._released[:mm] = released
        self._all_released = bool(self._released.all())
        self.active_requirements[:mm] = np.where(released, self._req[idx, done], 0.0)
        self.active_weights[:mm] = np.where(released, self._wgt[idx, done], 0.0)
        self.active_deadlines[:mm] = np.where(released, self._dl[idx, done], np.inf)
        if self._reqk is not None:
            self.active_req_matrix[:, :mm] = np.where(
                released[None, :], self._reqk[:, idx, done], 0.0
            )

    def extend(self, instance: Instance, processor: int) -> None:
        """Adopt *instance*: this state's instance plus one job on *processor*.

        Writes only the new job's column into the padded tables, which
        double their width when the job would take a queue's last
        column, so every queue keeps its sentinel (see
        :func:`job_tables`); a new processor adds one lane, released at
        its release time like the lanes of a fresh state.  The
        resulting state equals a checkpoint of this state restored
        into *instance*, including its known defect: on a queue that
        had already drained, the active views load the new job but
        ``remaining`` stays 0, so the job completes at its first active
        step without consuming work.
        """
        job = instance.job(processor, instance.num_jobs(processor) - 1)
        if processor == self.num_processors:
            self._add_lane(instance.release(processor))
        i = processor
        j = int(self.num_jobs[i])
        if j + 1 == self._req.shape[1]:
            self._grow_tables(2 * (j + 1))
        self._req[i, j] = float(job.requirement)
        self._work[i, j] = float(job.work)
        self._wgt[i, j] = float(job.weight)
        if job.deadline is not None:
            self._dl[i, j] = float(job.deadline)
        if self._reqk is not None:
            for lane, r in enumerate(job.requirements):
                self._reqk[lane, i, j] = float(r)
        self.num_jobs[i] = j + 1
        self.instance = instance
        if self._released[i] and self.done[i] == j:
            # The job becomes active at once: a new lane released at
            # step 0, or a drained queue (whose remaining stays 0, see
            # above).
            if j == 0:
                self.remaining[i] = self._work[i, 0]
            self.active_requirements[i] = self._req[i, j]
            self.active_weights[i] = self._wgt[i, j]
            self.active_deadlines[i] = self._dl[i, j]
            if self._reqk is not None:
                self.active_req_matrix[:, i] = self._reqk[:, i, j]

    def _add_lane(self, release: int) -> None:
        """Append one empty, zero-masked processor lane."""
        released = release <= 0
        self.num_jobs = np.append(self.num_jobs, 0)
        self.done = np.append(self.done, 0)
        self.remaining = np.append(self.remaining, 0.0)
        self.active_requirements = np.append(self.active_requirements, 0.0)
        self.active_weights = np.append(self.active_weights, 0.0)
        self.active_deadlines = np.append(self.active_deadlines, np.inf)
        self._release = np.append(self._release, release)
        self._released = np.append(self._released, released)
        self._all_released = self._all_released and released
        self._req = np.vstack([self._req, np.zeros_like(self._req[:1])])
        self._work = np.vstack([self._work, np.zeros_like(self._work[:1])])
        self._wgt = np.vstack([self._wgt, np.zeros_like(self._wgt[:1])])
        self._dl = np.vstack([self._dl, np.full_like(self._dl[:1], np.inf)])
        if self._reqk is None:
            m = self.num_processors
            self.active_req_matrix = self.active_requirements.reshape(1, m)
        else:
            self._reqk = np.concatenate(
                [self._reqk, np.zeros_like(self._reqk[:, :1])], axis=1
            )
            self.active_req_matrix = np.concatenate(
                [self.active_req_matrix, np.zeros_like(self.active_req_matrix[:, :1])],
                axis=1,
            )

    def _grow_tables(self, capacity: int) -> None:
        """Widen the padded per-job tables to *capacity* jobs per lane."""
        self._req = _widened(self._req, capacity, 0.0)
        self._work = _widened(self._work, capacity, 0.0)
        self._wgt = _widened(self._wgt, capacity, 0.0)
        self._dl = _widened(self._dl, capacity, np.inf)
        if self._reqk is not None:
            self._reqk = _widened(self._reqk, capacity, 0.0)

def job_tables(instances: tuple[Instance, ...]) -> tuple:
    """Build the padded per-job tables of *instances*, one lane per instance.

    Returns ``(num_jobs, release, jobs, reqk)``: ``(B, m)`` int64 job
    counts and release steps, the ``(4, B, m, n + 1)`` float64 block
    of requirement / work / weight / deadline tables, and the
    ``(B, k, m, n + 1)`` per-resource requirements (``None`` when
    ``k == 1``), for the batch maxima ``m``, ``n`` and ``k``.  The one
    table layout of :class:`VectorState` (``B == 1``) and
    :class:`~repro.backends.batched.BatchVectorState`.

    Sentinel contract: every column from ``num_jobs[b, i]`` on -- at
    least one per queue -- holds the *empty job*: work 0, requirement
    0, weight 0, deadline ``inf``, as do padded processors and
    resource rows.  Loading column ``done`` of a drained queue
    therefore zeroes its active slot with no branch (see
    :meth:`JobTableState.advance`).

    Neighborhood batches permute one bag of job objects, and each move
    touches at most two queues, so float conversions are memoized per
    job, row indices per queue, and the tables fill with one scatter
    per field.
    """
    B = len(instances)
    m = max(inst.num_processors for inst in instances)
    width = max(inst.max_jobs for inst in instances) + 1
    k = max(inst.num_resources for inst in instances)
    num_jobs = np.zeros((B, m), dtype=np.int64)
    release = np.zeros((B, m), dtype=np.int64)
    reqk = None if k == 1 else np.zeros((B, k, m, width))
    rows: dict[int, int] = {}
    table: list[tuple[float, float, float, float]] = []
    table_k: list[tuple[float, ...]] = []
    q_rows: dict[tuple, np.ndarray] = {}
    slots: list[int] = []  # b * m + i, one entry per queue
    counts: list[int] = []
    releases: list[int] = []
    parts: list[np.ndarray] = []
    for b, inst in enumerate(instances):
        releases.extend(inst.releases)
        for i, queue in enumerate(inst.queues):
            # Keyed by job identity: hashing the tuple itself would call
            # Job.__hash__ once per job.
            key = tuple(map(id, queue))
            ri_q = q_rows.get(key)
            if ri_q is None:
                idxs = []
                for job in queue:
                    row = rows.get(id(job))
                    if row is None:
                        row = len(table)
                        rows[id(job)] = row
                        table.append(
                            (
                                float(job.requirement),
                                float(job.work),
                                float(job.weight),
                                np.inf if job.deadline is None else float(job.deadline),
                            )
                        )
                        if reqk is not None:
                            reqs = tuple(float(r) for r in job.requirements)
                            table_k.append(reqs + (0.0,) * (k - len(reqs)))
                    idxs.append(row)
                ri_q = np.array(idxs, dtype=np.intp)
                q_rows[key] = ri_q
            slots.append(b * m + i)
            counts.append(len(queue))
            parts.append(ri_q)
    num_jobs.put(slots, counts)
    release.put(slots, releases)
    # Flat table indices s * width + j of every job j on every slot s,
    # in the slot order of parts.
    at = (np.arange(width) < num_jobs.reshape(-1, 1)).ravel().nonzero()[0]
    ri = np.concatenate(parts)
    # One block holds the four tables; deadlines default to inf.
    fields = np.zeros((4, B * m * width))
    fields[3] = np.inf
    fields[:, at] = np.array(table)[ri].T
    if reqk is not None:
        bi, ii, ji = np.unravel_index(at, (B, m, width))
        reqk[bi, :, ii, ji] = np.array(table_k, dtype=np.float64)[ri]
    return num_jobs, release, fields.reshape(4, B, m, width), reqk


def _widened(table: np.ndarray, capacity: int, fill: float) -> np.ndarray:
    """A copy of *table* whose last axis is padded with *fill* to *capacity*."""
    wide = np.full(table.shape[:-1] + (capacity,), fill, dtype=np.float64)
    wide[..., : table.shape[-1]] = table
    return wide


class VectorRuntime(KernelRuntime):
    """Float64 arithmetic adapter over :class:`VectorState`.

    Args:
        instance: the CRSharing instance.
        tol: completion / feasibility tolerance (see
            :class:`VectorBackend`).
    """

    #: Checkpoint backend tag (see :mod:`repro.core.checkpoint`).
    kind = "vector"

    __slots__ = ("instance", "state", "tol", "_m", "_k")

    def __init__(self, instance: Instance, *, tol: float = 1e-9) -> None:
        self.instance = instance
        self.state = VectorState(instance)
        self.tol = float(tol)
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

    def begin_step(self) -> None:
        """Unmask processors whose release time has arrived."""
        self.state.begin_step()

    def query(self, policy) -> np.ndarray:
        """Ask *policy* for a float64 share vector (or (k, m) matrix)."""
        return np.asarray(policy.shares_array(self.state), dtype=np.float64)

    def check(self, shares: np.ndarray) -> None:
        """Tolerance-aware feasibility check (shape, bounds, capacity).

        Expects a flat ``(m,)`` share vector for single-resource
        instances and a ``(k, m)`` share matrix for ``k > 1``; every
        resource row is checked against its unit capacity.
        """
        tol = self.tol
        t = self.state.t
        expected = (self._m,) if self._k == 1 else (self._k, self._m)
        if shares.shape != expected:
            raise InfeasibleAssignmentError(
                f"policy returned shape {shares.shape} shares for "
                f"{self._m} processors and {self._k} resource(s) at "
                f"step {t} (expected {expected})"
            )
        # Written as "not inside" so NaN fails the test too.
        lo, hi = shares.min(), shares.max()
        if not (lo >= -tol and hi <= 1.0 + tol):
            raise InfeasibleAssignmentError(
                f"step {t}: share outside [0, 1] (min={lo}, max={hi})"
            )
        # Per-resource capacity: sum over processors (the flat vector
        # is the k=1 row of the same formulation).
        worst = float(shares.sum(axis=-1).max())
        if not worst <= 1.0 + tol:
            raise InfeasibleAssignmentError(
                f"step {t}: resource overused (sum of shares = "
                f"{worst} > 1)"
            )

    def apply(self, shares: np.ndarray) -> StepEvent:
        """Advance the float64 state one step and report it."""
        state = self.state
        tol = self.tol
        had_work = state.active_mask
        if self._k == 1:
            # Eq. (1)/(2): the requirement caps useful speed; a job
            # cannot absorb more than its remaining work in one step.
            speed = np.minimum(shares, state.active_requirements)
            work = np.minimum(speed, state.remaining)
            np.maximum(work, 0.0, out=work)
            state.remaining -= work
            state.resource_spent[0] += float(work.sum())
        else:
            work = self._multi_work(shares)
            state.remaining -= work
        finished = np.flatnonzero(had_work & (state.remaining <= tol))
        completed: tuple[tuple[int, int], ...] = ()
        if finished.size:
            jobs = state.advance(finished)
            completed = tuple(zip(finished.tolist(), jobs.tolist()))
        progressed = bool(finished.size) or float(work.sum()) > tol
        t = state.t
        state.t += 1
        return StepEvent(
            t=t,
            shares=shares,
            processed=work,
            completed=completed,
            had_work=had_work,
            progressed=progressed,
        )

    def _multi_work(self, shares: np.ndarray) -> np.ndarray:
        """Per-processor work under a ``(k, m)`` share matrix.

        The bottleneck rule of the multi-resource model: a job runs at
        speed fraction ``min_l min(s_l, r_l) / r_l`` over the
        resources it needs, progresses ``fraction * r*`` bottleneck
        work units (capped by its remaining work), and consumes
        ``progress_fraction * r_l`` of every resource ``l`` (tracked
        in ``resource_spent``).
        """
        state = self.state
        req = state.active_req_matrix  # (k, m)
        rstar = state.active_requirements
        needed = req > 0.0
        ratio = np.divide(
            np.minimum(shares, req),
            req,
            out=np.full_like(req, np.inf),
            where=needed,
        )
        fraction = ratio.min(axis=0)  # inf where no resource is needed
        positive = rstar > 0.0
        work = np.zeros(state.num_processors, dtype=np.float64)
        work[positive] = np.minimum(
            fraction[positive] * rstar[positive], state.remaining[positive]
        )
        np.maximum(work, 0.0, out=work)
        progress = np.zeros_like(work)
        progress[positive] = work[positive] / rstar[positive]
        state.resource_spent += (req * progress[None, :]).sum(axis=1)
        return work

    def describe_progress(self) -> str:
        """Completed-job counts, for limit-error messages."""
        return f"vector backend, done={self.state.done.tolist()}"

    def capture(self) -> dict:
        """Serializable snapshot of the runtime's mutable state.

        Carries the completion tolerance alongside the state so a
        restored runtime reproduces the same completion decisions.
        """
        data = self.state.capture()
        data["tol"] = self.tol
        return data

    def restore(self, data: dict) -> None:
        """Overwrite the runtime's state from a :meth:`capture` payload."""
        self.state.restore(data)
        if "tol" in data:
            self.tol = float(data["tol"])

    def extend(self, job, processor: int, release: int | None = None) -> None:
        """Append *job* to queue *processor* (``== m`` opens a new queue).

        Grows the run in place instead of rebuilding its state; see
        :meth:`Instance.append_job` for the arguments and
        :meth:`VectorState.extend` for the resulting state.
        """
        instance = self.instance.append_job(job, processor, release=release)
        self.state.extend(instance, processor)
        self.instance = instance
        self._m = instance.num_processors


class VectorBackend(Backend):
    """NumPy float64 execution engine (a kernel configuration).

    Args:
        tol: completion / feasibility tolerance.  A job is complete
            when its remaining work is ``<= tol``; shares may exceed
            the exact bounds by up to ``tol`` before the backend calls
            them infeasible.  Must be far below the instance's
            requirement grid (the default ``1e-9`` is safe for grids
            down to ``1e-6``).
    """

    name = "vector"

    def __init__(self, *, tol: float = 1e-9) -> None:
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.tol = float(tol)

    def make_runtime(self, instance: Instance, policy) -> VectorRuntime:
        """The kernel runtime this backend contributes.

        Shared with :class:`~repro.simulation.engine.ManyCoreEngine`.
        Policy registry names resolve first, so the ``shares_array``
        capability check below only ever judges genuine policy objects
        (an unresolved string used to be reported -- misleadingly -- as
        "does not implement shares_array").
        """
        policy = self._resolve_policy(policy)
        if not getattr(policy, "supports_vector", False):
            raise VectorizationUnsupportedError(
                f"policy {getattr(policy, 'name', policy)!r} does not "
                "implement shares_array; use backend='exact'"
            )
        return VectorRuntime(instance, tol=self.tol)

    def run(
        self,
        instance: Instance,
        policy,
        *,
        max_steps: int | None = None,
        record_shares: bool = True,
        stall_limit: int = 3,
        objectives=(),
    ) -> BackendResult:
        """Run *policy* on *instance* through the float64 kernel.

        *policy* may be a registry name; see
        :func:`repro.algorithms.resolve_policy`.
        """
        policy = self._resolve_policy(policy)
        runtime = self.make_runtime(instance, policy)
        objectives = resolve_objectives(objectives)
        completions = CompletionRecorder()
        observers: list = [completions]
        recorder: ShareRecorder | None = None
        if record_shares:
            recorder = ShareRecorder()
            observers.append(recorder)
        with backend_run_span(self.name, instance, policy) as span:
            makespan = run_kernel(
                runtime,
                policy,
                observers,
                max_steps=max_steps,
                stall_limit=stall_limit,
            )
            if span is not None:
                span.note(makespan=makespan)
        return BackendResult(
            backend=self.name,
            makespan=makespan,
            shares=np.array(recorder.shares) if recorder is not None else None,
            processed=(
                np.array(recorder.processed) if recorder is not None else None
            ),
            completion_steps=completions.completion_steps,
            instance=instance,
            objective_values=self._objective_values(
                instance, objectives, completions.completion_steps, makespan
            ),
        )
