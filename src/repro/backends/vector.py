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

import math
from itertools import chain

import numpy as np

from ..core.instance import Instance
from ..core.job import Job
from ..core.kernel import AppliedStep, KernelRuntime, ShareRecorder, run_kernel
from ..core.table import over_lcm
from ..exceptions import (
    CheckpointError,
    InfeasibleAssignmentError,
    VectorizationUnsupportedError,
)
from .base import Backend, BackendResult, backend_run_span, resolve_objectives

__all__ = ["VectorState", "VectorRuntime", "VectorBackend", "JobBag", "BagSelection"]


class JobTableState:
    """Array operations shared by the two float64 states.

    :class:`VectorState` and
    :class:`~repro.backends.batched.BatchVectorState` hold their jobs
    as one block each (a single state is the ``B == 1`` case).  The
    padded job table (:func:`job_tables`; for one lane, the instance's
    :meth:`~repro.core.table.JobTable.floats`) is ``(F, ..., m, n + 1)``;
    the active jobs' fields are the ``(F, ..., m)`` block ``_active``.
    Both have ``F`` rows: requirement, work, weight, deadline, then
    the ``k`` per-resource requirements when ``k > 1``.
    ``active_requirements``, ``remaining``, ``active_weights`` and
    ``active_deadlines`` are rows 0-3 of the active block, and
    ``active_req_matrix`` is rows ``4:`` (row ``0:1`` when
    ``k == 1``: the requirement row itself), read as ``(B, k, m)`` by
    a batch.  Every view writes through to the block.  Per-processor
    arrays are shaped like ``num_jobs``: ``(m,)`` for one lane,
    ``(B, m)`` for a batch, indexed in flat C order (slot
    ``lane * m + i``).
    """

    __slots__ = ()

    def _start_views(self, table: np.ndarray) -> None:
        """Give a fresh state its table, counters and first jobs' active block.

        *table* is the C-contiguous padded job table of this state's
        lanes (the flat views must alias it; it may be read-only).  Processors
        not released at step 0 stay masked -- the sentinel's empty job
        -- until :meth:`begin_step` unmasks them.
        """
        shape = self.num_jobs.shape
        released = self._released = self._release <= 0
        self._all_released = bool(released.all())
        self.done = np.zeros(shape, dtype=np.int64)
        self.resource_spent = np.zeros(shape[:-1] + (self.num_resources,))
        self._table = table
        # The last column is a sentinel on every queue: the empty job.
        self._active = np.where(released, table[..., 0], table[..., -1])
        self._bind_views()

    def _bind_views(self) -> None:
        """Point the field views at the rows of ``_table`` / ``_active``.

        Called whenever either block is replaced (growth, compaction).
        """
        active = self._active
        rows = active.shape[0]
        self._flat_table = self._table.reshape(rows, -1)
        self._flat_active = active.reshape(rows, -1)
        (
            self.active_requirements,
            self.remaining,
            self.active_weights,
            self.active_deadlines,
        ) = active[:4]
        req = active[4:] if rows > 4 else active[:1]
        # (k, m) for one lane; a batch's (k, B, m) rows read as (B, k, m).
        self.active_req_matrix = req if req.ndim == 2 else req.swapaxes(0, 1)

    def _load_jobs(self, slots: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """Load job ``columns[s]`` of each slot into the active block.

        One gather and one scatter of every field row: a *columns*
        entry equal to the queue length loads the sentinel's empty job.
        Returns the loaded jobs' flat indices into a table row.
        """
        at = slots * self._table.shape[-1] + columns
        self._flat_active[:, slots] = self._flat_table.take(at, axis=1)
        return at

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
            active jobs (for ``k == 1``, the ``active_requirements``
            row itself, so the share-matrix view exists for every
            ``k``).
        active_weights: per processor, the objective weight ``w_ij`` of
            the active job (0.0 once finished or before release) --
            read by flow-tuned policies such as ``weighted-srpt``.
        active_deadlines: per processor, the due step ``d_ij`` of the
            active job (``inf`` when the job has no deadline, the
            processor is finished, or it is not yet released) -- read
            by deadline-aware policies such as ``edf-waterfill``.
        resource_spent: ``(k,)`` cumulative resource-time consumed per
            shared resource.
        finish: the completion record, ``(m, n + 1)`` int64 like the
            job table and indexed by done count: ``finish[i, c]`` is the
            0-based step in which queue ``i`` completed its ``c``-th job
            (job ``c - 1``), for the jobs completed since the state was
            built or restored (0 elsewhere).  :meth:`advance` writes it
            at the flat index it loads the successor job from.
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
        "finish",
        "_table",
        "_active",
        "_flat_table",
        "_flat_active",
        "_left",
        "_release",
        "_released",
        "_all_released",
    )

    def __init__(self, instance: Instance) -> None:
        # The padded job table, the instance's read-only float rows:
        # past its last job, every queue holds the sentinel's empty job.
        table = instance.job_table()
        self.num_jobs = np.array(table.lengths, dtype=np.int64)
        self._release = np.array(instance.releases, dtype=np.int64)
        self._left = instance.total_jobs
        self.instance = instance
        self.t = 0
        self.num_resources = instance.num_resources
        self._start_views(table.floats())
        self.finish = np.zeros(self._table.shape[1:], dtype=np.int64)

    @property
    def all_done(self) -> bool:
        """True once every job on every processor has finished."""
        return not self._left

    @property
    def waiting(self) -> bool:
        """True iff some processor has not been released yet.

        Its jobs are pending by construction.
        """
        return not self._all_released

    def advance(self, slots: np.ndarray) -> np.ndarray:
        """Complete the active jobs at *slots* (see :class:`JobTableState`).

        Records step :attr:`t` as their completion step in :attr:`finish`.
        """
        self._left -= slots.size
        completed = self.done.take(slots)
        successor = completed + 1
        self.done.put(slots, successor)
        self.finish.put(self._load_jobs(slots, successor), self.t)
        return completed

    def completion_steps(self) -> dict[tuple[int, int], int]:
        """0-based completion step per job id, read off :attr:`finish`.

        Covers every job once the run has finished.
        """
        return {
            (i, j): t
            for i, (row, n) in enumerate(zip(self.finish.tolist(), self.num_jobs.tolist()))
            for j, t in enumerate(row[1 : n + 1])
        }

    def capture(self) -> dict:
        """JSON-serializable snapshot of the mutable float64 state.

        Floats survive JSON byte-exactly (``repr`` round-trips float64),
        so :meth:`restore` is bit-identical.  The padded job table is an
        immutable derivation of the instance and is rebuilt, not
        captured.
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
        state); the active block is reloaded from the job table in
        place, so every field view keeps aliasing it.  The completion
        record restarts empty (the payload does not carry it).

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
        table = self._table
        jobs = table[:, idx, done]
        # Column done of a drained queue is its sentinel: capacity 0.
        if (remaining < 0.0).any() or (remaining > jobs[1]).any():
            raise CheckpointError(
                f"remaining work {remaining.tolist()} outside [0, work] "
                "for the active jobs"
            )
        self.t = t
        self.done[:mm] = done
        self._left = int((self.num_jobs - self.done).sum())
        self._released[:mm] = released
        self._all_released = bool(self._released.all())
        self._active[:, :mm] = np.where(released, jobs, table[:, idx, -1])
        self.remaining[:mm] = remaining
        self.resource_spent[:] = spent
        self.finish.fill(0)

    def extend(self, instance: Instance, processor: int) -> None:
        """Adopt *instance*: this state's instance plus one job on *processor*.

        Converts only the new job (:func:`_job_column`) and writes its column into the state's own copy of the padded
        table, which doubles its width when the job would take a
        queue's last column, so every queue keeps its sentinel (see
        :func:`job_tables`); *instance* gets no job table.  A new
        processor adds one lane, released at its release time like the
        lanes of a fresh state.  The
        resulting state equals a checkpoint of this state restored
        into *instance*, including its known defect: on a queue that
        had already drained, the active block loads the new job but
        ``remaining`` stays 0, so the job completes at its first active
        step without consuming work.
        """
        job = instance.job(processor, instance.num_jobs(processor) - 1)
        if processor == self.num_processors:
            self._add_lane(instance.release(processor))
        i = processor
        j = int(self.num_jobs[i])
        if j + 1 == self._table.shape[-1]:
            self._grow_table(2 * (j + 1))
        elif not self._table.flags.writeable:
            # The instance's cached rows: write into a copy of them.
            self._table = self._table.copy()
            self._bind_views()
        self._table[:, i, j] = _job_column(job, self.num_resources)
        self.num_jobs[i] = j + 1
        self._left += 1
        self.instance = instance
        if self._released[i] and self.done[i] == j:
            # The job becomes active at once: a new lane released at
            # step 0, or a drained queue (whose remaining stays 0, see
            # above).
            remaining = self.remaining[i]
            self._active[:, i] = self._table[:, i, j]
            if j:
                self.remaining[i] = remaining

    def _add_lane(self, release: int) -> None:
        """Append one empty, zero-masked processor lane."""
        released = release <= 0
        self.num_jobs = np.append(self.num_jobs, 0)
        self.done = np.append(self.done, 0)
        self._release = np.append(self._release, release)
        self._released = np.append(self._released, released)
        self._all_released = self._all_released and released
        # Lane 0's last column is a sentinel: the new lane is all empty jobs.
        empty = self._table[:, :1, -1:]
        self._active = np.concatenate([self._active, empty[..., 0]], axis=1)
        self._table = np.concatenate(
            [self._table, np.repeat(empty, self._table.shape[-1], axis=-1)], axis=1
        )
        self.finish = np.concatenate([self.finish, np.zeros_like(self.finish[:1])])
        self._bind_views()

    def _grow_table(self, capacity: int) -> None:
        """Widen the padded job table to *capacity* jobs per lane, in one allocation."""
        table, width = self._table, self._table.shape[-1]
        self._table = np.empty(table.shape[:-1] + (capacity,), dtype=table.dtype)
        self._table[..., :width] = table
        self._table[..., width:] = table[..., -1:]
        finish = np.zeros(self.finish.shape[:-1] + (capacity,), dtype=np.int64)
        finish[..., :width] = self.finish
        self.finish = finish
        self._bind_views()


def _job_column(job: Job, k: int) -> list[float]:
    """*job*'s column of a ``k``-resource float job table.

    Equal to its column in :meth:`~repro.core.table.JobTable.floats`:
    both round each field's rational once.
    """
    req = float(job.requirement)
    column = [req, req if job.size == 1 else float(job.work), float(job.weight)]
    column.append(math.inf if job.deadline is None else float(job.deadline))
    if k > 1:
        column += [float(r) for r in job.requirements]
    return column


def _scaled(key: tuple, req: int, size: int, weight: int) -> tuple:
    """A :meth:`~repro.core.table.JobTable.rows` key with its units multiplied."""
    *reqs, s, w, deadline = key
    return (*(r * req for r in reqs), s * size, w * weight, deadline)


class JobBag:
    """The distinct jobs of a batch as rows of one float table.

    Each distinct job gets one row id, in first-seen order, keyed by its
    integer row of its instance's job table
    (:meth:`~repro.core.table.JobTable.rows`) scaled to the bag's
    common denominators, so equal jobs share an id (also across
    instances on different grids) and id tuples compare exactly as
    instance queues do.  The table ends in the sentinel column, id
    ``-1``: the empty job of :func:`job_tables`.  :meth:`select` makes
    a batch of row-id lanes, with no ``Instance`` or ``Job`` per lane.
    """

    __slots__ = ("jobs", "_ids", "_dens", "_rows", "_weights", "_table", "_weight_grid")

    def __init__(self) -> None:
        self.jobs: list = []
        self._ids: dict[tuple, int] = {}
        # The keys' requirement, size and weight denominators.
        self._dens = (1, 1, 1)
        # Per row: its float column (4 + k fields when k > 1) and its
        # weight as (numerator, denominator).
        self._rows: list[list[float]] = []
        self._weights: list[tuple[int, int]] = []
        self._table = self._weight_grid = None

    def add(self, instance: Instance) -> tuple[tuple[int, ...], ...]:
        """Per-queue row ids of *instance*'s jobs, adding the rows not seen yet."""
        table = instance.job_table()
        dens = (table.req_den, table.size_den, table.weight_den)
        common = tuple(map(math.lcm, self._dens, dens))
        if common != self._dens:  # a finer grid: rescale the keys seen so far
            up = [c // d for c, d in zip(common, self._dens)]
            self._ids = {_scaled(key, *up): row for key, row in self._ids.items()}
            self._dens = common
        keys = table.rows()
        if common != dens:
            up = [c // d for c, d in zip(common, dens)]
            keys = (_scaled(key, *up) for key in keys)
        ids = self._ids
        out, new = [], []
        for i, n in enumerate(table.lengths):
            queue = []
            for j, key in zip(range(n), keys):
                row = ids.get(key)
                if row is None:
                    row = ids[key] = len(self.jobs)
                    self.jobs.append(instance.job(i, j))
                    self._weights.append((key[-2], common[2]))
                    new.append((i, j))
                queue.append(row)
            out.append(tuple(queue))
        if new:
            queues, columns = zip(*new)
            self._rows += table.floats()[:, queues, columns].T.tolist()
            self._table = self._weight_grid = None
        return tuple(out)

    def table(self, k: int = 1) -> np.ndarray:
        """``(F, R + 1)`` field rows of the :func:`job_tables` layout.

        Requirement / work / weight / deadline, then, for ``k > 1``,
        one requirement row per resource (zeros past a job's own
        resource count).
        """
        rows = 4 + k if k > 1 else 4
        if self._table is None or len(self._table) != rows:
            table = np.array([r[:4] for r in self._rows] + [[0.0, 0.0, 0.0, np.inf]]).T
            if k > 1:
                reqs = np.zeros((k, table.shape[1]))
                for row, column in enumerate(self._rows):
                    own = column[4:] or column[:1]
                    reqs[: len(own), row] = own
                table = np.concatenate([table, reqs])
            self._table = np.ascontiguousarray(table)
        return self._table

    def weight_grid(self) -> tuple[np.ndarray | None, int]:
        """The bag's weight column as ``(numerators, d)``: weight = numerator / d.

        Int64 numerators end in the sentinel's 0 (``None`` on overflow).
        """
        if self._weight_grid is None:
            num, d = over_lcm(self._weights)
            num.append(0)
            self._weight_grid = (np.array(num) if max(num) < 2**63 else None, d)
        return self._weight_grid

    def select(self, queues, releases) -> "BagSelection":
        """The lanes *queues* (per lane, per-queue id tuples) over this bag."""
        return BagSelection(self, queues, releases)


class BagSelection:
    """A batch of lanes over one :class:`JobBag`.

    Attributes:
        bag: the bag the row ids index.
        queues: per lane, a tuple of per-queue row-id tuples.
        releases: per lane, the per-processor release steps.
    """

    __slots__ = ("bag", "queues", "releases", "_instances", "_ids")

    def __init__(self, bag: JobBag, queues, releases, instances=None) -> None:
        self.bag, self.queues, self.releases = bag, queues, releases
        self._instances = instances
        self._ids = None

    @classmethod
    def of(cls, instances) -> "BagSelection":
        """The lanes of *instances* over a bag of their jobs."""
        instances = tuple(instances)
        bag = JobBag()
        queues = [bag.add(inst) for inst in instances]
        return cls(bag, queues, [inst.releases for inst in instances], instances)

    @property
    def instances(self) -> tuple[Instance, ...]:
        """The lanes as instances (built on first read)."""
        if self._instances is None:
            jobs = self.bag.jobs
            self._instances = tuple(
                Instance([[jobs[r] for r in q] for q in lane], releases=rel)
                for lane, rel in zip(self.queues, self.releases)
            )
        return self._instances

    @property
    def lane_num_resources(self) -> list[int]:
        """Per lane, the resource count ``k`` of its jobs."""
        jobs = self.bag.jobs
        return [len(jobs[lane[0][0]].requirements) for lane in self.queues]

    def row_ids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(num_jobs, release, ids)`` for the batch maxima ``m`` and ``n``.

        ``(B, m)`` int64 job counts and release steps, and the
        ``(B, m, n + 1)`` row ids, padded with the sentinel id ``-1``.
        """
        if self._ids is None:
            lanes = self.queues
            # Each lane's own processors: a lane with fewer queues pads
            # them with empty ones.
            mask = np.arange(max(map(len, lanes))) < np.array([len(lane) for lane in lanes])[:, None]
            lengths = [len(q) for lane in lanes for q in lane]
            num_jobs, release = np.zeros(mask.shape, np.int64), np.zeros(mask.shape, np.int64)
            num_jobs[mask], release[mask] = lengths, list(chain.from_iterable(self.releases))
            # Every id, in (lane, queue, position) order, lands on its slot.
            ids = np.full(mask.shape + (max(lengths) + 1,), -1, np.intp)
            flat = np.fromiter(chain.from_iterable(chain.from_iterable(lanes)), np.intp, sum(lengths))
            ids[np.arange(ids.shape[-1]) < num_jobs[..., None]] = flat
            self._ids = (num_jobs, release, ids)
        return self._ids

    def tables(self) -> tuple:
        """The lanes' table, as :func:`job_tables` returns it.

        ``np.take`` along an axis allocates C order; the step loop's
        flat gathers would copy a strided table every step.
        """
        num_jobs, release, ids = self.row_ids()
        table = self.bag.table(max(self.lane_num_resources))
        return num_jobs, release, np.take(table, ids, axis=1)


def job_tables(instances) -> tuple:
    """The padded job table of a batch, one lane per instance.

    *instances* is a sequence of instances or a :class:`BagSelection`.
    Returns ``(num_jobs, release, table)``: ``(B, m)`` int64 job counts
    and release steps, and the ``(F, B, m, n + 1)`` float64 job table
    for the batch maxima ``m``, ``n`` and ``k`` -- a :class:`JobBag` of
    the jobs, then one gather of its rows.  Its ``F`` field rows are
    requirement (the bottleneck ``r*``), work, weight and deadline,
    then, when ``k > 1``, the ``k`` per-resource requirements: the
    layout of :meth:`~repro.core.table.JobTable.floats`, which
    :class:`VectorState` (``B == 1``) reads directly.

    Sentinel contract: every column from ``num_jobs[b, i]`` on -- at
    least one per queue -- holds the *empty job*: work 0, requirement
    0, weight 0, deadline ``inf``, as do padded processors and
    resource rows.  Loading column ``done`` of a drained queue
    therefore empties its active slot with no branch (see
    :meth:`JobTableState.advance`).
    """
    if not isinstance(instances, BagSelection):
        instances = BagSelection.of(instances)
    return instances.tables()


def bottleneck_work(state, shares: np.ndarray, scalar: np.ndarray | None = None) -> np.ndarray:
    """Per-processor work of a ``(..., k, m)`` share block; charges the ledger.

    The bottleneck rule of the multi-resource model: a job runs at
    speed fraction ``min_l min(s_l, r_l) / r_l`` over the resources it
    needs, progresses ``fraction * r*`` bottleneck work units (capped
    by its remaining work), and consumes ``progress_fraction * r_l`` of
    every resource ``l`` (added to ``state.resource_spent``).  The
    ``where=`` masks leave a processor with ``r* == 0`` at exact zero
    work and progress.  *scalar*, a ``(B,)`` lane mask of a batch,
    gives those lanes the single-resource rule
    ``min(s_0, r*, remaining)`` instead, so a ``k == 1`` lane of a
    mixed batch stays bit-identical to its standalone run.  Does not
    subtract the work from ``state.remaining``.
    """
    req = state.active_req_matrix
    rstar = state.active_requirements
    needed = req > 0.0
    ratio = np.minimum(shares, req)
    np.divide(ratio, req, out=ratio, where=needed)
    # The minimum over the needed resources; inf where a processor
    # needs none (then r* == 0 too).
    fraction = np.minimum.reduce(ratio, axis=-2, where=needed, initial=np.inf)
    positive = rstar > 0.0
    work = np.zeros(rstar.shape)
    np.multiply(fraction, rstar, out=work, where=positive)
    np.minimum(work, state.remaining, out=work, where=positive)
    np.maximum(work, 0.0, out=work)
    if scalar is not None:
        row = np.minimum(shares[:, 0, :], rstar)
        np.minimum(row, state.remaining, out=row)
        np.maximum(row, 0.0, out=row)
        work[scalar] = row[scalar]
    progress = np.divide(work, rstar, out=np.zeros(rstar.shape), where=positive)
    state.resource_spent += np.add.reduce(req * progress[..., None, :], axis=-1)
    return work


class _VectorStep(AppliedStep):
    """:class:`~repro.core.kernel.AppliedStep` of :class:`VectorRuntime`.

    ``processed`` is the step's work array and ``had_work`` its active
    mask; ``slots`` / ``jobs`` hold the completed jobs' processors and
    indices while ``count`` is nonzero.
    """

    __slots__ = ("processed", "had_work", "slots", "jobs")

    @property
    def completed(self) -> tuple[tuple[int, int], ...]:
        """Jobs that finished in the step, in processor order."""
        if not self.count:
            return ()
        return tuple(zip(self.slots.tolist(), self.jobs.tolist()))


class VectorRuntime(KernelRuntime):
    """Float64 arithmetic adapter over :class:`VectorState`.

    Args:
        instance: the CRSharing instance.
        tol: completion / feasibility tolerance (see
            :class:`VectorBackend`).
    """

    #: Checkpoint backend tag (see :mod:`repro.core.checkpoint`).
    kind = "vector"

    __slots__ = ("instance", "state", "tol", "last", "_m", "_k")

    def __init__(self, instance: Instance, *, tol: float = 1e-9) -> None:
        self.instance = instance
        self.state = VectorState(instance)
        self.tol = float(tol)
        self.last = _VectorStep()
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
        lo = np.minimum.reduce(shares, axis=None)
        hi = np.maximum.reduce(shares, axis=None)
        if not (lo >= -tol and hi <= 1.0 + tol):
            raise InfeasibleAssignmentError(
                f"step {t}: share outside [0, 1] (min={lo}, max={hi})"
            )
        # Per-resource capacity: sum over processors.
        if self._k == 1:
            worst = float(np.add.reduce(shares))
        else:
            worst = float(np.add.reduce(shares, axis=-1).max())
        if not worst <= 1.0 + tol:
            raise InfeasibleAssignmentError(
                f"step {t}: resource overused (sum of shares = "
                f"{worst} > 1)"
            )

    def apply(self, shares: np.ndarray) -> _VectorStep:
        """Advance the float64 state one step; return :attr:`last`.

        Completions land in the state's :attr:`VectorState.finish` record.
        """
        state = self.state
        tol = self.tol
        had_work = state.active_mask
        if self._k == 1:
            # Eq. (1)/(2): the requirement caps useful speed; a job
            # cannot absorb more than its remaining work in one step.
            work = np.minimum(shares, state.active_requirements)
            np.minimum(work, state.remaining, out=work)
            np.maximum(work, 0.0, out=work)
            total = float(np.add.reduce(work))
            state.resource_spent[0] += total
        else:
            work = bottleneck_work(state, shares)
            total = float(np.add.reduce(work))
        state.remaining -= work
        finished = (had_work & (state.remaining <= tol)).nonzero()[0]
        last = self.last
        last.count = count = finished.size
        if count:
            last.slots = finished
            last.jobs = state.advance(finished)
        last.t = state.t
        state.t += 1
        last.shares = shares
        last.processed = work
        last.had_work = had_work
        last.progressed = count > 0 or total > tol
        return last

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
        recorder = ShareRecorder() if record_shares else None
        observers = () if recorder is None else (recorder,)
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
        result = BackendResult(
            backend=self.name,
            makespan=makespan,
            shares=np.array(recorder.shares) if recorder is not None else None,
            processed=(
                np.array(recorder.processed) if recorder is not None else None
            ),
            # Built on first read: campaign rows without objectives never read it.
            completion_steps=runtime.state.completion_steps,
            instance=instance,
        )
        if objectives:
            result.objective_values = self._objective_values(
                instance, objectives, result.completion_steps, makespan
            )
        return result
