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
from ..kernels import (
    decide,
    normalize_compiled,
    note_fallback,
    replay_run,
    run_fused_instance,
)
from ..telemetry import get_session
from .base import Backend, BackendResult, backend_run_span

__all__ = ["VectorState", "VectorRuntime", "VectorBackend"]


class VectorState:
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
        m = instance.num_processors
        nmax = instance.max_jobs
        k = instance.num_resources
        self.instance = instance
        self.t = 0
        self.num_resources = k
        self.num_jobs = np.array(
            [instance.num_jobs(i) for i in range(m)], dtype=np.int64
        )
        self.done = np.zeros(m, dtype=np.int64)
        # Requirements / work padded to a rectangle; the padding is
        # never read (done is bounded by num_jobs).
        self._req = np.zeros((m, nmax), dtype=np.float64)
        self._work = np.zeros((m, nmax), dtype=np.float64)
        self._wgt = np.zeros((m, nmax), dtype=np.float64)
        self._dl = np.full((m, nmax), np.inf, dtype=np.float64)
        for i, queue in enumerate(instance.queues):
            for j, job in enumerate(queue):
                self._req[i, j] = float(job.requirement)
                self._work[i, j] = float(job.work)
                self._wgt[i, j] = float(job.weight)
                if job.deadline is not None:
                    self._dl[i, j] = float(job.deadline)
        self._release = np.array(instance.releases, dtype=np.int64)
        self._released = self._release <= 0
        self._all_released = bool(self._released.all())
        # Unreleased processors are masked to zero until they arrive.
        self.remaining = np.where(self._released, self._work[:, 0], 0.0)
        self.active_requirements = np.where(
            self._released, self._req[:, 0], 0.0
        )
        self.active_weights = np.where(self._released, self._wgt[:, 0], 0.0)
        self.active_deadlines = np.where(
            self._released, self._dl[:, 0], np.inf
        )
        self.resource_spent = np.zeros(k, dtype=np.float64)
        if k == 1:
            # Degenerate share-matrix view; no separate bookkeeping.
            self._reqk = None
            self.active_req_matrix = self.active_requirements.reshape(1, m)
        else:
            self._reqk = np.zeros((k, m, nmax), dtype=np.float64)
            for i, queue in enumerate(instance.queues):
                for j, job in enumerate(queue):
                    for lane, r in enumerate(job.requirements):
                        self._reqk[lane, i, j] = float(r)
            self.active_req_matrix = np.where(
                self._released[None, :], self._reqk[:, :, 0], 0.0
            )

    @property
    def num_processors(self) -> int:
        """``m`` -- the number of processors."""
        return int(self.num_jobs.shape[0])

    @property
    def active_mask(self) -> np.ndarray:
        """Boolean mask of released processors with unfinished jobs."""
        if self._all_released:
            return self.done < self.num_jobs
        return self._released & (self.done < self.num_jobs)

    @property
    def pending_mask(self) -> np.ndarray:
        """Boolean mask of processors with unfinished jobs.

        Released or not: arrival-aware policies reason about future
        work too.
        """
        return self.done < self.num_jobs

    @property
    def released_mask(self) -> np.ndarray:
        """Boolean mask of processors whose release time has arrived."""
        return self._released.copy()

    @property
    def jobs_remaining(self) -> np.ndarray:
        """``n_i(t)`` for every processor, as an int64 array."""
        return self.num_jobs - self.done

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

    def begin_step(self) -> None:
        """Unmask processors whose release time has arrived."""
        if self._all_released:
            return
        newly = ~self._released & (self._release <= self.t)
        if newly.any():
            idx = np.flatnonzero(newly)
            self.remaining[idx] = self._work[idx, self.done[idx]]
            self.active_requirements[idx] = self._req[idx, self.done[idx]]
            self.active_weights[idx] = self._wgt[idx, self.done[idx]]
            self.active_deadlines[idx] = self._dl[idx, self.done[idx]]
            if self._reqk is not None:
                self.active_req_matrix[:, idx] = self._reqk[
                    :, idx, self.done[idx]
                ]
            self._released |= newly
            self._all_released = bool(self._released.all())

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
        j = np.minimum(done, nn - 1)
        idx = np.arange(mm)
        cap = np.where(done < nn, self._work[idx, j], 0.0)
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
        live = released & (done < nn)
        self.active_requirements[:mm] = np.where(live, self._req[idx, j], 0.0)
        self.active_weights[:mm] = np.where(live, self._wgt[idx, j], 0.0)
        self.active_deadlines[:mm] = np.where(live, self._dl[idx, j], np.inf)
        if self._reqk is not None:
            self.active_req_matrix[:, :mm] = np.where(
                live[None, :], self._reqk[:, idx, j], 0.0
            )

    def extend(self, instance: Instance, processor: int) -> None:
        """Adopt *instance*: this state's instance plus one job on *processor*.

        Writes only the new job's row into the padded tables, which
        grow by doubling their job capacity when a queue fills them; a
        new processor adds one lane, released at its release time like
        the lanes of a fresh state.  The resulting state equals a
        checkpoint of this state restored into *instance*, including
        its known defect: on a queue that had already drained, the
        active views load the new job but ``remaining`` stays 0, so the
        job completes at its first active step without consuming work.
        """
        job = instance.job(processor, instance.num_jobs(processor) - 1)
        if processor == self.num_processors:
            self._add_lane(instance.release(processor))
        i = processor
        j = int(self.num_jobs[i])
        if j == self._req.shape[1]:
            self._grow_tables(2 * j)
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

    def advance(self, finished: np.ndarray) -> None:
        """Complete the active jobs of the *finished* index array.

        Loads the successor job (or zeros the lane) on each.
        """
        self.done[finished] += 1
        has_next = finished[self.done[finished] < self.num_jobs[finished]]
        self.remaining[has_next] = self._work[has_next, self.done[has_next]]
        self.active_requirements[has_next] = self._req[
            has_next, self.done[has_next]
        ]
        self.active_weights[has_next] = self._wgt[has_next, self.done[has_next]]
        self.active_deadlines[has_next] = self._dl[
            has_next, self.done[has_next]
        ]
        exhausted = finished[self.done[finished] >= self.num_jobs[finished]]
        self.remaining[exhausted] = 0.0
        self.active_requirements[exhausted] = 0.0
        self.active_weights[exhausted] = 0.0
        self.active_deadlines[exhausted] = np.inf
        if self._reqk is not None:
            self.active_req_matrix[:, has_next] = self._reqk[
                :, has_next, self.done[has_next]
            ]
            self.active_req_matrix[:, exhausted] = 0.0


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
        if (shares < -tol).any() or (shares > 1.0 + tol).any():
            raise InfeasibleAssignmentError(
                f"step {t}: share outside [0, 1] "
                f"(min={shares.min()}, max={shares.max()})"
            )
        # Per-resource capacity: sum over processors (the flat vector
        # is the k=1 row of the same formulation).
        totals = shares.sum(axis=-1, keepdims=False)
        worst = float(np.max(totals))
        if worst > 1.0 + tol:
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
            completed = tuple(
                (int(i), int(state.done[i])) for i in finished
            )
            state.advance(finished)
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
        compiled: default dispatch mode for the compiled tier
            (:mod:`repro.kernels`): ``"auto"`` (the default) routes
            eligible runs -- built-in water-filling policy, no share
            recording, numba installed -- through the JIT-fused
            whole-run driver and falls back per-step otherwise (the
            fallback reason lands in the ``compiled.fallbacks``
            telemetry counter); ``"on"`` forces the fused driver (even
            interpreted, without numba) and raises
            :class:`~repro.exceptions.CompiledUnsupportedError` for
            ineligible runs; ``"off"`` never compiles.  ``run`` can
            override per call.
    """

    name = "vector"

    def __init__(
        self, *, tol: float = 1e-9, compiled: str | bool = "auto"
    ) -> None:
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.tol = float(tol)
        self.compiled = normalize_compiled(compiled)

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
        compiled: str | bool | None = None,
    ) -> BackendResult:
        """Run *policy* on *instance* through the float64 kernel.

        *policy* may be a registry name; see
        :func:`repro.algorithms.resolve_policy`.  *compiled* overrides
        the backend's dispatch mode for this run (``None`` keeps it);
        eligible runs execute inside the JIT-fused whole-run driver
        and return no share rows (``shares is None``, as with
        ``record_shares=False``).
        """
        policy = self._resolve_policy(policy)
        mode = normalize_compiled(compiled, default=self.compiled)
        if mode != "off":
            decision = decide(policy, mode, record_shares=record_shares)
            if decision.code is not None:
                return self._run_compiled(
                    instance,
                    policy,
                    decision.code,
                    max_steps=max_steps,
                    stall_limit=stall_limit,
                    objectives=objectives,
                )
            note_fallback(decision.reason)
        runtime = self.make_runtime(instance, policy)
        completions = CompletionRecorder()
        recorders = self._objective_observers(instance, objectives)
        observers: list = [completions, *recorders]
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
            objective_values=self._objective_values(recorders),
        )

    def _run_compiled(
        self,
        instance: Instance,
        policy,
        policy_code: int,
        *,
        max_steps: int | None,
        stall_limit: int,
        objectives,
    ) -> BackendResult:
        """Serve one run through the JIT-fused whole-run driver.

        The driver returns the makespan and a completion-step table;
        replaying that table through the objective recorders yields
        exactly the values a per-step run produces (objectives depend
        only on completion events and the makespan).
        """
        recorders = self._objective_observers(instance, objectives)
        with backend_run_span(self.name, instance, policy) as span:
            makespan, completion = run_fused_instance(
                instance,
                policy_code,
                tol=self.tol,
                max_steps=max_steps,
                stall_limit=stall_limit,
            )
            completion_steps = replay_run(completion, makespan, recorders)
            if span is not None:
                span.note(makespan=makespan, compiled=True)
        session = get_session()
        if session is not None:
            session.metrics.counter("compiled.runs").inc()
            session.metrics.counter("compiled.steps").inc(makespan)
        return BackendResult(
            backend=self.name,
            makespan=makespan,
            completion_steps=completion_steps,
            instance=instance,
            objective_values=self._objective_values(recorders),
        )
