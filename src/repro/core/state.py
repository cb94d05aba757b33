"""Execution state and configurations.

Two closely related state notions live here:

:class:`ExecState`
    The operational state of a running schedule: per processor, how
    many jobs are done and how much work the active job still needs.
    It implements the *single* authoritative step semantics (Eq. (1)/(2)
    of the paper) used by both :class:`~repro.core.schedule.Schedule`
    (offline replay) and :mod:`repro.core.simulator` (online policies).
    :class:`GridState` runs the same step rule in integer units of
    ``1/D`` (the exact backend's engine for water-fill policies).

:class:`Configuration`
    The paper's Definition 6: a vector
    ``(t, j_1..j_m, v_1..v_m)`` where ``j_i`` counts completed jobs and
    ``v_i`` is the resource already *spent* on the active job.  Used by
    the fixed-``m`` exact algorithm (Section 7) together with its
    *core*/*support* notions and the domination order of Lemma 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from ..exceptions import CheckpointError, InvalidInstanceError
from .instance import Instance
from .job import JobId
from .numerics import ONE, ZERO, to_frac

__all__ = ["ExecState", "GridState", "StepOutcome", "Configuration"]


@dataclass(frozen=True, slots=True)
class StepOutcome:
    """What happened during one executed step (:meth:`ExecState.apply`).

    The validators' report; the kernel's runtimes read the step off
    :meth:`ExecState.execute` and the completion record instead.

    Attributes:
        active: per processor, the job index processed (``None`` if the
            processor was not active: finished, or not yet released).
        processed: per processor, work units processed this step.
        completed: jobs that finished during this step.
        started: jobs that received their first resource this step
            (zero-work jobs count as started when they become active).
    """

    active: tuple[int | None, ...]
    processed: tuple[Fraction, ...]
    completed: tuple[JobId, ...]
    started: tuple[JobId, ...]


class ExecState:
    """Mutable execution state of a CRSharing run.

    The semantics implemented by :meth:`execute` follow Section 3.1:

    * each processor works on its first unfinished job only;
    * the work processed in a step is
      ``min(share, requirement, remaining_work)`` -- the requirement
      caps the useful speed (granting more than ``r_ij`` does not help)
      and a processor cannot start its next job within the same step;
    * a job whose remaining work reaches zero completes in that step;
      the successor job becomes active at the *next* step;
    * a processor with a non-zero release time is *inactive* until its
      release step: it cannot be worked on, and shares granted to it
      are wasted.  With all release times 0 (the paper's static model)
      this clause never triggers.

    Multi-resource instances (``k > 1``) use the same state with
    *matrix* share input: :meth:`execute` then expects ``k`` share rows
    (one per resource), a job's speed is set by its bottleneck
    resource (``min_l s_l / r_l``, capped at full speed), and
    ``remaining`` tracks work in bottleneck resource-time units.
    :attr:`resource_spent` accounts the resource-time actually
    consumed per resource in either mode.
    """

    __slots__ = (
        "instance",
        "t",
        "done",
        "remaining",
        "resource_spent",
        "completions",
        "_started",
        "_releases",
        "_k",
        "_num_jobs",
    )

    #: The shared resource's capacity per step, in the state's units.
    capacity = ONE
    #: Zero in the state's arithmetic (idle shares and work).
    zero = ZERO

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.t = 0
        self.done = [0] * instance.num_processors
        self.remaining = [self._work(i, 0) for i in range(instance.num_processors)]
        #: Cumulative resource-time consumed per shared resource (the
        #: "spent" ledger; one entry per resource, k=1 has exactly one).
        self.resource_spent: list[Fraction] = [self.zero] * instance.num_resources
        #: The completion record: ``((i, j), t)`` per job completed since
        #: the state was built or restored, in completion order.
        self.completions: list[tuple[JobId, int]] = []
        self._started: set[JobId] = set()
        # None for static instances keeps the hot-path checks cheap.
        self._releases = instance.releases if instance.has_releases else None
        self._k = instance.num_resources
        #: ``n_i`` per processor; ``done[i] <= n_i`` always holds.
        self._num_jobs = [len(queue) for queue in instance.queues]

    # ------------------------------------------------------------------
    # Read-only views used by policies
    # ------------------------------------------------------------------
    @property
    def num_processors(self) -> int:
        """``m`` -- the number of processors."""
        return self.instance.num_processors

    def jobs_remaining(self, processor: int) -> int:
        """``n_i(t)`` -- unfinished jobs on *processor*."""
        return self._num_jobs[processor] - self.done[processor]

    def is_active(self, processor: int) -> bool:
        """Released and with unfinished jobs (workable this step)."""
        if self._releases is not None and self.t < self._releases[processor]:
            return False
        return self.done[processor] < self._num_jobs[processor]

    def is_released(self, processor: int) -> bool:
        """True once *processor*'s release time has arrived.

        Always True in the static model.
        """
        return self._releases is None or self.t >= self._releases[processor]

    def active_processors(self) -> list[int]:
        """Indices of all currently workable processors, ascending."""
        return [i for i in range(len(self.done)) if self.is_active(i)]

    @property
    def waiting(self) -> bool:
        """True iff some pending processor has not been released yet.

        Global zero-progress steps are then legitimate: time advances
        toward the next arrival.
        """
        if self._releases is None:
            return False
        return any(
            self.t < self._releases[i]
            and self.done[i] < self._num_jobs[i]
            for i in range(self.num_processors)
        )

    def active_job(self, processor: int) -> int | None:
        """Index of the first unfinished job, or None if inactive."""
        if not self.is_active(processor):
            return None
        return self.done[processor]

    def remaining_work(self, processor: int) -> Fraction:
        """Remaining work (:math:`\\tilde p` units) of the active job.

        0 if the processor has finished everything.
        """
        if not self.is_active(processor):
            return self.zero
        return self.remaining[processor]

    def requirement(self, processor: int) -> Fraction:
        """Requirement ``r_ij`` of *processor*'s first unfinished job."""
        return self.instance.job(processor, self.done[processor]).requirement

    def _work(self, processor: int, index: int) -> Fraction:
        return self.instance.job(processor, index).work

    @property
    def all_done(self) -> bool:
        """True iff every job on every processor has finished.

        An unreleased processor with pending jobs is *not* done,
        merely inactive.
        """
        return self.done == self._num_jobs

    # ------------------------------------------------------------------
    # Snapshot / resume (the checkpoint layer, :mod:`repro.core.checkpoint`)
    # ------------------------------------------------------------------
    def capture(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the mutable execution state.

        Fractions are encoded as exact ``"p/q"`` strings (integers stay
        bare-looking but round-trip through :class:`~fractions.Fraction`
        losslessly), so :meth:`restore` reproduces the state
        bit-identically.  The immutable instance is *not* part of the
        payload; :class:`~repro.core.checkpoint.KernelCheckpoint`
        carries it alongside.
        """
        return {
            "t": self.t,
            "done": list(self.done),
            "remaining": [str(x) for x in self.remaining],
            "resource_spent": [str(x) for x in self.resource_spent],
            "started": sorted([i, j] for (i, j) in self._started),
        }

    def restore(self, data: dict[str, Any]) -> None:
        """Overwrite this state from a :meth:`capture` payload.

        The payload may describe *fewer* processors than this state's
        instance (the service layer restores into an **extended**
        instance whose new queues keep their freshly-initialized
        state); every described processor is validated against the
        instance this state was built over.  The completion record
        restarts empty (the payload does not carry it).

        Raises:
            CheckpointError: on malformed payloads or any
                inconsistency with the instance (counts out of range,
                remaining work exceeding the active job's work, or a
                resource-ledger arity mismatch).
        """
        inst = self.instance
        m = inst.num_processors
        try:
            t = int(data["t"])
            done = [int(x) for x in data["done"]]
            remaining = [to_frac(x) for x in data["remaining"]]
            spent = [to_frac(x) for x in data["resource_spent"]]
            started = {(int(i), int(j)) for i, j in data["started"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed exact state payload: {exc}") from exc
        if t < 0:
            raise CheckpointError(f"negative step counter {t}")
        if not len(done) == len(remaining) <= m:
            raise CheckpointError(
                f"state payload describes {len(done)} processors "
                f"(remaining rows: {len(remaining)}) for an instance "
                f"with {m}"
            )
        if len(spent) != inst.num_resources:
            raise CheckpointError(
                f"resource ledger has {len(spent)} entries for "
                f"{inst.num_resources} shared resource(s)"
            )
        for i, (d, rem) in enumerate(zip(done, remaining)):
            n_i = inst.num_jobs(i)
            if not 0 <= d <= n_i:
                raise CheckpointError(
                    f"done[{i}]={d} out of range 0..{n_i}"
                )
            if d < n_i:
                work = inst.job(i, d).work
                if not ZERO <= rem <= work:
                    raise CheckpointError(
                        f"remaining[{i}]={rem} outside [0, {work}] for "
                        f"active job ({i}, {d})"
                    )
            elif rem != ZERO:
                raise CheckpointError(
                    f"remaining[{i}]={rem} nonzero but processor {i} "
                    "has finished every job"
                )
        for i, j in started:
            if not (0 <= i < m and 0 <= j < inst.num_jobs(i)):
                raise CheckpointError(f"started job ({i}, {j}) does not exist")
        self.t = t
        self.done[: len(done)] = done
        self.remaining[: len(remaining)] = remaining
        self.resource_spent = spent
        self._started = started
        self.completions = []

    def extend(self, instance: Instance, processor: int) -> None:
        """Adopt *instance*: this state's instance plus one job on *processor*.

        In-place growth for online runs (see
        :meth:`Instance.append_job`).  A new processor starts with its
        first job's full work and no progress.  An existing queue keeps
        its progress; if it had already drained, its ``remaining`` stays
        0, so the appended job completes at its first active step
        without consuming work -- the same state a checkpoint restored
        into the grown instance yields.  That is a known defect of the
        extension semantics, kept here so in-place growth and
        checkpoint restore stay bit-identical.
        """
        self.instance = instance
        if processor == len(self.done):
            self._num_jobs.append(0)
            self.done.append(0)
            self.remaining.append(instance.job(processor, 0).work)
            self._releases = instance.releases if instance.has_releases else None
        self._num_jobs[processor] += 1

    # ------------------------------------------------------------------
    # Step semantics
    # ------------------------------------------------------------------
    def completion_steps(self) -> dict[JobId, int]:
        """0-based completion step of every job :attr:`completions` holds."""
        return dict(self.completions)

    def apply(self, shares: Sequence[Fraction]) -> StepOutcome:
        """Execute one step and report it as a :class:`StepOutcome`.

        The validators' form of :meth:`execute` (the same step rule):
        :class:`~repro.core.schedule.Schedule` replays rows through it.
        The caller is responsible for feasibility checks.
        """
        started: list[JobId] = []
        active, processed, count, _ = self.execute(shares, started)
        record = self.completions
        return StepOutcome(
            active=tuple(active),
            processed=tuple(processed),
            completed=tuple(job for job, _ in record[len(record) - count :]),
            started=tuple(started),
        )

    def execute(
        self, shares: Sequence[Fraction], started: list[JobId] | None = None
    ) -> tuple[list[int | None], list[Fraction], int, bool]:
        """Execute one step with the given share vector (or matrix).

        For single-resource instances *shares* is one value per
        processor (the paper's :math:`R_i(t)`); for ``k > 1`` it is a
        sequence of ``k`` rows, one per resource.  The caller is
        responsible for feasibility checks (the kernel's runtimes and
        :class:`~repro.core.schedule.Schedule` validate before calling).

        Each completion is appended to :attr:`completions` as
        ``((i, j), t)``; *started*, if given, receives the jobs that got
        their first resource this step (zero-work jobs count as started
        when they become active).

        Returns:
            ``(active, processed, completed, progressed)``: per
            processor the job index processed (``None`` if the processor
            was not active) and the work processed, the number of jobs
            completed, and whether the step completed a job or
            processed any work.
        """
        if self._k != 1:
            return self._execute_multi(shares, started)
        zero = self.zero
        done = self.done
        remaining = self.remaining
        started_jobs = self._started
        record = self.completions
        t = self.t
        active: list[int | None] = [None] * len(done)
        processed: list[Fraction] = [zero] * len(done)
        count = 0
        progressed = False
        releases = self._releases
        for i, n_i in enumerate(self._num_jobs):
            j = done[i]
            if j >= n_i:
                continue
            if releases is not None and t < releases[i]:
                continue  # not yet released: granted shares are wasted
            active[i] = j
            work = min(shares[i], self.requirement(i), remaining[i])
            if work > zero:
                progressed = True
                self.resource_spent[0] += work
                if (i, j) not in started_jobs:
                    started_jobs.add((i, j))
                    if started is not None:
                        started.append((i, j))
            processed[i] = work
            remaining[i] -= work
            if remaining[i] == zero:
                if (i, j) not in started_jobs:
                    started_jobs.add((i, j))
                    if started is not None:
                        started.append((i, j))
                record.append(((i, j), t))
                count += 1
                done[i] = j + 1
                if j + 1 < n_i:
                    remaining[i] = self._work(i, j + 1)
        self.t = t + 1
        return active, processed, count, progressed or count > 0

    def _execute_multi(
        self, rows: Sequence[Sequence[Fraction]], started: list[JobId] | None
    ) -> tuple[list[int | None], list[Fraction], int, bool]:
        """Multi-resource step: *rows* holds ``k`` share rows.

        A job's speed is set by its bottleneck resource --
        ``min_l min(s_l, r_l) / r_l`` of full speed -- and the work
        bookkeeping stays in bottleneck resource-time units, so the
        ``k = 1`` semantics are the exact special case of this rule.
        """
        inst = self.instance
        m = inst.num_processors
        t = self.t
        record = self.completions
        active: list[int | None] = [None] * m
        processed: list[Fraction] = [ZERO] * m
        count = 0
        progressed = False
        releases = self._releases
        for i in range(m):
            j = self.done[i]
            if j >= inst.num_jobs(i):
                continue
            if releases is not None and t < releases[i]:
                continue  # not yet released: granted shares are wasted
            active[i] = j
            job = inst.job(i, j)
            rstar = job.requirement
            if rstar == ZERO:
                work = ZERO
            else:
                fraction = ONE  # of full speed; bottleneck resource decides
                for lane, req in enumerate(job.requirements):
                    if req > ZERO:
                        granted = min(rows[lane][i], req) / req
                        if granted < fraction:
                            fraction = granted
                work = min(fraction * rstar, self.remaining[i])
            if work > ZERO and (i, j) not in self._started:
                self._started.add((i, j))
                if started is not None:
                    started.append((i, j))
            processed[i] = work
            self.remaining[i] -= work
            if work > ZERO:
                progressed = True
                progress = work / rstar
                spent = self.resource_spent
                for lane, req in enumerate(job.requirements):
                    if req > ZERO:
                        spent[lane] += progress * req
            if self.remaining[i] == ZERO:
                if (i, j) not in self._started:
                    self._started.add((i, j))
                    if started is not None:
                        started.append((i, j))
                record.append(((i, j), t))
                count += 1
                self.done[i] += 1
                if self.done[i] < inst.num_jobs(i):
                    self.remaining[i] = inst.job(i, self.done[i]).work
        self.t = t + 1
        return active, processed, count, progressed or count > 0


class GridState(ExecState):
    """:class:`ExecState` in integer units of ``1/D`` (k=1).

    The units are the instance's job table
    (:meth:`~repro.core.instance.Instance.job_table`).  Work,
    requirements, shares and :attr:`capacity` (``D``) are ints, so the
    inherited step rule and water-fill run exactly without ``Fraction``.

    Raises:
        InvalidInstanceError: unless ``k == 1`` and every work is a
            whole number of ``1/D`` units (the table is on the grid).
    """

    __slots__ = ("capacity", "_units", "_works")
    zero = 0

    def __init__(self, instance: Instance) -> None:
        table = instance.job_table()
        if instance.num_resources != 1 or not table.on_grid:
            raise InvalidInstanceError(
                "the integer grid state needs k=1 and every work a whole "
                f"number of 1/{table.req_den} units"
            )
        self._units = table.queues(table.rstar)
        self._works = table.queues(table.works)
        self.capacity = table.req_den
        super().__init__(instance)

    def requirement(self, processor: int) -> int:
        """Requirement of *processor*'s first unfinished job, in units."""
        return self._units[processor][self.done[processor]]

    def _work(self, processor: int, index: int) -> int:
        return self._works[processor][index]


@dataclass(frozen=True, slots=True)
class Configuration:
    """Definition 6: the state of a schedule before a round.

    Attributes:
        t: the (0-based) number of steps already executed.
        completed: ``(j_1(t), ..., j_m(t))`` -- jobs completed per
            processor; the paper's *core*.
        spent: ``(v_1(t), ..., v_m(t))`` -- resource already spent on
            each processor's active job (0 if not started or no active
            job).
    """

    t: int
    completed: tuple[int, ...]
    spent: tuple[Fraction, ...]

    @property
    def core(self) -> tuple[int, ...]:
        """The paper's ``core(γ) = (j_1, ..., j_m)``."""
        return self.completed

    @property
    def support(self) -> tuple[int, ...]:
        """``supp(γ) = { i : v_i > 0 }``.

        The processors whose active job is partially processed.
        """
        return tuple(i for i, v in enumerate(self.spent) if v > ZERO)

    def dominates(self, other: "Configuration") -> bool:
        """Domination order used by Algorithm 2's pruning (Lemma 4).

        Equal or better in *every* component: no later, no fewer jobs
        done on any processor, and no less resource invested anywhere.
        """
        if self.t > other.t:
            return False
        if any(a < b for a, b in zip(self.completed, other.completed)):
            return False
        if any(a < b for a, b in zip(self.spent, other.spent)):
            return False
        return True

    def step_equal(self, other: "Configuration") -> bool:
        """Same round and same core (Definition 6's *step-equal*)."""
        return self.t == other.t and self.completed == other.completed

    @classmethod
    def initial(cls, instance: Instance) -> "Configuration":
        """The configuration before any step has executed."""
        m = instance.num_processors
        return cls(t=0, completed=(0,) * m, spent=(ZERO,) * m)

    def is_final(self, instance: Instance) -> bool:
        """True iff every job of *instance* is completed."""
        return all(
            self.completed[i] >= instance.num_jobs(i)
            for i in range(instance.num_processors)
        )
