"""Problem instances for CRSharing (Section 3.1).

An :class:`Instance` is ``m`` sequences of :class:`~repro.core.job.Job`
objects, one sequence per processor.  The job-to-processor assignment
and the order of jobs on a processor are *fixed* -- this is the paper's
central modelling decision: the scheduler only distributes the shared
resource, it does not place jobs.

The class carries the derived quantities used throughout the paper:

* ``n`` -- the maximum number of jobs on any processor,
* ``M_j`` -- the set of processors with at least ``j`` jobs
  (:meth:`Instance.processors_with_at_least`),
* the total work :math:`\\sum_{i,j} r_{ij} p_{ij}` behind
  Observation 1 (:meth:`Instance.total_work`).

Online-arrival extension
========================

Beyond the paper's static model, an instance may carry per-processor
integer *release times*: processor ``i``'s queue only becomes
available at step ``releases[i]`` (inactive-until-released, in the
spirit of the dynamic generalizations studied by Maack et al.'s
*Scheduling with Many Shared Resources*).  The default of all zeros
reproduces the paper's static model bit-for-bit; the exact algorithms
of Sections 5-8 analyze the static model only and reject instances
with non-zero release times via :meth:`Instance.require_static`.

Multi-resource extension
========================

An instance may declare ``k >= 1`` shared resources (again after
Maack et al.): every job carries a requirement *vector*
:math:`r_{ij} \\in [0,1]^k`, each resource has capacity 1 per step,
and a job's speed is dictated by its bottleneck resource
(:math:`\\min_l s_l / r_{ijl}`).  All jobs of one instance must agree
on ``k`` (:attr:`Instance.num_resources`); the paper's model is the
``k = 1`` special case and executes bit-identically.  The exact
offline algorithms and the :class:`~repro.core.schedule.Schedule`
artifact analyze the single-resource model only and reject ``k > 1``
via :meth:`Instance.require_single_resource`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from ..exceptions import InvalidInstanceError, UnitSizeRequiredError
from .job import Job, JobId
from .numerics import (
    Num,
    common_denominator,
    frac_ceil,
    frac_sum,
    product_sum,
    to_frac,
)

__all__ = ["Instance"]


class Instance:
    """An immutable CRSharing problem instance.

    Args:
        queues: one sequence of jobs per processor.  Elements may be
            :class:`Job` objects or bare numbers (interpreted as
            unit-size requirements), so
            ``Instance([[0.5, 0.5], [1, "1/3"]])`` works.
        releases: optional per-processor integer release times (step at
            which the processor's queue becomes available).  ``None``
            (the default) means all zeros -- the paper's static model.

    Raises:
        InvalidInstanceError: if there are no processors, any processor
            has an empty job sequence, the jobs disagree on the number
            of shared resources, or a release time is negative or
            mis-shaped.  (The paper allows ``n_i >= 1`` implicitly; an
            idle processor adds nothing to the problem and would break
            several notational conventions, so we reject it at
            construction.)

    Example:
        >>> inst = Instance([["1/2", "1/2"], [1, "1/3"]])
        >>> inst.m, inst.max_jobs, inst.num_resources
        (2, 2, 1)
    """

    __slots__ = ("_queues", "_releases", "_k", "_hash")

    def __init__(
        self,
        queues: Iterable[Iterable[Job | Num]],
        *,
        releases: Sequence[int] | None = None,
    ) -> None:
        built: list[tuple[Job, ...]] = []
        k: int | None = None
        for qi, queue in enumerate(queues):
            jobs: list[Job] = []
            for job in queue:
                if not isinstance(job, Job):
                    job = Job(job)
                jk = len(job.requirements)
                if jk != k:
                    if k is None:
                        k = jk
                    else:
                        raise InvalidInstanceError(
                            f"all jobs must declare the same number of shared "
                            f"resources: processor {qi} has a job with "
                            f"{jk}, expected {k}"
                        )
                jobs.append(job)
            if not jobs:
                raise InvalidInstanceError(f"processor {qi} has an empty job sequence")
            built.append(tuple(jobs))
        if not built:
            raise InvalidInstanceError("an instance needs at least one processor")
        self._queues: tuple[tuple[Job, ...], ...] = tuple(built)
        self._k = k
        if releases is None:
            self._releases: tuple[int, ...] = (0,) * len(built)
        else:
            rel = tuple(int(r) for r in releases)
            if len(rel) != len(built):
                raise InvalidInstanceError(
                    f"releases has {len(rel)} entries for {len(built)} processors"
                )
            if any(r < 0 for r in rel):
                raise InvalidInstanceError(
                    f"release times must be non-negative, got {rel}"
                )
            self._releases = rel
        self._hash: int | None = None

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def num_processors(self) -> int:
        """``m`` -- the number of processors."""
        return len(self._queues)

    @property
    def m(self) -> int:
        """Alias for :attr:`num_processors` matching the paper."""
        return len(self._queues)

    @property
    def queues(self) -> tuple[tuple[Job, ...], ...]:
        """The job sequences, one tuple per processor."""
        return self._queues

    def num_jobs(self, processor: int) -> int:
        """``n_i`` -- the number of jobs on *processor*."""
        return len(self._queues[processor])

    @property
    def max_jobs(self) -> int:
        """``n = max_i n_i`` -- the longest job sequence."""
        return max(len(q) for q in self._queues)

    @property
    def total_jobs(self) -> int:
        """Total number of jobs over all processors."""
        return sum(len(q) for q in self._queues)

    def job(self, processor: int, index: int) -> Job:
        """The job ``(processor, index)`` (0-based indices)."""
        return self._queues[processor][index]

    def jobs(self) -> Iterator[tuple[JobId, Job]]:
        """Iterate over ``((i, j), job)`` pairs in processor-major order."""
        for i, queue in enumerate(self._queues):
            for j, job in enumerate(queue):
                yield (i, j), job

    def requirement(self, processor: int, index: int) -> Fraction:
        """``r_{ij}`` of job ``(processor, index)`` (bottleneck for ``k > 1``)."""
        return self._queues[processor][index].requirement

    def requirements(self, processor: int) -> tuple[Fraction, ...]:
        """All (bottleneck) requirements on one processor, in order."""
        return tuple(job.requirement for job in self._queues[processor])

    # ------------------------------------------------------------------
    # Shared resources (multi-resource extension)
    # ------------------------------------------------------------------
    @property
    def num_resources(self) -> int:
        """``k`` -- the number of shared resources (1 in the paper's model)."""
        return self._k

    @property
    def is_single_resource(self) -> bool:
        """True iff this is the paper's one-resource model (``k == 1``)."""
        return self._k == 1

    def require_single_resource(self, algorithm: str) -> None:
        """Raise :class:`InvalidInstanceError` unless ``k == 1``.

        The paper's exact offline algorithms, the
        :class:`~repro.core.schedule.Schedule` artifact, and the
        integer-grid fast paths analyze the single-resource model only;
        multi-resource instances run through the kernel backends.
        """
        if self._k != 1:
            raise InvalidInstanceError(
                f"{algorithm} analyzes the paper's single-resource model "
                f"(k=1); this instance declares {self._k} shared resources "
                "-- use the simulator backends (run_policy / run_backend) "
                "for the multi-resource extension"
            )

    # ------------------------------------------------------------------
    # Release times (online-arrival extension)
    # ------------------------------------------------------------------
    @property
    def releases(self) -> tuple[int, ...]:
        """Per-processor release times (all zero in the static model)."""
        return self._releases

    def release(self, processor: int) -> int:
        """Release time of *processor*'s queue (0 in the static model)."""
        return self._releases[processor]

    @property
    def has_releases(self) -> bool:
        """True iff any processor arrives after step 0."""
        return any(r != 0 for r in self._releases)

    @property
    def max_release(self) -> int:
        """The latest release time (0 for static instances)."""
        return max(self._releases)

    def with_releases(self, releases: Sequence[int] | None) -> "Instance":
        """A copy of this instance with the given release times."""
        return Instance(self._queues, releases=releases)

    def require_static(self, algorithm: str) -> None:
        """Reject instances with non-zero release times.

        The exact offline algorithms and closed-form makespan formulas
        (Sections 4-8) analyze the static model only; they raise
        :class:`InvalidInstanceError` through this guard.
        """
        if self.has_releases:
            raise InvalidInstanceError(
                f"{algorithm} assumes the paper's static model (all "
                f"release times 0); this instance has releases "
                f"{self._releases} -- use the simulator/backends for "
                "online arrivals"
            )

    # ------------------------------------------------------------------
    # Objective annotations (weights / deadlines extension)
    # ------------------------------------------------------------------
    @property
    def has_weights(self) -> bool:
        """True iff any job carries a non-default objective weight."""
        return any(not job.is_unit_weight for _, job in self.jobs())

    @property
    def has_deadlines(self) -> bool:
        """True iff any job carries a due step."""
        return any(job.has_deadline for _, job in self.jobs())

    def total_weight(self) -> Fraction:
        """Sum of all job weights (``total_jobs`` in the unit case)."""
        return frac_sum(job.weight for _, job in self.jobs())

    def with_weights(self, weights: Sequence[Sequence[Num]]) -> "Instance":
        """A copy with per-job objective weights (queue-shaped input)."""
        if len(weights) != self.num_processors:
            raise InvalidInstanceError(
                f"weights has {len(weights)} rows for "
                f"{self.num_processors} processors"
            )
        queues = []
        for i, queue in enumerate(self._queues):
            if len(weights[i]) != len(queue):
                raise InvalidInstanceError(
                    f"weights[{i}] has {len(weights[i])} entries for "
                    f"{len(queue)} jobs"
                )
            queues.append(
                [job.replace(weight=w) for job, w in zip(queue, weights[i])]
            )
        return Instance(queues, releases=self._releases)

    def with_deadlines(
        self, deadlines: Sequence[Sequence[int | None]]
    ) -> "Instance":
        """A copy with per-job due steps (queue-shaped; ``None`` clears)."""
        if len(deadlines) != self.num_processors:
            raise InvalidInstanceError(
                f"deadlines has {len(deadlines)} rows for "
                f"{self.num_processors} processors"
            )
        queues = []
        for i, queue in enumerate(self._queues):
            if len(deadlines[i]) != len(queue):
                raise InvalidInstanceError(
                    f"deadlines[{i}] has {len(deadlines[i])} entries for "
                    f"{len(queue)} jobs"
                )
            queues.append(
                [job.replace(deadline=d) for job, d in zip(queue, deadlines[i])]
            )
        return Instance(queues, releases=self._releases)

    def earliest_completion_times(self) -> dict[JobId, int]:
        """Per job, the earliest possible 1-based completion time.

        Processor *i* cannot start before its release and processes its
        queue in order at best at full speed, so job ``(i, j)`` cannot
        complete before ``releases[i] + sum_{j' <= j} ceil(p_{ij'})``.
        Resource contention between processors is ignored, so these are
        valid per-job lower bounds under *any* feasible schedule -- the
        base certificates of the flow/tardiness objective bounds.
        """
        earliest: dict[JobId, int] = {}
        for i, queue in enumerate(self._queues):
            steps = self._releases[i]
            for j, job in enumerate(queue):
                steps += job.steps_at_full_speed()
                earliest[(i, j)] = steps
        return earliest

    # ------------------------------------------------------------------
    # Paper quantities
    # ------------------------------------------------------------------
    def processors_with_at_least(self, j: int) -> tuple[int, ...]:
        """``M_j = { i : n_i >= j }`` for 1-based job index *j*.

        Matches the paper's definition, so ``processors_with_at_least(1)``
        is every processor.
        """
        if j < 1:
            raise ValueError(f"job index must be >= 1 (paper convention), got {j}")
        return tuple(i for i, q in enumerate(self._queues) if len(q) >= j)

    def total_work(self) -> Fraction:
        """:math:`\\sum_{i,j} r_{ij} \\cdot p_{ij}` -- total resource-time.

        By Observation 1, ``ceil(total_work())`` lower-bounds the
        makespan of any feasible schedule.  For ``k > 1`` this sums the
        *bottleneck* work of every job; use :meth:`resource_work` for
        the per-resource congestion totals.
        """
        return product_sum((job.requirement, job.size) for _, job in self.jobs())

    def resource_work(self, resource: int) -> Fraction:
        """Congestion :math:`W_l = \\sum_{i,j} r_{ijl} \\cdot p_{ij}` of one resource.

        The resource-time demanded from shared resource *resource*;
        ``resource_work(0) == total_work()`` for ``k == 1``.
        """
        return product_sum(
            (job.requirements[resource], job.size) for _, job in self.jobs()
        )

    def work_lower_bound(self) -> int:
        """Observation 1, per resource: ``max_l ceil(W_l)`` steps.

        Each resource has capacity 1 per step, so the most congested
        resource lower-bounds the makespan.  For ``k == 1`` this is
        exactly the paper's ``ceil(total work)`` bound.
        """
        if self._k == 1:
            return frac_ceil(self.total_work())
        return max(frac_ceil(self.resource_work(r)) for r in range(self._k))

    def makespan_lower_bound(self) -> int:
        """A makespan lower bound that accounts for release times.

        For static instances this is exactly :meth:`work_lower_bound`
        (Observation 1, the paper's canonical bound; the per-resource
        congestion maximum for ``k > 1``).  With arrivals it
        additionally uses that (a) the resource is unusable before the
        earliest release, and (b) each processor needs at least
        ``sum_j ceil(p_ij)`` steps after its own release (a job cannot
        finish faster than its volume even at full speed).
        """
        if not self.has_releases:
            return self.work_lower_bound()
        bound = min(self._releases) + self.work_lower_bound()
        for i, queue in enumerate(self._queues):
            steps = sum(job.steps_at_full_speed() for job in queue)
            bound = max(bound, self._releases[i] + steps)
        return bound

    @property
    def is_unit_size(self) -> bool:
        """True iff every job has unit size (the analyzed restriction)."""
        return all(job.is_unit for _, job in self.jobs())

    def require_unit_size(self, algorithm: str) -> None:
        """Reject instances with non-unit job sizes.

        Exact algorithms from Sections 5-8 raise
        :class:`UnitSizeRequiredError` through this guard.
        """
        if not self.is_unit_size:
            raise UnitSizeRequiredError(
                f"{algorithm} is defined for unit-size jobs only "
                "(Sections 4-8 of the paper); use the simulator for the "
                "general model"
            )

    # ------------------------------------------------------------------
    # Integer grid
    # ------------------------------------------------------------------
    def resource_denominator(self) -> int:
        """Least common denominator of all requirement components (>= 1)."""
        return common_denominator(
            r for _, job in self.jobs() for r in job.requirements
        )

    def to_integer_grid(self) -> tuple[list[list[int]], int]:
        """Express all requirements as integers over a common grid.

        Returns ``(units, D)`` with
        ``units[i][j] * Fraction(1, D) == r_{ij}``; the per-step
        resource capacity becomes ``D`` units.  Algorithms that only
        add and compare requirements can then run in pure integer
        arithmetic.  Single-resource only (the integer fast paths
        model the paper's scalar requirements).
        """
        self.require_single_resource("to_integer_grid")
        d = self.resource_denominator()
        units = [
            [r.numerator * (d // r.denominator) for r in self.requirements(i)]
            for i in range(len(self._queues))
        ]
        return units, d

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_requirements(
        cls,
        requirements: Sequence[Sequence[Num]],
        *,
        releases: Sequence[int] | None = None,
    ) -> "Instance":
        """Build a unit-size instance from raw requirement values.

        Each entry may be a bare number (single resource) or a
        sequence of ``k`` numbers (one requirement per shared
        resource).
        """
        return cls(
            [[Job(r) for r in row] for row in requirements], releases=releases
        )

    @classmethod
    def from_bag(
        cls,
        jobs: Iterable[Job | Num],
        m: int,
        *,
        releases: Sequence[int] | None = None,
    ) -> "Instance":
        """Deal a flat bag of jobs onto ``m`` processors round-robin.

        The paper fixes the job-to-processor assignment and the order
        of each queue a priori; this constructor is the entry point of
        the *sequencing* extension (:mod:`repro.sequencing`), which
        treats both as decision variables.  Job ``b`` of the bag lands
        on processor ``b mod m``, preserving bag order within each
        queue -- the identity placement a
        :class:`~repro.sequencing.Sequencer` then improves on.

        Raises:
            InvalidInstanceError: if ``m < 1`` or the bag has fewer
                than ``m`` jobs (every processor needs a non-empty
                queue).

        Example:
            >>> Instance.from_bag(["1/2", "1/4", "3/4"], 2).queues
            ((Job(0.5), Job(0.75)), (Job(0.25),))
        """
        bag = cls.coerce_bag(jobs, m)
        queues: list[list[Job]] = [[] for _ in range(m)]
        for b, job in enumerate(bag):
            queues[b % m].append(job)
        return cls(queues, releases=releases)

    @classmethod
    def coerce_bag(cls, jobs: Iterable[Job | Num], m: int) -> list[Job]:
        """Normalize a flat bag for placement on ``m`` processors.

        Shared by :meth:`from_bag` and the placement sequencers: bare
        numbers become unit-size :class:`Job` objects, and the bag
        must be able to fill every processor.

        Raises:
            InvalidInstanceError: if ``m < 1`` or the bag has fewer
                than ``m`` jobs.
        """
        if m < 1:
            raise InvalidInstanceError(f"need at least one processor, got m={m}")
        bag = [job if isinstance(job, Job) else Job(job) for job in jobs]
        if len(bag) < m:
            raise InvalidInstanceError(
                f"a bag of {len(bag)} jobs cannot fill {m} processors "
                "(every processor needs a non-empty queue)"
            )
        return bag

    def job_bag(self) -> tuple[Job, ...]:
        """All jobs as one flat bag, in processor-major order.

        The inverse view of :meth:`from_bag`: sequencing strategies
        that re-place jobs across processors flatten through this.
        """
        return tuple(job for _, job in self.jobs())

    def same_bag(self, other: "Instance") -> bool:
        """True iff *other* schedules the same multiset of jobs.

        Queue orders, the job-to-processor assignment, and release
        times may differ -- this is the invariant every
        :class:`~repro.sequencing.Sequencer` must preserve (reordering
        decides *when and where*, never *what*).
        """
        def key(job: Job):
            """Total-order key over the compared job attributes.

            ``None`` deadlines sort after every concrete step
            (comparing ``None`` with ``int`` directly would raise).
            """
            return (
                job.requirements,
                job.size,
                job.weight,
                job.deadline is None,
                job.deadline or 0,
            )

        return sorted(map(key, self.job_bag())) == sorted(
            map(key, other.job_bag())
        )

    def with_queues(
        self, queues: Iterable[Iterable[Job | Num]]
    ) -> "Instance":
        """A copy with the job queues replaced, keeping release times.

        The new queues must keep the processor count (release times are
        per processor); use the plain constructor to change ``m``.

        Raises:
            InvalidInstanceError: on a processor-count mismatch.
        """
        built = [tuple(queue) for queue in queues]
        if len(built) != self.num_processors:
            raise InvalidInstanceError(
                f"with_queues got {len(built)} queues for "
                f"{self.num_processors} processors (release times are "
                "per processor; build a new Instance to change m)"
            )
        return Instance(built, releases=self._releases)

    def append_job(
        self, job: Job | Num, processor: int, *, release: int | None = None
    ) -> "Instance":
        """A copy with *job* appended to one queue, or opening a new one.

        The growth step of an online run: ``processor < m`` appends at
        the tail of that queue, ``processor == m`` adds a new processor
        whose queue holds just *job* and which is released at *release*
        (default 0).  The untouched queue tuples are shared, and only
        the new job and the new release are validated, so the cost does
        not depend on the size of the other queues.

        Raises:
            InvalidInstanceError: *processor* outside ``0..m``, a job
                with a different resource count ``k``, a negative
                release, or a *release* given for an existing queue
                (release times are fixed once a processor exists).

        Example:
            >>> inst = Instance([["1/2"]])
            >>> grown = inst.append_job("1/4", 0).append_job("3/4", 1, release=2)
            >>> [len(queue) for queue in grown.queues], grown.releases
            ([2, 1], (0, 2))
        """
        if not isinstance(job, Job):
            job = Job(job)
        if len(job.requirements) != self._k:
            raise InvalidInstanceError(
                f"all jobs must declare the same number of shared "
                f"resources: the appended job has {len(job.requirements)}, "
                f"expected {self._k}"
            )
        m = len(self._queues)
        grown = Instance.__new__(Instance)
        grown._k = self._k
        grown._hash = None
        if processor == m:
            rel = 0 if release is None else int(release)
            if rel < 0:
                raise InvalidInstanceError(
                    f"release times must be non-negative, got {rel}"
                )
            grown._queues = self._queues + ((job,),)
            grown._releases = self._releases + (rel,)
            return grown
        if not 0 <= processor < m:
            raise InvalidInstanceError(
                f"cannot append to processor {processor} of an instance "
                f"with {m} (use {m} to open a new queue)"
            )
        if release is not None:
            raise InvalidInstanceError(
                f"processor {processor} already exists; its release time "
                "cannot be set by appending a job"
            )
        queues = list(self._queues)
        queues[processor] = queues[processor] + (job,)
        grown._queues = tuple(queues)
        grown._releases = self._releases
        return grown

    def with_order(self, orders: Sequence[Sequence[int]]) -> "Instance":
        """A copy with each processor's queue permuted.

        ``orders[i]`` is a permutation of ``range(n_i)`` listing
        processor *i*'s job indices in their new execution order --
        the order-permutation helper behind the static sequencing
        strategies.  ``with_order([range(n_i) ...])`` is the identity.

        Raises:
            InvalidInstanceError: if the row count mismatches or any
                row is not a permutation of that queue's indices.

        Example:
            >>> inst = Instance([["1/2", "1/4"], ["3/4"]])
            >>> inst.with_order([[1, 0], [0]]).queues
            ((Job(0.25), Job(0.5)), (Job(0.75),))
        """
        if len(orders) != self.num_processors:
            raise InvalidInstanceError(
                f"with_order got {len(orders)} rows for "
                f"{self.num_processors} processors"
            )
        queues = []
        for i, queue in enumerate(self._queues):
            order = [int(j) for j in orders[i]]
            if sorted(order) != list(range(len(queue))):
                raise InvalidInstanceError(
                    f"with_order row {i} = {order} is not a permutation "
                    f"of 0..{len(queue) - 1}"
                )
            queues.append(tuple(queue[j] for j in order))
        return Instance(queues, releases=self._releases)

    @classmethod
    def from_percent(cls, percents: Sequence[Sequence[Num]]) -> "Instance":
        """Build a unit-size instance from requirements given in percent.

        The notation used by the paper's figures: node label ``55``
        means :math:`r = 0.55`.
        """
        return cls([[Job(to_frac(p) / 100) for p in row] for row in percents])

    def restrict_to_suffix(self, completed: Sequence[int]) -> "Instance":
        """Sub-instance with the given per-processor job prefixes removed.

        The first ``completed[i]`` jobs of each processor are dropped,
        and processors that become empty are dropped entirely.  The
        suffix models a *residual* workload observed mid-schedule,
        after every processor has arrived, so release times are dropped
        (the result is always static).

        Used by the Case-2 analysis of Theorem 7 and by tests that
        recurse on residual workloads.
        """
        if len(completed) != self.num_processors:
            raise ValueError("completed must have one entry per processor")
        rows = []
        for i, queue in enumerate(self._queues):
            done = completed[i]
            if not 0 <= done <= len(queue):
                raise ValueError(
                    f"completed[{i}]={done} out of range 0..{len(queue)}"
                )
            if done < len(queue):
                rows.append(queue[done:])
        if not rows:
            raise InvalidInstanceError("all jobs already completed; empty sub-instance")
        return Instance(rows)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._queues == other._queues and self._releases == other._releases

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._queues, self._releases))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rows = ", ".join(
            "[" + ", ".join(repr(j) for j in queue) + "]" for queue in self._queues
        )
        if self.has_releases:
            return f"Instance([{rows}], releases={list(self._releases)})"
        return f"Instance([{rows}])"
