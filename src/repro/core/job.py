"""Job model for the CRSharing problem (Section 3.1 of the paper).

A job ``(i, j)`` is the *j*-th phase of the task pinned to processor
*i*.  It carries a resource requirement and a processing volume:

``requirements`` (:math:`r_{ij} \\in [0, 1]^k`)
    The share of each shared resource needed to process one unit of
    the job's volume per time step at full speed.  The paper's model
    has exactly one resource (``k = 1``); the multi-resource extension
    (after *Scheduling with Many Shared Resources*, Maack et al.)
    allows ``k >= 1`` renewable resources, each with capacity 1 per
    step.  A job granted share :math:`s_l` of resource *l* runs at
    speed :math:`\\min_l s_l / r_l` over the resources it actually
    needs -- the *bottleneck* resource dictates the pace.

``size`` (:math:`p_{ij} > 0`)
    The processing volume.  The paper's analysis (Sections 4-8) fixes
    ``size == 1`` ("unit size jobs"); the general model and the
    simulator support arbitrary sizes.

Under the paper's *alternative interpretation* (Section 3.1, Eq. 2) a
job is a work volume :math:`\\tilde p_{ij} = r_{ij} p_{ij}` processed
at speed :math:`\\min(R_i(t), r_{ij})`; :attr:`Job.work` exposes that
quantity -- measured on the bottleneck resource for ``k > 1`` -- which
is the natural unit for all bookkeeping.

Objective extension
===================

Beyond the paper's makespan objective, a job may carry two optional
annotations consumed by the pluggable objective layer
(:mod:`repro.objectives`):

``weight`` (:math:`w_{ij} > 0`, default 1)
    The job's importance under the weighted flow time objective
    :math:`F_w = \\sum w_{ij} (C_{ij} - r_i)` (cf. the mean response
    time literature, e.g. Berg et al.).  The default of 1 makes every
    weighted objective degenerate to its unweighted form.

``deadline`` (:math:`d_{ij} \\ge 1` or ``None``, default ``None``)
    The 1-based step by which the job should complete under the
    tardiness / lateness objectives (cf. the deadline variants of the
    discrete--continuous line, Józefowska & Węglarz).  ``None`` means
    "no deadline"; such jobs contribute zero tardiness.

Both defaults keep the paper's model bit-identical: they do not enter
the step semantics at all, only objective evaluation and
objective-aware policies read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ..exceptions import InvalidInstanceError
from .numerics import Num, ONE, format_frac, to_frac

__all__ = ["Job", "JobId"]

#: A job is addressed as ``(processor_index, job_index)``; both 0-based
#: in code (the paper uses 1-based indices).
JobId = tuple[int, int]


def _finite(value: Num, field: str) -> Fraction:
    """*value* as a Fraction; non-finite numbers violate the model."""
    if type(value) is Fraction:
        return value
    try:
        return to_frac(value)
    except ValueError as exc:
        raise InvalidInstanceError(f"job {field} must be a finite number: {exc}") from exc


def whole_step(value, field: str) -> int:
    """*value* as an int step: ``2.0`` passes, ``1.5`` raises.

    Raises :class:`InvalidInstanceError` naming *field* (plural).
    """
    try:
        step = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInstanceError(f"{field} must be integers: {exc}") from exc
    if not isinstance(value, str) and step != value:
        raise InvalidInstanceError(f"{field} must be integers, got {value!r}")
    return step


@dataclass(frozen=True, slots=True)
class Job:
    """One job: per-resource requirements in ``[0,1]`` and a positive size.

    Instances are immutable value objects; all numeric fields are exact
    :class:`~fractions.Fraction` values (see :mod:`repro.core.numerics`).

    Args:
        requirement: resource requirement :math:`r_{ij} \\in [0, 1]`.
            A bare number declares the paper's single-resource model; a
            sequence of ``k`` numbers declares one requirement per
            shared resource (the multi-resource extension).
        size: processing volume :math:`p_{ij} > 0` (default 1 = the
            unit-size restriction analyzed in the paper).
        weight: objective weight :math:`w_{ij} > 0` (default 1 -- the
            unweighted model; read by the weighted flow objective and
            flow-tuned policies, never by the step semantics).
        deadline: optional 1-based due step :math:`d_{ij} \\ge 1`
            (default ``None`` = no deadline; read by the tardiness
            objectives and deadline-aware policies).

    Raises:
        InvalidInstanceError: if any requirement is outside ``[0,1]``,
            the requirement vector is empty, a requirement, the size or
            the weight is not a finite number, the size or weight is
            not positive, or the deadline is not ``None`` and < 1.

    Example:
        >>> Job("1/3")                      # single resource
        Job(1/3)
        >>> Job(["1/2", "1/4"]).requirement  # bottleneck of two resources
        Fraction(1, 2)
        >>> Job("1/3", weight=3, deadline=4)
        Job(1/3, weight=3, deadline=4)
    """

    requirements: tuple[Fraction, ...]
    size: Fraction
    weight: Fraction
    deadline: int | None
    #: Bottleneck requirement, precomputed because the step loops read
    #: it every step; derived from ``requirements``, so excluded from
    #: equality/hash.
    requirement: Fraction = field(compare=False)
    #: Memoized :func:`hash` -- ``Fraction`` hashing is slow and the
    #: same ``Job`` objects recur in hashed keys such as
    #: ``Instance.same_bag``'s counts (the job tables, and the
    #: certification search's value keys, key rows by integers
    #: instead, see :mod:`repro.core.table`).
    _hash: int | None = field(compare=False, repr=False)

    def __init__(
        self,
        requirement: "Num | tuple[Num, ...] | list[Num]",
        size: Num = 1,
        *,
        weight: Num = 1,
        deadline: int | None = None,
    ) -> None:
        if isinstance(requirement, (tuple, list)):
            reqs = tuple(_finite(r, "requirement") for r in requirement)
            if not reqs:
                raise InvalidInstanceError(
                    "a job needs at least one resource requirement"
                )
        else:
            reqs = (_finite(requirement, "requirement"),)
        # Fraction denominators are positive, so the range and sign
        # checks compare the int numerator and denominator directly.
        for req in reqs:
            if not (0 <= req.numerator <= req.denominator):
                raise InvalidInstanceError(
                    f"job requirement must be in [0, 1], got {format_frac(req)}"
                )
        sz = ONE if type(size) is int and size == 1 else _finite(size, "size")
        if sz.numerator <= 0:
            raise InvalidInstanceError(
                f"job size must be positive, got {format_frac(sz)}"
            )
        wgt = ONE if type(weight) is int and weight == 1 else _finite(weight, "weight")
        if wgt.numerator <= 0:
            raise InvalidInstanceError(
                f"job weight must be positive, got {format_frac(wgt)}"
            )
        if deadline is not None:
            deadline = whole_step(deadline, "job deadlines")
            if deadline < 1:
                raise InvalidInstanceError(
                    f"job deadline must be a step >= 1, got {deadline}"
                )
        object.__setattr__(self, "requirements", reqs)
        object.__setattr__(self, "size", sz)
        object.__setattr__(self, "weight", wgt)
        object.__setattr__(self, "deadline", deadline)
        object.__setattr__(self, "requirement", max(reqs))
        object.__setattr__(self, "_hash", None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.requirements, self.size, self.weight, self.deadline))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def num_resources(self) -> int:
        """``k`` -- how many shared resources this job declares."""
        return len(self.requirements)

    @property
    def work(self) -> Fraction:
        """Total work :math:`\\tilde p = r^* \\cdot p` (Eq. 2).

        The amount of bottleneck resource-time the job consumes over
        its lifetime in the alternative (variable-speed)
        interpretation.
        """
        return self.requirement * self.size

    @property
    def work_vector(self) -> tuple[Fraction, ...]:
        """Per-resource work :math:`(r_{l} \\cdot p)_l`.

        Resource-time consumed on each resource over the job's
        lifetime.
        """
        return tuple(r * self.size for r in self.requirements)

    @property
    def is_unit(self) -> bool:
        """True iff the job has unit size (``p == 1``)."""
        return self.size == ONE

    @property
    def has_deadline(self) -> bool:
        """True iff the job carries a due step (``deadline`` is set)."""
        return self.deadline is not None

    @property
    def is_unit_weight(self) -> bool:
        """True iff the job has the default objective weight of 1."""
        return self.weight == ONE

    def replace(self, *, weight: Num | None = None, deadline=...) -> "Job":
        """A copy with the objective annotations swapped.

        ``weight=None`` keeps the current weight; ``deadline`` uses the
        ``...`` sentinel so it can be cleared explicitly with
        ``replace(deadline=None)``.
        """
        return Job(
            self.requirements if len(self.requirements) > 1
            else self.requirements[0],
            self.size,
            weight=self.weight if weight is None else weight,
            deadline=self.deadline if deadline is ... else deadline,
        )

    def steps_at_full_speed(self) -> int:
        """Minimum whole steps to finish at full speed (``ceil(size)``).

        Assumes the job is always granted its full requirement.
        """
        return -((-self.size).__floor__())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if len(self.requirements) == 1:
            req = format_frac(self.requirements[0])
        else:
            req = "[" + ", ".join(format_frac(r) for r in self.requirements) + "]"
        parts = [req]
        if not self.is_unit:
            parts.append(f"size={format_frac(self.size)}")
        if not self.is_unit_weight:
            parts.append(f"weight={format_frac(self.weight)}")
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline}")
        return f"Job({', '.join(parts)})"
