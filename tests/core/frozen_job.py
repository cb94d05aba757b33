"""Frozen copy of the ``Job`` constructor before its fast path.

:func:`job_fields` is the body ``Job.__init__`` ran when every number
went through :func:`~repro.core.numerics.to_frac` and every check was a
``Fraction`` comparison.  It returns the fields the constructor stored
and the hash ``Job.__hash__`` computes from them, or raises what the
constructor raised.  :mod:`tests.core.test_job_fast_path` checks the
constructor against it.  Do not edit it to match the constructor.
(``to_frac``, ``whole_step`` and ``format_frac`` are shared: the fast
path left them as they were.)
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.job import whole_step
from repro.core.numerics import ONE, ZERO, format_frac, to_frac
from repro.exceptions import InvalidInstanceError


def _finite(value, field: str) -> Fraction:
    try:
        return to_frac(value)
    except ValueError as exc:
        raise InvalidInstanceError(f"job {field} must be a finite number: {exc}") from exc


def job_fields(requirement, size=1, *, weight=1, deadline=None):
    """``(requirements, size, weight, deadline, requirement, hash)``."""
    if isinstance(requirement, (tuple, list)):
        reqs = tuple(_finite(r, "requirement") for r in requirement)
        if not reqs:
            raise InvalidInstanceError("a job needs at least one resource requirement")
    else:
        reqs = (_finite(requirement, "requirement"),)
    for req in reqs:
        if not (ZERO <= req <= ONE):
            raise InvalidInstanceError(
                f"job requirement must be in [0, 1], got {format_frac(req)}"
            )
    sz = _finite(size, "size")
    if sz <= ZERO:
        raise InvalidInstanceError(f"job size must be positive, got {format_frac(sz)}")
    wgt = _finite(weight, "weight")
    if wgt <= ZERO:
        raise InvalidInstanceError(f"job weight must be positive, got {format_frac(wgt)}")
    if deadline is not None:
        deadline = whole_step(deadline, "job deadlines")
        if deadline < 1:
            raise InvalidInstanceError(f"job deadline must be a step >= 1, got {deadline}")
    return reqs, sz, wgt, deadline, max(reqs), hash((reqs, sz, wgt, deadline))
