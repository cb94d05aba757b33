"""The ``Job`` constructor's fast path against its frozen original.

``Job.__init__`` passes an exact ``Fraction`` through as is, checks
ranges and signs on the int numerator and denominator, and stores the
int default ``1`` as ``ONE``.  Every draw here builds a job both ways
(:func:`tests.core.frozen_job.job_fields` is the original) and asserts
the same fields with the same types, the same hash, or the same
exception type and message.  The draws cover ints, bools, strings,
floats (nan, +-inf, -0.0), ``Decimal``, ``Fraction`` and a ``Fraction``
subclass; requirement tuples and lists, empty and out of range, with
0 and 1 exactly; sizes and weights of 0, negative, ``1``, ``True`` and
``"1"``; and deadlines.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Job

from . import frozen_job as frozen


class Ratio(Fraction):
    """A ``Fraction`` subclass: ``to_frac`` returns it unchanged, past the exact-type test."""


EDGES = [0, 1, -1, True, False, "1", "0", "-1", "1/2", "3/2", "1/0", "x", "",
         0.0, -0.0, 1.0, float("nan"), float("inf"), float("-inf"),
         Decimal("1"), Decimal("NaN"), Decimal("-Infinity"),
         Fraction(0), Fraction(1), Fraction(-1, 3), Ratio(1), Ratio(0), Ratio(3, 2),
         None, object()]

NUMBERS = st.one_of(
    st.sampled_from(EDGES),
    st.integers(-3, 3),
    st.booleans(),
    st.fractions(Fraction(-1, 2), Fraction(3, 2), max_denominator=12),
    st.fractions(Fraction(-1, 2), Fraction(3, 2), max_denominator=12).map(Ratio),
    st.fractions(Fraction(-1), Fraction(2), max_denominator=12).map(str),
    st.floats(allow_nan=True, allow_infinity=True),
    st.decimals(allow_nan=True, allow_infinity=True, places=3),
    st.text(max_size=4),
)

REQUIREMENTS = st.one_of(
    NUMBERS,
    st.lists(NUMBERS, max_size=3),
    st.lists(NUMBERS, max_size=3).map(tuple),
)

DEADLINES = st.one_of(
    st.none(), st.integers(-2, 6), st.sampled_from([True, 2.0, 2.5, "3", "x", float("nan")])
)

DEFAULT = object()


def _outcome(build):
    """``("ok", fields with their types, hash)`` or ``("raise", type, message)``."""
    try:
        fields = build()
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return "raise", type(exc), str(exc)
    if isinstance(fields, Job):
        fields = (fields.requirements, fields.size, fields.weight, fields.deadline,
                  fields.requirement, hash(fields))
    *values, digest = fields
    typed = [tuple((type(x), x) for x in values[0])]
    typed += [(type(x), x) for x in values[1:]]
    return "ok", typed, digest


def _kwargs(size, weight, deadline):
    args = () if size is DEFAULT else (size,)
    kwargs = {} if weight is DEFAULT else {"weight": weight}
    if deadline is not DEFAULT:
        kwargs["deadline"] = deadline
    return args, kwargs


@settings(max_examples=1000, deadline=None)
@given(
    requirement=REQUIREMENTS,
    size=st.one_of(st.just(DEFAULT), NUMBERS),
    weight=st.one_of(st.just(DEFAULT), NUMBERS),
    deadline=st.one_of(st.just(DEFAULT), DEADLINES),
)
@example(requirement=1, size=DEFAULT, weight=DEFAULT, deadline=DEFAULT)
@example(requirement=[0, Fraction(1)], size=1, weight=1, deadline=DEFAULT)
@example(requirement=(), size=DEFAULT, weight=DEFAULT, deadline=DEFAULT)
@example(requirement="1/2", size=True, weight="1", deadline=1)
@example(requirement=Ratio(1, 2), size=Ratio(2), weight=0, deadline=DEFAULT)
@example(requirement=-0.0, size=-1, weight=DEFAULT, deadline=0)
def test_constructor_matches_frozen_original(requirement, size, weight, deadline):
    args, kwargs = _kwargs(size, weight, deadline)
    fast = _outcome(lambda: Job(requirement, *args, **kwargs))
    original = _outcome(lambda: frozen.job_fields(requirement, *args, **kwargs))
    assert fast == original

