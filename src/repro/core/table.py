"""One integer job table per instance.

Every engine reads the same per-job numbers: the requirements
:math:`r_{ijl}` and sizes :math:`p_{ij}` of Section 3.1 (Eq. (1)/(2)),
the bottleneck work :math:`r^*_{ij} p_{ij}`, and the objective weights
and deadlines.  A :class:`JobTable` holds them once, as Python ints
over one denominator per column (a denominator can pass ``2**63``),
and the float rows of the float engines, the integer grid, the work
sums and a :class:`~repro.backends.vector.JobBag`'s row keys are all
read off it.  :meth:`Instance.job_table
<repro.core.instance.Instance.job_table>` builds it once, lazily, and
``with_order`` gathers its rows (:meth:`JobTable.permuted`).
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import itemgetter, mul

import numpy as np

from .job import Job

__all__ = ["JobTable", "over_lcm"]

#: float64 holds every integer below this exactly.
_EXACT = 2**53
_DEN = itemgetter(1)


def over_lcm(ratios: list[tuple[int, int]]) -> tuple[list[int], int]:
    """``(numerators, d)`` of the ``(p, q)`` ratios over their lcm ``d``."""
    den = math.lcm(*map(_DEN, ratios))
    return [p * (den // q) for p, q in ratios], den


class JobTable:
    """Every job of an instance as one integer row.

    Columns are flat lists in processor-major order (queue ``i`` holds
    rows ``sum(lengths[:i])`` on) and must be treated as read-only:
    instances and their ``with_order`` copies share them.

    Attributes:
        lengths: per processor, its job count ``n_i``.
        reqs: per resource, the requirement units over :attr:`req_den`.
        rstar: the bottleneck requirement units (``reqs[0]`` for k=1).
        req_den: ``D``, the lcm of every requirement's denominator.
        sizes: the size numerators over :attr:`size_den`, their lcm.
        works: the bottleneck work ``r* p`` in units of :attr:`work_den`:
            ``D`` when every work is a whole number of ``1/D`` units
            (:attr:`on_grid`), the lcm of the works' denominators
            otherwise.
        weights: the weight numerators over :attr:`weight_den`, their lcm.
        deadlines: the due steps (``None`` for no deadline).
        work_sum: ``sum(works)``, the total bottleneck work in
            :attr:`work_den` units.
        resource_sums: per resource, the work ``sum_j r_jl p_j`` in
            :attr:`resource_den` units (``(work_sum,)`` for k=1).
        resource_den: :attr:`work_den` for k=1, ``D * size_den`` else.
    """

    __slots__ = (
        "lengths", "reqs", "rstar", "req_den", "sizes", "size_den", "works", "work_den",
        "weights", "weight_den", "deadlines", "work_sum", "resource_sums", "resource_den",
        "_floats",
    )

    def __init__(self, queues: tuple[tuple[Job, ...], ...], k: int) -> None:
        jobs = [job for queue in queues for job in queue]
        self.lengths = [len(queue) for queue in queues]
        if k == 1:
            units, d = over_lcm([job.requirement.as_integer_ratio() for job in jobs])
            reqs = (units,)
            rstar = units
        else:
            units, d = over_lcm(
                [r.as_integer_ratio() for job in jobs for r in job.requirements]
            )
            reqs = tuple(units[lane::k] for lane in range(k))
            rstar = list(map(max, *reqs))
        sizes, s = over_lcm([job.size.as_integer_ratio() for job in jobs])
        unit = s == 1 and sizes.count(1) == len(sizes)
        works = rstar if unit else list(map(mul, rstar, sizes))
        w = d
        if s != 1:
            if any(x % s for x in works):
                # Off the grid: each work over its own reduced denominator.
                ds = d * s
                works, w = over_lcm(
                    [(x // g, ds // g) for x in works for g in (math.gcd(x, ds),)]
                )
            else:
                works = [x // s for x in works]
        self.reqs, self.rstar, self.req_den = reqs, rstar, d
        self.sizes, self.size_den = sizes, s
        self.works, self.work_den = works, w
        self.weights, self.weight_den = over_lcm(
            [job.weight.as_integer_ratio() for job in jobs]
        )
        self.deadlines = [job.deadline for job in jobs]
        self.work_sum = sum(works)
        if k == 1:
            self.resource_sums, self.resource_den = (self.work_sum,), w
        else:
            self.resource_sums = tuple(sum(map(mul, col, sizes)) for col in reqs)
            self.resource_den = d * s
        self._floats = None

    @property
    def on_grid(self) -> bool:
        """True iff every work is a whole number of ``1/D`` units."""
        return self.work_den == self.req_den

    def queues(self, column: list) -> list[list]:
        """*column* split into one list per processor."""
        ends = list(accumulate(self.lengths))
        return [column[end - n : end] for n, end in zip(self.lengths, ends)]

    def rows(self):
        """Per job, the key ``(*requirement units, size, weight, deadline)``.

        Two jobs of tables with equal denominators are equal exactly
        when their keys are.
        """
        return zip(*self.reqs, self.sizes, self.weights, self.deadlines)

    def permuted(self, orders) -> "JobTable":
        """The table of the instance whose queue ``i`` runs ``orders[i]``.

        A gather of the rows; the denominators and sums carry over
        (both are order-invariant).  The float rows are rebuilt on use.
        """
        starts = [end - n for n, end in zip(self.lengths, accumulate(self.lengths))]
        at = [start + j for start, order in zip(starts, orders) for j in order]

        def take(column):
            """*column*'s entries in the permuted order."""
            return [column[x] for x in at]

        out = JobTable.__new__(JobTable)
        for name in ("lengths", "req_den", "size_den", "work_den", "weight_den",
                     "work_sum", "resource_sums", "resource_den"):
            setattr(out, name, getattr(self, name))
        out.reqs = tuple(map(take, self.reqs))
        out.rstar, out.works, out.sizes, out.weights, out.deadlines = map(
            take, (self.rstar, self.works, self.sizes, self.weights, self.deadlines)
        )
        out._floats = None
        return out

    def floats(self) -> np.ndarray:
        """The read-only ``(F, m, n + 1)`` float64 job table.

        ``F`` field rows: requirement (the bottleneck ``r*``), work,
        weight and deadline (``inf`` for none), then the ``k``
        per-resource requirements when ``k > 1``.  Every column from a
        queue's length on holds the sentinel's empty job: zeros, and
        deadline ``inf``.  Built on first use.
        """
        table = self._floats
        if table is None:
            k = len(self.reqs)
            nums = [self.rstar, self.works, self.weights]
            dens = [self.req_den, self.work_den, self.weight_den]
            if k > 1:
                nums += self.reqs
                dens += [self.req_den] * k
            exact = max(dens) < _EXACT and max(map(max, nums)) < _EXACT
            nums.insert(3, [math.inf if x is None else float(x) for x in self.deadlines])
            dens.insert(3, 1)
            if exact:
                # Exact operands: one IEEE division rounds like int / int.
                rows = np.array(nums, dtype=np.float64)
                rows /= np.array(dens, dtype=np.float64)[:, None]
            else:
                rows = np.array([[u / d for u in col] for col, d in zip(nums, dens)])
            lengths = self.lengths
            width = max(lengths) + 1
            table = np.zeros((len(rows), len(lengths), width))
            table[3] = math.inf
            # Queue i's jobs fill its first lengths[i] columns, in order.
            table[:, np.arange(width) < np.array(lengths)[:, None]] = rows
            table.flags.writeable = False
            self._floats = table
        return table

