"""OptResAssignment: the exact O(n^2) algorithm for two processors
(Section 6, Algorithm 1, Theorem 5).

Dynamic program over cells ``(i1, i2)`` meaning "all jobs before
``(1, i1)`` and ``(2, i2)`` are finished" (0-based: ``i1`` jobs done on
processor 1, ``i2`` on processor 2).  Each cell stores the best pair
``(t, r)``: the earliest step count ``t`` at which the cell is
reachable and, among schedules achieving ``t``, the minimal sum ``r``
of the remaining requirements of the two current jobs.  Lemma 3 proves
this pair is a sufficient statistic: only the *sum* of the two
remaining requirements matters, because capacity can be freely shifted
between the two current jobs (each fits within one step's capacity).

Transitions from a cell with value ``(t, r)`` (``nxt`` denotes the full
requirement of the following job, 0 past the end):

* both processors at real jobs and ``r <= 1`` -- the step can finish
  both: advance both (fresh requirements), or advance only one (the
  other job is fully processed too but bookkept later; these "lazy"
  moves are the paper's lines 17-18 and are needed as boundary cases);
* ``r > 1`` -- finish either one job and pour the remaining capacity
  into the other, which then has ``r - 1`` left (the paper's lines
  20-21; the listing prints ``A1[i1]+A2[i2]-1`` where the cell's
  ``r - 1`` is meant -- they coincide only for fresh cells.  We
  implement the corrected recurrence; optimality is cross-validated
  against two independent oracles in the test-suite);
* one processor exhausted -- advance the other one job per step.

The DP fills the table diagonal by diagonal (phases of Algorithm 1) in
``O(n1 * n2)`` time; :func:`opt_res_assignment_pq` is the priority-
queue variant sketched after Theorem 5 which only visits reachable
cells.  Both share one transition rule and reconstruct an explicit
optimal schedule by walking parent pointers back and re-deriving the
concrete share split per step.

The DP only adds, subtracts and compares requirements, so it runs on
the instance's integer grid (:meth:`Instance.to_integer_grid`): ``r``
counts units of ``1/D`` and the step capacity is ``D``.  ``Fraction``
appears only at the API edge, where the witness rows become the
:class:`Schedule`; the value-only :func:`grid_makespan` (the order
search's oracle) skips the artifact but still replays its witness on
the grid (:func:`~repro.algorithms.fastpath.grid_witness_makespan`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..core.instance import Instance
from ..core.schedule import Schedule
from ..exceptions import SolverError
from .fastpath import grid_witness_makespan

__all__ = ["OptTwoResult", "opt_res_assignment", "opt_res_assignment_pq"]

# Move codes (stored as parent pointers for reconstruction).  Each move
# advances the cell by a fixed ``(d1, d2)`` (see ``_DELTA``).
_BOTH = "both"  # finish both current jobs
_ONLY1 = "only1"  # r <= 1: advance 1; job on p2 fully processed too
_ONLY2 = "only2"  # r <= 1: advance 2; job on p1 fully processed too
_FIN1_SURPLUS2 = "fin1"  # r > 1: finish p1's job, surplus into p2's
_FIN2_SURPLUS1 = "fin2"  # r > 1: finish p2's job, surplus into p1's
_ADV1 = "adv1"  # p2 exhausted: p1 advances alone
_ADV2 = "adv2"  # p1 exhausted: p2 advances alone

_DELTA = {
    _BOTH: (1, 1),
    _ONLY1: (1, 0),
    _FIN1_SURPLUS2: (1, 0),
    _ADV1: (1, 0),
    _ONLY2: (0, 1),
    _FIN2_SURPLUS1: (0, 1),
    _ADV2: (0, 1),
}

_Cell = tuple[int, int]


@dataclass(frozen=True, slots=True)
class OptTwoResult:
    """Result of the two-processor exact algorithm.

    Attributes:
        makespan: the optimal makespan.
        schedule: an optimal schedule witnessing it.
        cells_expanded: number of DP cells whose value was computed
            (table variant: all of them; PQ variant: reachable only).
    """

    makespan: int
    schedule: Schedule
    cells_expanded: int


def _grid(instance: Instance) -> tuple[list[list[int]], int]:
    instance.require_single_resource("OptResAssignment")
    instance.require_unit_size("OptResAssignment")
    instance.require_static("OptResAssignment")
    if instance.num_processors != 2:
        raise SolverError(
            f"OptResAssignment handles exactly 2 processors, got "
            f"{instance.num_processors}; use opt_general for fixed m"
        )
    return instance.to_integer_grid()


def _successors(
    i1: int, i2: int, r: int, a1: list[int], a2: list[int], cap: int
) -> list[tuple[int, int, int, str]]:
    """All Algorithm-1 transitions from cell ``(i1, i2)`` with remaining
    sum ``r`` (grid units, capacity *cap*).  Every transition takes one
    step; returns ``(i1', i2', r', move)`` tuples."""
    n1, n2 = len(a1), len(a2)
    nxt1 = a1[i1 + 1] if i1 + 1 < n1 else 0
    nxt2 = a2[i2 + 1] if i2 + 1 < n2 else 0
    if i1 >= n1:
        # Processor 1 exhausted: p2 finishes one job per step (its
        # remaining requirement is at most 1, so one step suffices).
        return [(i1, i2 + 1, nxt2, _ADV2)]
    if i2 >= n2:
        return [(i1 + 1, i2, nxt1, _ADV1)]
    if r <= cap:
        return [
            (i1 + 1, i2 + 1, nxt1 + nxt2, _BOTH),
            (i1, i2 + 1, nxt2, _ONLY2),
            (i1 + 1, i2, nxt1, _ONLY1),
        ]
    return [
        (i1, i2 + 1, r - cap + nxt2, _FIN2_SURPLUS1),
        (i1 + 1, i2, nxt1 + r - cap, _FIN1_SURPLUS2),
    ]


def _table(
    a1: list[int], a2: list[int], cap: int
) -> tuple[int, dict[_Cell, str], int]:
    """The diagonal table fill: ``(makespan, parent moves, cells expanded)``."""
    n1, n2 = len(a1), len(a2)
    # best[(i1, i2)] = (t, r); parent[(i1, i2)] = move into the cell
    best: dict[_Cell, tuple[int, int]] = {(0, 0): (0, a1[0] + a2[0])}
    parent: dict[_Cell, str] = {}
    expanded = 0

    # Diagonal-by-diagonal fill: every transition increases i1 + i2 by
    # exactly one, so values on diagonal l are final when processing it.
    for level in range(0, n1 + n2):
        for i1 in range(max(0, level - n2), min(level, n1) + 1):
            value = best.get((i1, level - i1))
            if value is None:
                continue
            expanded += 1
            st = value[0] + 1
            for s1, s2, sr, move in _successors(
                i1, level - i1, value[1], a1, a2, cap
            ):
                old = best.get((s1, s2))
                if old is None or (st, sr) < old:
                    best[(s1, s2)] = (st, sr)
                    parent[(s1, s2)] = move
    return best[(n1, n2)][0], parent, expanded


def _pq(
    a1: list[int], a2: list[int], cap: int
) -> tuple[int, dict[_Cell, str], int]:
    """The priority-queue fill: ``(makespan, parent moves, cells expanded)``."""
    n1, n2 = len(a1), len(a2)
    best: dict[_Cell, tuple[int, int]] = {(0, 0): (0, a1[0] + a2[0])}
    parent: dict[_Cell, str] = {}
    # Heap ordered by (level, t, r): levels are processed in order, and
    # within a level the best value for a cell pops first.
    heap: list[tuple[int, int, int, int, int]] = [(0, 0, a1[0] + a2[0], 0, 0)]
    settled: set[_Cell] = set()
    expanded = 0

    while heap:
        _, t, r, i1, i2 = heapq.heappop(heap)
        key = (i1, i2)
        if key in settled or best[key] != (t, r):
            continue  # settled already, or a stale entry
        settled.add(key)
        expanded += 1
        if key == (n1, n2):
            return t, parent, expanded
        for s1, s2, sr, move in _successors(i1, i2, r, a1, a2, cap):
            skey = (s1, s2)
            if skey in settled:
                continue
            old = best.get(skey)
            if old is None or (t + 1, sr) < old:
                best[skey] = (t + 1, sr)
                parent[skey] = move
                heapq.heappush(heap, (s1 + s2, t + 1, sr, s1, s2))
    raise SolverError("priority queue exhausted before final cell")  # pragma: no cover


def _witness_rows(
    a1: list[int], a2: list[int], cap: int, parent: dict[_Cell, str]
) -> list[tuple[int, int]]:
    """Walk the parent chain back from the final cell, then replay it
    forward tracking the true per-job remaining requirements to emit
    concrete share vectors (grid units)."""
    n1, n2 = len(a1), len(a2)
    path: list[str] = []
    i1, i2 = n1, n2
    while (i1, i2) != (0, 0):
        move = parent[(i1, i2)]
        path.append(move)
        d1, d2 = _DELTA[move]
        i1, i2 = i1 - d1, i2 - d2
    path.reverse()

    rows: list[tuple[int, int]] = []
    v1 = a1[0]
    v2 = a2[0]
    for move in path:
        if move == _BOTH or move == _ONLY2 or move == _ONLY1:
            # r <= 1: both current jobs are fully served this step.  A
            # lazy move only credits one processor's advance: the other
            # job physically completes now and its successor idles.
            rows.append((v1, v2))
            if move == _ONLY2:
                v1 = 0
            elif move == _ONLY1:
                v2 = 0
        elif move == _FIN2_SURPLUS1:
            give1 = cap - v2
            rows.append((give1, v2))
            v1 -= give1
        elif move == _FIN1_SURPLUS2:
            give2 = cap - v1
            rows.append((v1, give2))
            v2 -= give2
        elif move == _ADV1:
            rows.append((v1, 0))
        elif move == _ADV2:
            rows.append((0, v2))
        else:  # pragma: no cover
            raise SolverError(f"unknown move {move!r}")
        d1, d2 = _DELTA[move]
        if d1:
            i1 += 1
            v1 = a1[i1] if i1 < n1 else 0
        if d2:
            i2 += 1
            v2 = a2[i2] if i2 < n2 else 0
    return rows


def _solve(instance: Instance, fill) -> OptTwoResult:
    """Run one DP *fill* on the grid and lift its witness to a Schedule."""
    (a1, a2), cap = _grid(instance)
    makespan, parent, expanded = fill(a1, a2, cap)
    rows = _witness_rows(a1, a2, cap, parent)
    schedule = Schedule(instance, [[Fraction(x, cap) for x in row] for row in rows])
    if schedule.makespan != makespan:  # pragma: no cover - consistency check
        raise SolverError(
            f"reconstructed schedule has makespan {schedule.makespan}, "
            f"DP value is {makespan}"
        )
    return OptTwoResult(makespan=makespan, schedule=schedule, cells_expanded=expanded)


def opt_res_assignment(instance: Instance) -> OptTwoResult:
    """Exact optimum for ``m = 2`` via the diagonal dynamic program
    (Algorithm 1, Theorem 5).  Runs in ``O(n1 * n2)`` time and space.

    Raises:
        SolverError: if the instance does not have exactly 2 processors.
        UnitSizeRequiredError: for non-unit-size jobs.
    """
    return _solve(instance, _table)


def opt_res_assignment_pq(instance: Instance) -> OptTwoResult:
    """Priority-queue variant (discussed after Theorem 5).

    Cells are expanded in lexicographic ``(level, t, r)`` order from a
    heap, so only *reachable* cells are touched; on instances where
    many jobs pair up (``r <= 1``), most of the table is skipped.
    Produces the same optimum as :func:`opt_res_assignment`.
    """
    return _solve(instance, _pq)


def grid_makespan(units: Sequence[list[int]], cap: int) -> int:
    """Value-only Theorem-5 optimum of the two grid queues *units*.

    The table DP without the :class:`Schedule` artifact; its witness
    rows are still replayed on the grid, and a witness whose trimmed
    length differs from the DP value raises :class:`SolverError`.
    The caller guarantees the model checks (unit-size, static, k=1).
    """
    a1, a2 = units
    makespan, parent, _ = _table(a1, a2, cap)
    return grid_witness_makespan(
        units, cap, _witness_rows(a1, a2, cap, parent), makespan
    )
