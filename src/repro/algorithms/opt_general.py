"""OptResAssignment2: the exact algorithm for any fixed number of
processors (Section 7, Algorithm 2, Theorem 6).

The algorithm enumerates *configurations* (Definition 6): the number of
completed jobs per processor plus the resource already invested in each
active job.  Starting from the initial configuration it generates, per
round, every successor reachable by a non-wasting and progressive step:

* if the remaining requirements of all active jobs fit into one step's
  capacity, the only non-wasting move finishes all of them;
* otherwise pick a subset ``F`` of active jobs to finish (their
  remaining requirements must fit) and pour the leftover capacity into
  at most one other active job (progressiveness: at most one job ends
  the step partially processed);

and prunes, within each round, every configuration *dominated* by
another (Lemma 4's order: no fewer jobs completed anywhere and no less
resource invested anywhere).  The first round containing the final
configuration yields an optimal schedule, reconstructed via parent
pointers.

Deviation from the paper, documented per DESIGN.md: the paper
additionally restricts the search to *nested* schedules to bound the
number of non-dominated extended configurations polynomially
(Theorem 6's counting argument).  Nestedness is a with-loss-of-nothing
restriction (Lemma 1), so searching the slightly larger
non-wasting + progressive space returns the same optimum -- it only
weakens the worst-case bound on states explored.  We keep the larger
space because domination pruning needs no extended-configuration
bookkeeping there to remain sound; the per-round state counts are
reported in :class:`OptGeneralResult.stats` and benchmarked (THM6).

Like the m=2 DP, the search runs on the instance's integer grid
(:meth:`Instance.to_integer_grid`): remaining requirements, moves and
invested resource are units of ``1/D`` with step capacity ``D``, and
``Fraction`` reappears only in the witness :class:`Schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from ..core.instance import Instance
from ..core.schedule import Schedule
from ..exceptions import SolverError
from .fastpath import grid_witness_makespan

__all__ = ["OptGeneralResult", "opt_res_assignment_general"]

#: A configuration key: (jobs completed per processor, remaining
#: requirement of each active job -- 0 for exhausted processors), in
#: grid units.
_Key = tuple[tuple[int, ...], tuple[int, ...]]
#: A move ``(F, p, c)``: the processors whose jobs finish, the processor
#: receiving the leftover ``c`` partially (or ``None``).
_Move = tuple[tuple[int, ...], int | None, int]

_MAX_CONFIGURATIONS = 2_000_000


@dataclass(frozen=True, slots=True)
class OptGeneralResult:
    """Result of the fixed-m exact search.

    Attributes:
        makespan: optimal makespan.
        schedule: an optimal schedule witnessing it.
        stats: per-round counts of configurations kept after
            domination pruning (Theorem 6 growth measurements).
    """

    makespan: int
    schedule: Schedule
    stats: list[int]

    @property
    def total_configurations(self) -> int:
        return sum(self.stats)


def _fresh(units: Sequence[list[int]], i: int, j: int) -> int:
    """Requirement of job ``(i, j)``, 0 once processor *i* is exhausted."""
    return units[i][j] if j < len(units[i]) else 0


def _spent_vector(units: Sequence[list[int]], key: _Key) -> tuple[int, ...]:
    """The paper's ``v`` vector: resource already invested in each
    active job (0 for exhausted processors)."""
    done, rem = key
    return tuple(_fresh(units, i, d) - r for i, (d, r) in enumerate(zip(done, rem)))


def _successors(
    units: Sequence[list[int]], cap: int, key: _Key
) -> list[tuple[_Key, _Move]]:
    """All non-wasting, progressive one-step successors of *key*.

    Each successor comes with its move ``(F, p, c)``, used for schedule
    reconstruction.
    """
    done, rem = key
    active = [i for i in range(len(units)) if done[i] < len(units[i])]
    if not active:
        return []

    def advance(finish: tuple[int, ...], partial: int | None, c: int):
        new_done = list(done)
        new_rem = list(rem)
        for i in finish:
            new_done[i] += 1
            new_rem[i] = _fresh(units, i, new_done[i])
        if partial is not None:
            new_rem[partial] = rem[partial] - c
        return (tuple(new_done), tuple(new_rem)), (finish, partial, c)

    if sum(rem[i] for i in active) <= cap:
        # Non-wasting forces finishing every active job.
        return [advance(tuple(active), None, 0)]

    # Zero-requirement jobs complete as soon as they are active, so
    # they belong to every finishing set.
    forced = tuple(i for i in active if rem[i] == 0)
    optional = [i for i in active if rem[i] > 0]

    out = []
    for size in range(0, len(optional) + 1):
        for chosen in combinations(optional, size):
            finish = forced + chosen
            if not finish:
                continue  # capacity 1 always finishes some unit job
            used = sum(rem[i] for i in chosen)
            if used > cap:
                continue
            c = cap - used
            if c == 0:
                out.append(advance(finish, None, 0))
                continue
            # Leftover must go to exactly one job that will NOT finish
            # (w_p > c); if every remaining job fits in c, this finish
            # set wastes resource and a superset covers the case.
            for p in optional:
                if p in chosen:
                    continue
                if rem[p] > c:
                    out.append(advance(finish, p, c))
    return out


def _prune(units: Sequence[list[int]], keys: list[_Key]) -> list[_Key]:
    """Drop every key dominated within its round (Lemma 4's order: at
    least as far on every processor and at least as much invested
    everywhere).  Spent vectors are computed once per key."""
    spent = [_spent_vector(units, key) for key in keys]
    alive = [True] * len(keys)
    for a_idx, (done_a, _) in enumerate(keys):
        if not alive[a_idx]:
            continue
        va = spent[a_idx]
        for b_idx, (done_b, _) in enumerate(keys):
            if a_idx == b_idx or not alive[b_idx]:
                continue
            if all(x >= y for x, y in zip(done_a, done_b)) and all(
                x >= y for x, y in zip(va, spent[b_idx])
            ):
                alive[b_idx] = False
    return [k for k, ok in zip(keys, alive) if ok]


def _search(
    units: Sequence[list[int]], cap: int, max_configurations: int
) -> tuple[int, list[list[int]], list[int]]:
    """Algorithm 2 on the grid: ``(makespan, witness rows, stats)``."""
    m = len(units)
    initial_done = (0,) * m
    initial: _Key = (initial_done, tuple(queue[0] for queue in units))
    final_done = tuple(len(queue) for queue in units)

    #: parent[key] = (parent_key, move) for reconstruction.
    parent: dict[_Key, tuple[_Key, _Move]] = {}
    current: list[_Key] = [initial]
    stats: list[int] = [1]
    explored = 1

    t = 0
    while True:
        # Check for the final configuration in the current round.
        for key in current:
            if key[0] == final_done:
                return t, _witness_rows(m, parent, key), stats

        # Expand one round.
        nxt: dict[_Key, tuple[_Key, _Move]] = {}
        for key in current:
            for skey, move in _successors(units, cap, key):
                if skey not in nxt:
                    nxt[skey] = (key, move)
        explored += len(nxt)
        if explored > max_configurations:
            raise SolverError(
                f"configuration search exceeded {max_configurations} states; "
                f"instance too large for the exact fixed-m algorithm"
            )
        if not nxt:  # pragma: no cover - final config always reached
            raise SolverError("search space exhausted before completion")

        current = _prune(units, list(nxt))
        for k in current:
            parent[k] = nxt[k]
        stats.append(len(current))
        t += 1


def _witness_rows(
    m: int, parent: dict[_Key, tuple[_Key, _Move]], final_key: _Key
) -> list[list[int]]:
    moves = []
    key = final_key
    while key in parent:
        pkey, move = parent[key]
        moves.append((pkey, move))
        key = pkey
    moves.reverse()

    rows: list[list[int]] = []
    for (_, prem), (finish, partial, c) in moves:
        row = [0] * m
        for i in finish:
            row[i] = prem[i]
        if partial is not None:
            row[partial] = c
        rows.append(row)
    return rows


def opt_res_assignment_general(
    instance: Instance,
    *,
    max_configurations: int = _MAX_CONFIGURATIONS,
) -> OptGeneralResult:
    """Exact optimum for any (small) fixed ``m`` (Algorithm 2).

    Args:
        instance: unit-size instance; any number of processors, but the
            state space grows quickly -- intended for ``m <= 4`` and
            short queues (Theorem 6's polynomial has degree
            ``2(m+1)^2``).
        max_configurations: safety cap on total states explored.

    Raises:
        SolverError: if the cap is exceeded.
        UnitSizeRequiredError: for non-unit-size jobs.
    """
    instance.require_single_resource("OptResAssignment2")
    instance.require_unit_size("OptResAssignment2")
    instance.require_static("OptResAssignment2")
    units, cap = instance.to_integer_grid()
    makespan, rows, stats = _search(units, cap, max_configurations)
    schedule = Schedule(instance, [[Fraction(x, cap) for x in row] for row in rows])
    if schedule.makespan != makespan:  # pragma: no cover
        raise SolverError(
            f"reconstructed makespan {schedule.makespan} != round {makespan}"
        )
    return OptGeneralResult(makespan=makespan, schedule=schedule, stats=stats)


def grid_makespan(units: Sequence[list[int]], cap: int) -> int:
    """Value-only Theorem-6 optimum of the grid queues *units*.

    The configuration search without the :class:`Schedule` artifact;
    its witness rows are still replayed on the grid, and a witness
    whose trimmed length differs from the search value raises
    :class:`SolverError`.  The caller guarantees the model checks
    (unit-size, static, k=1).
    """
    makespan, rows, _ = _search(units, cap, _MAX_CONFIGURATIONS)
    return grid_witness_makespan(units, cap, rows, makespan)
