"""Integer-grid fast path for the greedy policies.

The exact simulator runs every policy in ``fractions.Fraction``
arithmetic -- the right default for verifying theorems, but needlessly
slow for bulk sweeps.  Since every instance's requirements live on a
common rational grid (``r = units / D`` for the least common
denominator ``D``, see :meth:`repro.core.instance.Instance.to_integer_grid`),
the whole execution can run in machine/big *integers*: the per-step
capacity becomes ``D`` units and water-filling is integer subtraction.

:func:`greedy_balance_makespan` and :func:`round_robin_makespan` are
drop-in makespan computations for unit-size instances that are
bit-for-bit equal to simulating the corresponding policy (the
test-suite cross-validates on random instances) while running an order
of magnitude faster -- the THRU benchmark measures the speedup.

The exact offline oracles (Theorems 5 and 6) compute on the same
grid: :func:`grid_witness_makespan` replays their integer witness rows
with every check :class:`~repro.core.schedule.Schedule` validation
makes.

This is the "optimize after it's correct" step from the HPC guide: the
exact path stays the source of truth; the fast path is validated
against it, not trusted.
"""

from __future__ import annotations

from typing import Sequence

from ..core.instance import Instance
from ..exceptions import SolverError

__all__ = [
    "greedy_balance_makespan",
    "grid_witness_makespan",
    "round_robin_makespan",
]


def greedy_balance_makespan(instance: Instance) -> int:
    """GreedyBalance's makespan via pure integer arithmetic.

    Equivalent to ``GreedyBalance().run(instance).makespan`` for
    unit-size instances (asserted by tests), without building the
    Schedule artifact.

    Raises:
        UnitSizeRequiredError: for non-unit-size jobs.
        InvalidInstanceError: for instances with release times (the
            integer fast path models the static workload only).
    """
    instance.require_single_resource("greedy_balance_makespan (fast path)")
    instance.require_unit_size("greedy_balance_makespan (fast path)")
    instance.require_static("greedy_balance_makespan (fast path)")
    units, capacity = instance.to_integer_grid()
    m = instance.num_processors
    n_jobs = [len(row) for row in units]
    done = [0] * m
    rem = [units[i][0] for i in range(m)]
    active = set(range(m))
    steps = 0

    while active:
        steps += 1
        # Priority: more remaining jobs first, then larger remaining
        # requirement, then index (exactly GreedyBalance's order).
        order = sorted(
            active, key=lambda i: (-(n_jobs[i] - done[i]), -rem[i], i)
        )
        left = capacity
        for i in order:
            give = rem[i] if rem[i] < left else left
            rem[i] -= give
            left -= give
            if rem[i] == 0:
                done[i] += 1
                if done[i] < n_jobs[i]:
                    rem[i] = units[i][done[i]]
                else:
                    active.discard(i)
            if left == 0:
                break
    return steps


def round_robin_makespan(instance: Instance) -> int:
    """RoundRobin's makespan via pure integer arithmetic.

    Uses the phase decomposition directly: phase ``j`` costs
    ``max(1, ceil(sum of phase-j units / capacity))`` steps (the
    closed form from the Theorem 3 proof, in grid units).
    """
    instance.require_single_resource("round_robin_makespan (fast path)")
    instance.require_unit_size("round_robin_makespan (fast path)")
    instance.require_static("round_robin_makespan (fast path)")
    units, capacity = instance.to_integer_grid()
    n = instance.max_jobs
    total = 0
    for j in range(n):
        phase = sum(row[j] for row in units if len(row) > j)
        total += max(1, -(-phase // capacity))
    return total


def grid_witness_makespan(
    units: Sequence[Sequence[int]],
    capacity: int,
    rows: Sequence[Sequence[int]],
    makespan: int,
) -> int:
    """Replay a solver's witness rows on the grid and return *makespan*.

    The integer mirror of ``Schedule(instance, rows, validate=True,
    trim=True)`` for the unit-size instance whose grid is
    ``(units, capacity)`` (:meth:`Instance.to_integer_grid`): every
    share lies in ``[0, capacity]``, every row sums to at most
    ``capacity``, every job finishes, and trailing steps that neither
    process work nor complete a job are trimmed.  A processor works on
    its first unfinished job, ``min(share, remaining)`` units per step.

    Raises:
        SolverError: if the rows violate any check, or their trimmed
            length is not *makespan* (the solver's value and witness
            disagree).
    """
    m = len(units)
    done = [0] * m
    rem = [queue[0] for queue in units]
    length = 0
    for t, row in enumerate(rows):
        if len(row) != m or sum(row) > capacity:
            raise SolverError(
                f"witness step {t} is not a feasible share vector: {list(row)} "
                f"(capacity {capacity})"
            )
        live = False
        for i, x in enumerate(row):
            if x < 0 or x > capacity:
                raise SolverError(
                    f"witness step {t}: share {x} for processor {i} is "
                    f"outside [0, {capacity}]"
                )
            j = done[i]
            if j == len(units[i]):
                continue
            work = x if x < rem[i] else rem[i]
            rem[i] -= work
            if work or not rem[i]:
                live = True
            if not rem[i]:
                done[i] = j + 1
                if j + 1 < len(units[i]):
                    rem[i] = units[i][j + 1]
        if live:
            length = t + 1
    if any(d < len(queue) for d, queue in zip(done, units)):
        raise SolverError(
            f"witness leaves jobs unfinished (done per processor: {done})"
        )
    if length != makespan:
        raise SolverError(
            f"witness replays to {length} steps, the solver's value is {makespan}"
        )
    return makespan

