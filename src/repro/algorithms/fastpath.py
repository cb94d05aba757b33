"""Integer-grid makespans for GreedyBalance and the oracles.

Every k=1 instance's requirements live on a common rational grid
(``r = units / D`` for the least common denominator ``D``, read off
the instance's job table, :meth:`repro.core.instance.Instance.job_table`),
so water-fill executions run in integers: the per-step capacity is
``D`` units.

:func:`greedy_balance_makespan` runs GreedyBalance on the grid runtime
(:class:`~repro.core.kernel.GridRuntime`, the exact backend's engine
for water-fill policies) without building the Schedule artifact.  It
is bit-for-bit equal to simulating the policy (the test-suite
cross-validates on random instances); the THRU benchmark measures it
against the ``Fraction`` simulator.  RoundRobin needs no fast path:
its makespan has a closed form,
:func:`~repro.algorithms.round_robin.round_robin_makespan_formula`.

The exact offline oracles (Theorems 5 and 6) compute on the same
grid: :func:`grid_witness_makespan` replays their integer witness rows
with every check :class:`~repro.core.schedule.Schedule` validation
makes.
"""

from __future__ import annotations

from typing import Sequence

from ..core.instance import Instance
from ..core.kernel import GridRuntime, run_kernel
from ..exceptions import SolverError
from .greedy_balance import GreedyBalance

__all__ = [
    "greedy_balance_makespan",
    "grid_witness_makespan",
]


def greedy_balance_makespan(instance: Instance) -> int:
    """GreedyBalance's makespan on the integer grid runtime.

    Equal to ``GreedyBalance().run(instance).makespan`` (asserted by
    tests), without building the Schedule artifact.

    Raises:
        UnitSizeRequiredError: for non-unit-size jobs.
        InvalidInstanceError: for instances with release times (the
            integer fast path models the static workload only).
    """
    instance.require_single_resource("greedy_balance_makespan (fast path)")
    instance.require_unit_size("greedy_balance_makespan (fast path)")
    instance.require_static("greedy_balance_makespan (fast path)")
    return run_kernel(GridRuntime(instance), GreedyBalance())


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

