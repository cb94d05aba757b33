"""Pluggable scheduling objectives (makespan, flow, deadlines).

The paper's analysis targets the makespan; this layer makes the
objective a first-class, swappable axis threaded through the backends
(``run(..., objectives=...)`` /
:func:`~repro.backends.crosscheck.cross_validate`), the batched
engine, the batch runner, the experiment harness, and the CLI
(``--objective``).  Each objective is defined once, as an exact
reduction over a run's integer completion steps
(:meth:`Objective.value_from_completions`), and every engine evaluates
it once per run after the kernel finishes.

Registered objectives:

* ``makespan`` -- :class:`Makespan`, the paper's objective (default
  everywhere, bit-identical to ``Schedule.makespan``);
* ``weighted-flow`` -- :class:`WeightedFlowTime`,
  :math:`F_w = \\sum w (C - r)`;
* ``tardiness`` / ``max-lateness`` / ``deadline-misses`` --
  :class:`Tardiness` in its three aggregation modes.

Select by name::

    from repro.objectives import get_objective
    flow = get_objective("weighted-flow")
    value = flow.value(schedule)
    bound = flow.lower_bound(schedule.instance)
"""

from .base import (
    Objective,
    available_objectives,
    get_objective,
    register_objective,
)
from .flow import WeightedFlowTime
from .makespan import Makespan
from .tardiness import TARDINESS_MODES, Tardiness

__all__ = [
    "Makespan",
    "Objective",
    "TARDINESS_MODES",
    "Tardiness",
    "WeightedFlowTime",
    "available_objectives",
    "get_objective",
    "register_objective",
]
