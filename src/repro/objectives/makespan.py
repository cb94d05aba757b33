"""The paper's objective: makespan (number of time steps).

:class:`Makespan` is the default objective everywhere and is pinned
bit-identical to the pre-objective-layer behavior: its value *is*
``Schedule.makespan`` / ``BackendResult.makespan``, and its lower
bound *is* :meth:`repro.core.instance.Instance.makespan_lower_bound`
(Observation 1 plus the release-aware refinements).
"""

from __future__ import annotations

from typing import Mapping

from ..core.instance import Instance
from ..core.job import JobId
from .base import Objective, register_objective

__all__ = ["Makespan"]


@register_objective
class Makespan(Objective):
    """Number of steps until every job is finished (Sections 4-8).

    Example:
        >>> from repro.core import Instance
        >>> from repro.algorithms import GreedyBalance
        >>> inst = Instance.from_percent([[60, 40], [80, 20]])
        >>> schedule = GreedyBalance().run(inst)
        >>> Makespan().value(schedule) == schedule.makespan
        True
    """

    name = "makespan"

    def value_from_completions(
        self, instance: Instance, completion_steps: Mapping[JobId, int], makespan: int | None = None
    ) -> int:
        """The number of executed steps (the last completion + 1)."""
        if makespan is None:
            return max(completion_steps.values(), default=-1) + 1
        return makespan

    def batch_values(self, selection, finish, makespans) -> list[int]:
        """The lanes' step counts."""
        return makespans.tolist()

    def lower_bound(self, instance: Instance) -> int:
        """Observation 1 + release/length refinements (the paper's bound)."""
        return instance.makespan_lower_bound()
