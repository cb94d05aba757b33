"""The :class:`Objective` protocol and its registry.

The paper optimizes the makespan; the objective layer makes that choice
pluggable.  An *objective* bundles three things behind one contract:

* **value** -- one exact reduction over the completion-step record
  (:meth:`Objective.value_from_completions`), evaluated once per run
  after the kernel finishes; :meth:`Objective.value` applies it to a
  validated :class:`~repro.core.schedule.Schedule` or a backend result.
  Every engine records the same integer completion steps, so every
  engine reports the same exact value;
* **lower bound** -- an instance-only certificate
  (:meth:`Objective.lower_bound`) generalizing Observation 1's role
  for the makespan;
* **comparison semantics** -- every objective here is *minimized*
  (:attr:`Objective.sense`), and :meth:`Objective.ratio` renders
  value/bound quality ratios with an explicit guard for bounds of 0
  (tardiness is frequently 0 at the optimum).

Concrete implementations: :class:`~repro.objectives.makespan.Makespan`
(the paper's objective, bit-identical to ``Schedule.makespan``),
:class:`~repro.objectives.flow.WeightedFlowTime` (:math:`F_w`, cf. the
mean response time literature), and
:class:`~repro.objectives.tardiness.Tardiness` (total tardiness,
maximum lateness :math:`L_{max}`, and deadline-miss counting, cf. the
deadline variants of the discrete--continuous line).

Objectives are registered by name (:func:`register_objective`) so the
CLI, :class:`~repro.backends.batch.BatchRunner`, and the experiment
harness can select them the way they select policies and backends.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Mapping

from ..core.instance import Instance
from ..core.job import JobId
from ..exceptions import UnknownObjectiveError

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..backends.base import BackendResult
    from ..backends.vector import BagSelection
    from ..core.schedule import Schedule

__all__ = [
    "Objective",
    "register_objective",
    "get_objective",
    "available_objectives",
]


class Objective(ABC):
    """Abstract scheduling objective (see the module docstring).

    Subclasses implement :meth:`value_from_completions` (the one
    definition of the objective) and :meth:`lower_bound`.

    Example:
        >>> from repro.core import Instance
        >>> from repro.algorithms import GreedyBalance
        >>> from repro.objectives import get_objective
        >>> schedule = GreedyBalance().run(
        ...     Instance.from_percent([[50, 50], [50, 50]])
        ... )
        >>> get_objective("makespan").value(schedule)
        2
    """

    #: Registry / CLI identifier.
    name: str = "objective"
    #: All objectives in this layer are minimized.
    sense: str = "min"

    @abstractmethod
    def value_from_completions(
        self, instance: Instance, completion_steps: Mapping[JobId, int], makespan: int | None = None
    ):
        """Evaluate the objective from a completion-step record.

        *completion_steps* maps every job id to its 0-based completion
        step (the form every engine reports).  *makespan* is the run's
        step count; it defaults to ``max(step) + 1`` -- exact for
        complete runs, which end in the step finishing the last job.
        """

    def batch_values(self, selection: "BagSelection", finish, makespans) -> list:
        """The objective on every lane of a batched run.

        *finish* holds the ``(B, m, n + 1)`` completion steps of the
        lanes in *selection*, *makespans* their ``(B,)`` step counts.
        One :meth:`value_from_completions` per lane; array reductions
        override it with the same values.
        """
        values = []
        for b, inst in enumerate(selection.instances):
            rows = finish[b].tolist()
            done = {
                (i, j): t
                for i, queue in enumerate(inst.queues)
                for j, t in enumerate(rows[i][: len(queue)])
            }
            values.append(self.value_from_completions(inst, done, int(makespans[b])))
        return values

    @abstractmethod
    def lower_bound(self, instance: Instance):
        """An instance-only lower bound on the optimal value."""

    def value(self, source: "Schedule | BackendResult", instance: Instance | None = None):
        """Evaluate the objective on a finished run.

        Accepts a validated :class:`~repro.core.schedule.Schedule` or a
        :class:`~repro.backends.base.BackendResult`; *instance* is only
        needed for backend results that do not carry one.
        """
        if instance is None:
            instance = getattr(source, "instance", None)
        if instance is None:
            raise ValueError(
                f"objective {self.name!r} needs the instance to evaluate "
                "this result; pass instance= explicitly"
            )
        return self.value_from_completions(instance, source.completion_steps, source.makespan)

    def ratio(self, value, bound) -> float:
        """``value / lower_bound`` with a guard for zero bounds.

        For objectives whose optimum can be 0 (tardiness, misses) the
        bound is frequently 0: a value of 0 then scores a perfect 1.0
        and any positive value scores ``inf`` (the certificate cannot
        grade it).  Negative bounds (max lateness) fall back to the
        same guard.
        """
        if bound > 0:
            return float(Fraction(value) / Fraction(bound))
        return 1.0 if value <= bound else float("inf")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


# ----------------------------------------------------------------------
# Registry (CLI / batch / experiment harness lookup)
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Callable[[], Objective]] = {}


def register_objective(factory: Callable[[], Objective]) -> Callable[[], Objective]:
    """Register an objective factory under its ``name`` (decorator-friendly)."""
    probe = factory()
    _REGISTRY[probe.name] = factory
    return factory


def get_objective(name: str) -> Objective:
    """Instantiate a registered objective by name.

    Raises:
        UnknownObjectiveError: (a ``KeyError`` subclass) with the list
            of known names.
    """
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise UnknownObjectiveError(
            f"unknown objective {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_objectives() -> list[str]:
    """Names of all registered objectives."""
    return sorted(_REGISTRY)
