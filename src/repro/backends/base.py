"""The :class:`Backend` protocol and its result container.

A *backend* is an execution engine for online policies: it repeatedly
asks the policy for a share vector, applies the model's step semantics
(Section 3.1 of the paper), and reports the makespan plus optional
telemetry.  All backends implement the same contract so callers --
:meth:`repro.algorithms.base.Policy.run_backend`, the CLI's
``--backend`` flag, :class:`~repro.backends.batch.BatchRunner` -- can
swap engines without touching policy or analysis code.

Contract (what every backend guarantees):

* ``run(instance, policy)`` executes until all jobs complete or a
  safety limit triggers (:class:`~repro.exceptions.SimulationLimitError`);
* infeasible policy output (share outside ``[0,1]`` or overused
  capacity, beyond the backend's tolerance) raises
  :class:`~repro.exceptions.InfeasibleAssignmentError`;
* the returned :class:`BackendResult` reports the same makespan the
  exact simulator would (within the backend's documented tolerance --
  exactly for :class:`~repro.backends.exact.ExactBackend`, within
  float64 rounding for :class:`~repro.backends.vector.VectorBackend`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from ..exceptions import BackendError
from ..telemetry import get_session

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..core.instance import Instance
    from ..core.job import JobId
    from ..core.kernel import KernelRuntime
    from ..core.schedule import Schedule
    from ..objectives.base import Objective

__all__ = ["Backend", "BackendResult", "backend_run_span", "resolve_objectives"]


@contextmanager
def backend_run_span(
    backend_name: str, instance: "Instance", policy
) -> Iterator[Any]:
    """A ``backend.run`` telemetry span around one backend run.

    Yields the open span handle when a telemetry session is installed
    (the backend ``note``\\ s the makespan onto it before closing), or
    ``None`` when telemetry is disabled -- one :func:`get_session`
    check per run, nothing on the hot path.
    """
    session = get_session()
    if session is None:
        yield None
        return
    with session.tracer.span(
        "backend.run",
        backend=backend_name,
        policy=str(getattr(policy, "name", type(policy).__name__)),
        m=instance.num_processors,
        jobs=instance.total_jobs,
        resources=instance.num_resources,
    ) as span:
        yield span


def resolve_objectives(
    objectives: "Sequence[Objective | str]",
) -> "list[Objective]":
    """Normalize a mixed name/instance objective list (shared helper).

    Backends accept objectives by registry name or as instances; this
    resolves names through :func:`repro.objectives.get_objective` so
    every backend and the batch workers share one lookup path.
    """
    from ..objectives import get_objective  # local: objectives build on core

    return [
        get_objective(obj) if isinstance(obj, str) else obj
        for obj in objectives
    ]


@dataclass(slots=True)
class BackendResult:
    """Outcome of one backend run.

    Attributes:
        backend: name of the backend that produced this result.
        makespan: number of time steps until all jobs finished.
        shares: per-step share rows (``makespan x m``) when the run was
            recorded; ``None`` when recording was disabled to save
            memory on bulk sweeps.  Exact backends store ``Fraction``
            rows, the vector backend float64 rows.
        processed: per-step work actually processed (same shape and
            recording rule as ``shares``).
        completion_steps: 0-based completion step per job id ``(i, j)``.
        schedule: the validated exact :class:`Schedule` artifact
            (exact backend only; ``None`` for float backends).
        instance: the instance the run executed (set by the shipped
            backends; lets objectives re-evaluate the result without a
            side channel).
        objective_values: objective name -> value for every objective
            requested via ``run(..., objectives=...)``, evaluated once
            after the run from ``completion_steps`` (exact
            ``Fraction``/int values on every backend: the vector
            backend's completion steps are integers too).
    """

    backend: str
    makespan: int
    shares: Sequence[Sequence[Any]] | None = None
    processed: Sequence[Sequence[Any]] | None = None
    completion_steps: dict[tuple[int, int], int] = field(default_factory=dict)
    schedule: "Schedule | None" = None
    instance: "Instance | None" = None
    objective_values: dict[str, Any] = field(default_factory=dict)

    def share_rows(self) -> list[tuple[Any, ...]]:
        """The recorded share matrix as a list of row tuples.

        Raises:
            ValueError: if the run was executed with
                ``record_shares=False``.
        """
        if self.shares is None:
            raise ValueError(
                "share rows were not recorded (run with record_shares=True)"
            )
        return [tuple(row) for row in self.shares]


class Backend(ABC):
    """Abstract simulation backend.

    See the module docstring for the full contract.

    Example:
        >>> from repro.backends import get_backend
        >>> from repro.core import Instance
        >>> from repro.algorithms import GreedyBalance
        >>> inst = Instance.from_percent([[50, 50], [50, 50]])
        >>> get_backend("vector").run(inst, GreedyBalance()).makespan
        2
    """

    #: Registry / CLI identifier.
    name: str = "backend"

    @abstractmethod
    def run(
        self,
        instance: "Instance",
        policy,
        *,
        max_steps: int | None = None,
        record_shares: bool = True,
        objectives: "Sequence[Objective | str]" = (),
    ) -> BackendResult:
        """Execute *policy* on *instance* until completion.

        Args:
            instance: the CRSharing instance.
            policy: a :class:`~repro.algorithms.base.Policy` (backends
                may require specific capabilities, e.g. the vector
                backend needs ``shares_array``).
            max_steps: hard safety limit (default:
                :func:`repro.core.simulator.default_step_limit`).
            record_shares: keep per-step share/progress rows on the
                result.  Disable for bulk campaigns where only the
                makespan matters.
            objectives: objectives (registry names or
                :class:`~repro.objectives.base.Objective` instances) to
                evaluate from the run's completion steps; their values
                land in :attr:`BackendResult.objective_values`.
        """

    @staticmethod
    def _resolve_policy(policy):
        """Resolve policy registry names to objects (shared plumbing).

        Every backend ``run`` resolves through this before touching the
        policy, so ``get_backend("vector").run(inst, "round-robin")``
        works exactly like passing the policy object -- and capability
        checks (e.g. the vector backend's ``shares_array`` probe) only
        ever see genuine policy objects.
        """
        from ..algorithms import resolve_policy  # local: avoid import cycle

        return resolve_policy(policy)

    @staticmethod
    def _objective_values(
        instance: "Instance",
        objectives: "Sequence[Objective]",
        completion_steps: "dict[JobId, int]",
        makespan: int,
    ) -> dict[str, Any]:
        """``name -> value`` of each objective on one finished run."""
        return {
            obj.name: obj.value_from_completions(
                instance, completion_steps, makespan
            )
            for obj in objectives
        }

    def make_runtime(self, instance: "Instance", policy) -> "KernelRuntime":
        """The kernel runtime this backend contributes.

        Callers that need custom telemetry (e.g. the many-core engine's
        :class:`~repro.simulation.traces.RunTrace` observer) obtain the
        backend's runtime and drive :func:`repro.core.kernel.run_kernel`
        themselves, so every execution path shares the one step loop.

        Raises:
            BackendError: if the backend has no kernel runtime.
        """
        raise BackendError(
            f"backend {self.name!r} does not expose a kernel runtime"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
