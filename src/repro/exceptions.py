"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so callers
can catch everything from this package with one clause while standard
errors (``TypeError``/``ValueError`` raised for plain misuse of the
API) propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidInstanceError",
    "InvalidScheduleError",
    "InfeasibleAssignmentError",
    "UnitSizeRequiredError",
    "SimulationLimitError",
    "ObserverError",
    "SolverError",
    "BackendError",
    "VectorizationUnsupportedError",
    "UnknownPolicyError",
    "UnknownKeyColumnError",
    "UnknownObjectiveError",
    "SequencingError",
    "CheckpointError",
    "ServiceError",
    "MissingDependencyError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidInstanceError(ReproError, ValueError):
    """An :class:`~repro.core.instance.Instance` violates the model.

    Examples: a resource requirement outside ``[0, 1]``, a non-finite
    or non-positive processing volume, a non-integer release time, or
    an empty system (no processors).  Also a ``ValueError``, so callers
    that catch the builtin keep working.
    """


class InvalidScheduleError(ReproError, ValueError):
    """A :class:`~repro.core.schedule.Schedule` is malformed or does not
    match the instance it is validated against (wrong processor count,
    shares outside ``[0,1]``, resource overuse, or jobs left unfinished).
    Also a ``ValueError``, as :class:`InvalidInstanceError` is.
    """


class InfeasibleAssignmentError(ReproError):
    """A policy produced a per-step resource assignment that overuses
    the shared resource or assigns a negative share."""


class UnitSizeRequiredError(ReproError):
    """An algorithm analyzed only for unit-size jobs (Sections 4-8 of
    the paper) was given an instance with non-unit processing volumes."""


class SimulationLimitError(ReproError):
    """The step simulator exceeded its ``max_steps`` safety limit,
    which indicates a non-terminating policy (e.g. one that assigns
    zero resource forever)."""


class ObserverError(ReproError):
    """A kernel step observer raised during dispatch.

    Observers are telemetry: they must never break a run silently, and
    the kernel must not let their failures masquerade as simulation
    errors.  :func:`repro.core.kernel.run_kernel` therefore wraps any
    exception escaping an observer callback in this type (the original
    exception is chained as ``__cause__``), after the step itself has
    fully applied -- the runtime state stays consistent.
    """


class SolverError(ReproError):
    """An exact solver (DP / configuration search / MILP) failed to
    produce a certified-optimal solution."""


class BackendError(ReproError):
    """A simulation backend (:mod:`repro.backends`) was misused:
    unknown backend name, or a backend-specific precondition failed."""


class VectorizationUnsupportedError(BackendError):
    """A policy without a vectorized ``shares_array`` path was handed
    to :class:`~repro.backends.VectorBackend`.  Implement
    :meth:`repro.algorithms.base.Policy.shares_array` or run the policy
    on the exact backend."""


class SequencingError(ReproError):
    """The sequencing layer (:mod:`repro.sequencing`) was misused:
    unknown sequencer name, or a strategy produced queues that do not
    preserve the instance's job bag."""


class CheckpointError(ReproError):
    """A :class:`~repro.core.checkpoint.KernelCheckpoint` cannot be used.

    Raised when a serialized checkpoint document is corrupted (digest
    mismatch, missing keys, malformed values), carries an unsupported
    format/version tag, or does not fit the runtime it is being
    restored into (wrong backend kind, shape mismatch against the
    instance, or an instance that is not a valid extension of the
    checkpointed one).
    """


class ServiceError(ReproError):
    """The scheduling service layer (:mod:`repro.service`) was misused:
    unknown admission policy, malformed trace/event-log documents, or
    events submitted against a closed engine."""


class MissingDependencyError(ReproError, ImportError):
    """An optional package a feature needs is not installed.

    The message names the extra that installs it: ``milp`` (scipy) or
    ``graph`` (networkx).  Also an ``ImportError``.
    """


class UnknownPolicyError(ReproError, KeyError):
    """A policy name has no entry in the policy registry.

    Raised by :func:`repro.algorithms.get_policy` (and therefore by
    every public entry point that resolves policy names --
    ``run_policy``, ``simulate``, ``cross_validate``, ``BatchRunner``,
    ``ManyCoreEngine.run``).  The message lists
    :func:`repro.algorithms.available_policies`.  Subclasses
    ``KeyError`` for backwards compatibility with callers that catch
    the registry's historical exception type.
    """

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its single argument, which would
        # wrap the human-readable message in quotes.
        return self.args[0] if len(self.args) == 1 else super().__str__()


class UnknownKeyColumnError(ReproError, ValueError):
    """A water-fill policy's priority ``key`` names an unknown column.

    Raised when the :class:`~repro.algorithms.base.WaterFillPolicy`
    subclass is defined; the message lists the known columns.
    """


class UnknownObjectiveError(ReproError, KeyError):
    """An objective name has no entry in the objective registry.

    Raised by :func:`repro.objectives.get_objective` (and therefore by
    ``Backend.run(objectives=...)``, ``run_batch`` and
    ``BatchRunner``).  The message lists
    :func:`repro.objectives.available_objectives`; subclasses
    ``KeyError`` like :class:`UnknownPolicyError`.
    """

    def __str__(self) -> str:
        return self.args[0] if len(self.args) == 1 else super().__str__()
