"""Pluggable admission control for the scheduling service.

On every arrival the engine proposes a queue placement, assembles an
:class:`AdmissionContext` describing the system at that instant, and
asks the configured policy whether to admit the job.  Rejected jobs
never enter the instance; the decision is recorded in the event log
so replays reproduce it exactly (policies must therefore be
deterministic functions of the context).

Three policies ship:

* ``accept-all`` -- the open-loop default;
* ``utilization-cap`` -- admit while the projected backlog stays
  under ``cap`` times a work window (load shedding);
* ``deadline-feasibility`` -- admit deadline jobs only when the
  proposed queue can still finish them by their deadline even at full
  speed (jobs without a deadline are always admitted).

Resolve policies by registry name via :func:`get_admission`; unknown
names raise :class:`~repro.exceptions.ServiceError` listing
:func:`available_admission`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import InitVar, dataclass, field
from typing import Any, Callable

from ..core.job import Job
from ..exceptions import ServiceError

__all__ = [
    "AcceptAll",
    "AdmissionContext",
    "AdmissionPolicy",
    "DeadlineFeasibility",
    "UtilizationCap",
    "available_admission",
    "get_admission",
]


@dataclass(frozen=True, slots=True)
class AdmissionContext:
    """Everything an admission policy may look at for one arrival.

    Attributes:
        time: the arrival step.
        job: the candidate job.
        queue_index: the queue the engine proposes to append to.
        queue_backlog: full-speed steps of unfinished work already
            queued on ``queue_index`` (the candidate's wait bound).
        total_backlog: unfinished work (processing volume) across all
            queues, as a float.  Given as a zero-argument callable, it
            runs on the first read (read it inside ``admit``: afterwards
            the service may have grown the run).  The service passes its
            rescan of the unfinished jobs that way, so ``accept-all``,
            which never reads it, never pays for the rescan.
        num_processors: current logical queue count of the service.
    """

    time: int
    job: Job
    queue_index: int
    queue_backlog: float
    total_backlog: InitVar["float | Callable[[], float]"]
    num_processors: int
    _total: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self, total_backlog) -> None:
        object.__setattr__(self, "_total", total_backlog)

    def _read_total(self) -> float:
        """Unfinished work across all queues (see the class docstring)."""
        if callable(self._total):
            object.__setattr__(self, "_total", self._total())
        return self._total


AdmissionContext.total_backlog = property(AdmissionContext._read_total)  # type: ignore


class AdmissionPolicy(ABC):
    """Decides, per arrival, whether a job enters the system.

    Implementations must be deterministic in the context -- the event
    log records only the *decision*, and replay re-derives it.
    """

    #: Registry name (set by subclasses).
    name: str = "?"

    @abstractmethod
    def admit(self, ctx: AdmissionContext) -> bool:
        """True to accept the arrival, False to shed it."""

    def describe(self) -> str:
        """Human-readable one-line form for reports and logs."""
        return self.name

    def options(self) -> dict[str, float | int]:
        """Constructor options for event-log configs (replayability)."""
        return {}


class AcceptAll(AdmissionPolicy):
    """Admit every arrival (the open-loop default)."""

    name = "accept-all"

    def admit(self, ctx: AdmissionContext) -> bool:
        """Always True."""
        return True


class UtilizationCap(AdmissionPolicy):
    """Shed load once the backlog fills a utilization window.

    Admits an arrival iff the projected total backlog (current
    unfinished work plus the candidate's processing volume) stays
    within ``cap * window`` units of work.  With the default
    ``cap=0.9, window=64`` the service keeps roughly a 90%-full
    64-step work buffer and rejects bursts beyond it.

    Args:
        cap: target utilization in ``(0, 1]``.
        window: work-buffer size in full-speed steps (>= 1).
    """

    name = "utilization-cap"

    def __init__(self, *, cap: float = 0.9, window: int = 64) -> None:
        if not 0 < cap <= 1:
            raise ServiceError(f"cap must be in (0, 1], got {cap}")
        if window < 1:
            raise ServiceError(f"window must be >= 1, got {window}")
        self.cap = float(cap)
        self.window = int(window)

    def admit(self, ctx: AdmissionContext) -> bool:
        """True while backlog + candidate work fits the capped window."""
        projected = ctx.total_backlog + float(ctx.job.work)
        return projected <= self.cap * self.window

    def describe(self) -> str:
        """Name plus the cap/window parameters."""
        return f"{self.name}(cap={self.cap}, window={self.window})"

    def options(self) -> dict[str, float | int]:
        """The cap/window parameters (for event-log configs)."""
        return {"cap": self.cap, "window": self.window}


class DeadlineFeasibility(AdmissionPolicy):
    """Reject deadline jobs that can no longer make their deadline.

    A job with deadline ``d`` is admitted iff even the optimistic
    bound -- arrival time plus the proposed queue's full-speed backlog
    plus the job's own full-speed steps -- does not exceed ``d``.
    Queues are sequential, so this bound is a true feasibility
    necessary condition; jobs without a deadline always pass.
    """

    name = "deadline-feasibility"

    def admit(self, ctx: AdmissionContext) -> bool:
        """True when the deadline is absent or still reachable."""
        if ctx.job.deadline is None:
            return True
        finish_bound = (
            ctx.time + ctx.queue_backlog + ctx.job.steps_at_full_speed()
        )
        return finish_bound <= ctx.job.deadline


_REGISTRY: dict[str, type[AdmissionPolicy]] = {
    AcceptAll.name: AcceptAll,
    UtilizationCap.name: UtilizationCap,
    DeadlineFeasibility.name: DeadlineFeasibility,
}


def available_admission() -> list[str]:
    """Sorted registry names of the admission policies."""
    return sorted(_REGISTRY)


def get_admission(policy: str | AdmissionPolicy, **options) -> AdmissionPolicy:
    """Resolve an admission policy by name (or pass one through).

    Args:
        policy: a registry name or an :class:`AdmissionPolicy`.
        options: keyword options for the named policy's constructor
            (e.g. ``cap=0.8`` for ``utilization-cap``).

    Raises:
        ServiceError: unknown name, or options passed alongside an
            already-constructed policy.
    """
    if isinstance(policy, AdmissionPolicy):
        if options:
            raise ServiceError(
                "options are only accepted with a registry name, "
                f"not an {type(policy).__name__} object"
            )
        return policy
    cls = _REGISTRY.get(policy)
    if cls is None:
        raise ServiceError(
            f"unknown admission policy {policy!r}; "
            f"available: {available_admission()}"
        )
    try:
        return cls(**options)
    except TypeError as exc:
        raise ServiceError(
            f"bad options for admission policy {policy!r}: {exc}"
        ) from exc
