"""The always-on scheduling service (event-driven incremental runs).

This subpackage turns the batch-oriented kernel into a long-running
service: :class:`SchedulingService` accepts streaming job arrivals
(JSONL traces via :class:`TraceStream`, or seeded stochastic
:class:`PoissonStream` workloads), grows one live kernel runtime in
place on every admitted arrival instead of re-simulating from
``t=0``, sheds load through pluggable admission control
(:mod:`repro.service.admission`), and reports steady-state
utilization plus scheduling-latency percentiles.  Runs are recorded
as replayable event logs (:func:`replay_log`, ``crsharing replay``),
and :class:`ResultStore` / :func:`run_cached_campaign` add a
content-addressed cache in front of sharded campaigns.
"""

from .admission import (
    AcceptAll,
    AdmissionContext,
    AdmissionPolicy,
    DeadlineFeasibility,
    UtilizationCap,
    available_admission,
    get_admission,
)
from .engine import SchedulingService, ServiceReport, replay_log
from .events import (
    ArrivalEvent,
    read_event_log,
    read_trace,
    write_event_log,
    write_trace,
)
from .store import ResultStore, instance_digest, run_cached_campaign
from .streams import PoissonStream, TraceStream

__all__ = [
    "AcceptAll",
    "AdmissionContext",
    "AdmissionPolicy",
    "ArrivalEvent",
    "DeadlineFeasibility",
    "PoissonStream",
    "ResultStore",
    "SchedulingService",
    "ServiceReport",
    "TraceStream",
    "UtilizationCap",
    "available_admission",
    "get_admission",
    "instance_digest",
    "read_event_log",
    "read_trace",
    "replay_log",
    "run_cached_campaign",
    "write_event_log",
    "write_trace",
]
