"""Event model and JSONL wire formats for the scheduling service.

Two line-oriented JSON formats live here:

**Trace format** (input): one arrival per line, replayable workload
descriptions.  Each line is ``{"t": <step>, "job": {...}}`` with the
job document from :func:`repro.io.job_to_dict`::

    {"t": 0, "job": {"r": "1/2", "p": 1}}
    {"t": 3, "job": {"r": "3/4", "p": 2, "d": 9}}

**Event-log format** (output): the service's authoritative record of
what happened -- a header line carrying the engine configuration,
then one line per event (arrivals with their admission decision and
queue placement, completions, the final drain).  Re-running a log
through :func:`repro.service.engine.replay_log` reproduces the run
deterministically; ``crsharing replay`` builds on that.

All malformed documents raise the typed
:class:`~repro.exceptions.ServiceError` -- never a bare ``KeyError``
from half-parsed JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

from ..core.job import Job
from ..exceptions import InvalidInstanceError, ServiceError
from ..io.serialization import job_from_dict, job_to_dict

__all__ = [
    "ArrivalEvent",
    "EVENT_LOG_FORMAT",
    "TRACE_FORMAT",
    "read_event_log",
    "read_trace",
    "write_event_log",
    "write_trace",
]

#: Format tag carried by event-log header lines.
EVENT_LOG_FORMAT = "crsharing-events"
#: Nominal name of the arrival trace format (trace lines carry no tag;
#: they are kept minimal so workloads are easy to write by hand).
TRACE_FORMAT = "crsharing-trace"
_EVENT_LOG_VERSION = 1


@dataclass(frozen=True, slots=True)
class ArrivalEvent:
    """A job arriving at the service at a given step.

    Attributes:
        time: the arrival step (0-based, non-decreasing within a
            trace).
        job: the arriving :class:`~repro.core.job.Job`.
    """

    time: int
    job: Job

    def to_dict(self) -> dict[str, Any]:
        """The trace-line form of this arrival."""
        return {"t": self.time, "job": job_to_dict(self.job)}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ArrivalEvent":
        """Parse a trace line.

        Raises:
            ServiceError: on a malformed document (missing keys, bad
                time, invalid job payload).
        """
        if not isinstance(doc, dict):
            raise ServiceError(
                f"trace record must be an object, got {type(doc).__name__}"
            )
        try:
            time = int(doc["t"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"trace record has no valid 't': {doc!r}") from exc
        if time < 0:
            raise ServiceError(f"arrival time must be >= 0, got {time}")
        try:
            job = job_from_dict(doc["job"])
        except KeyError as exc:
            raise ServiceError(f"trace record has no 'job': {doc!r}") from exc
        except InvalidInstanceError:
            raise
        except ValueError as exc:
            raise ServiceError(f"trace record carries a bad job: {exc}") from exc
        return cls(time=time, job=job)


def _iter_jsonl(source: str | Path | Iterable[str]) -> Iterator[tuple[int, Any]]:
    """Yield ``(lineno, parsed)`` for every non-blank JSONL line."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
        lines: Iterable[str] = text.splitlines()
    else:
        lines = source
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            yield lineno, json.loads(line)
        except ValueError as exc:
            raise ServiceError(f"line {lineno}: unparseable JSON: {exc}") from exc


def read_trace(source: str | Path | Iterable[str]) -> list[ArrivalEvent]:
    """Parse a JSONL arrival trace (path, or an iterable of lines).

    Arrival times must be non-decreasing -- the service processes
    events in submission order and cannot rewind its clock.

    Raises:
        ServiceError: on malformed lines or out-of-order arrivals.
    """
    events: list[ArrivalEvent] = []
    for lineno, doc in _iter_jsonl(source):
        event = ArrivalEvent.from_dict(doc)
        if events and event.time < events[-1].time:
            raise ServiceError(
                f"line {lineno}: arrival times must be non-decreasing "
                f"({events[-1].time} then {event.time})"
            )
        events.append(event)
    return events


def write_trace(events: Iterable[ArrivalEvent], path: str | Path) -> int:
    """Write arrivals as a JSONL trace; returns the line count."""
    out = Path(path)
    lines = [json.dumps(e.to_dict()) for e in events]
    out.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return len(lines)


def event_log_header(config: dict[str, Any]) -> dict[str, Any]:
    """The header line for an event log carrying *config*."""
    return {
        "format": EVENT_LOG_FORMAT,
        "version": _EVENT_LOG_VERSION,
        "config": dict(config),
    }


def read_event_log(
    source: str | Path | Iterable[str],
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Parse an event log into ``(config, event records)``.

    Raises:
        ServiceError: on a missing/invalid header or malformed lines.
    """
    config: dict[str, Any] | None = None
    records: list[dict[str, Any]] = []
    for lineno, doc in _iter_jsonl(source):
        if config is None:
            if (
                not isinstance(doc, dict)
                or doc.get("format") != EVENT_LOG_FORMAT
            ):
                raise ServiceError(
                    "event log must start with a "
                    f"{EVENT_LOG_FORMAT!r} header line"
                )
            if doc.get("version") != _EVENT_LOG_VERSION:
                raise ServiceError(
                    f"unsupported event-log version {doc.get('version')!r}"
                )
            if not isinstance(doc.get("config"), dict):
                raise ServiceError("event-log header carries no config")
            config = doc["config"]
            continue
        if not isinstance(doc, dict) or "type" not in doc:
            raise ServiceError(f"line {lineno}: event record has no 'type'")
        records.append(doc)
    if config is None:
        raise ServiceError("empty event log (no header line)")
    return config, records


def write_event_log(
    config: dict[str, Any],
    records: Iterable[dict[str, Any]],
    path: str | Path,
) -> int:
    """Write a header + event records as JSONL; returns the line count."""
    lines = [json.dumps(event_log_header(config))]
    lines.extend(json.dumps(r) for r in records)
    Path(path).write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )
    return len(lines)
