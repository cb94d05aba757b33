"""Exact JSON serialization for instances and schedules.

Rationals are serialized as ``"p/q"`` strings (integers stay bare), so
round-trips are lossless -- a requirement for reproducing experiments
byte-for-byte.  The schema carries a version tag for forward
compatibility.

Schema (instance)::

    {"format": "crsharing-instance", "version": 1,
     "processors": [[{"r": "1/2", "p": 1}, ...], ...],
     "releases": [0, 3, ...]}          # optional; omitted when all 0

Multi-resource instances (``k > 1`` shared resources) are emitted as
version 2 with one requirement *list* per job; single-resource
documents stay byte-identical to version 1, and the reader accepts
both::

    {"format": "crsharing-instance", "version": 2,
     "resources": 2,
     "processors": [[{"r": ["1/2", "1/4"], "p": 1}, ...], ...]}

Instances carrying objective annotations (non-unit job weights or
deadlines, see the pluggable objective layer :mod:`repro.objectives`)
are emitted as version 3 with optional per-job ``"w"`` (weight,
rational) and ``"d"`` (deadline, 1-based integer step) keys; jobs with
default annotations omit the keys, and documents without any
annotation keep their version-1/2 form byte-identical::

    {"format": "crsharing-instance", "version": 3,
     "processors": [[{"r": "1/2", "p": 1, "w": 3, "d": 4}, ...], ...]}

Schema (schedule; single-resource only, like the
:class:`~repro.core.schedule.Schedule` artifact itself)::

    {"format": "crsharing-schedule", "version": 1,
     "instance": {...}, "shares": [["1/2", "0", ...], ...]}
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from ..core.instance import Instance
from ..core.job import Job
from ..core.schedule import Schedule
from ..exceptions import InvalidInstanceError, InvalidScheduleError, ReproError

__all__ = [
    "instance_to_dict",
    "instance_from_dict",
    "job_to_dict",
    "job_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_instance",
    "load_instance",
    "save_schedule",
    "load_schedule",
]

_INSTANCE_FORMAT = "crsharing-instance"
_SCHEDULE_FORMAT = "crsharing-schedule"
_VERSION = 1
#: Version emitted for (and accepted from) multi-resource instances.
_VERSION_MULTI = 2
#: Version emitted for (and accepted from) instances with objective
#: annotations (per-job weights / deadlines).
_VERSION_OBJECTIVE = 3


def _frac_out(x: Fraction) -> str | int:
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def _frac_in(x: str | int | float) -> Fraction:
    if isinstance(x, bool):
        raise ValueError("booleans are not valid rationals")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ValueError(f"expected int or 'p/q' string, got {x!r}")


def _requirement_out(job: Job) -> Any:
    if job.num_resources == 1:
        return _frac_out(job.requirements[0])
    return [_frac_out(r) for r in job.requirements]


def _requirement_in(value: Any) -> Any:
    if isinstance(value, list):
        return [_frac_in(r) for r in value]
    return _frac_in(value)


def _job_out(job: Job) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "r": _requirement_out(job),
        "p": _frac_out(job.size),
    }
    if not job.is_unit_weight:
        doc["w"] = _frac_out(job.weight)
    if job.deadline is not None:
        doc["d"] = job.deadline
    return doc


def job_to_dict(job: Job) -> dict[str, Any]:
    """Lossless dict form of a single job (the per-job instance schema).

    Keys: ``r`` (requirement, ``"p/q"`` string or list for ``k > 1``),
    ``p`` (processing volume), and the optional objective annotations
    ``w`` (weight) / ``d`` (deadline), omitted at their defaults.  Used
    standalone by the service layer's streaming trace format
    (:mod:`repro.service.events`).
    """
    return _job_out(job)


def job_from_dict(doc: dict[str, Any]) -> Job:
    """Inverse of :func:`job_to_dict`.

    Raises:
        ValueError: on a malformed document (missing/invalid keys).
    """
    if not isinstance(doc, dict):
        raise ValueError(f"job document must be a dict, got {type(doc).__name__}")
    try:
        return _job_in(doc)
    except KeyError as exc:
        raise ValueError(f"job document missing key {exc}") from exc


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    """Lossless dict form of an instance.

    The ``releases`` key is emitted only for arrival instances, the
    ``resources`` key (with version >= 2 and per-job requirement
    lists) only for multi-resource instances, and the per-job
    ``w``/``d`` objective keys (with version 3) only for annotated
    jobs -- so plain single-resource static documents stay
    byte-compatible with version-1 readers.
    """
    multi = instance.num_resources > 1
    annotated = instance.has_weights or instance.has_deadlines
    if annotated:
        version = _VERSION_OBJECTIVE
    elif multi:
        version = _VERSION_MULTI
    else:
        version = _VERSION
    data: dict[str, Any] = {
        "format": _INSTANCE_FORMAT,
        "version": version,
        "processors": [
            [_job_out(job) for job in queue] for queue in instance.queues
        ],
    }
    if multi:
        data["resources"] = instance.num_resources
    if instance.has_releases:
        data["releases"] = list(instance.releases)
    return data


def _job_in(doc: dict[str, Any]) -> Job:
    return Job(
        _requirement_in(doc["r"]),
        _frac_in(doc["p"]),
        weight=_frac_in(doc.get("w", 1)),
        deadline=doc.get("d"),
    )


def _document(data: Any, kind: str, fmt: str, versions, error: type[ReproError]) -> None:
    """Check *data*'s format tag and version; *error* if it is no *kind* document."""
    if not isinstance(data, dict) or data.get("format") != fmt:
        tag = data.get("format") if isinstance(data, dict) else type(data).__name__
        raise error(f"not a CRSharing {kind} document: {tag!r}")
    if data.get("version") not in versions:
        raise error(f"unsupported version {data.get('version')!r}")


def _malformed(kind: str, exc: Exception) -> str:
    return f"malformed {kind} document ({type(exc).__name__}: {exc})"


def instance_from_dict(data: dict[str, Any]) -> Instance:
    """Inverse of :func:`instance_to_dict` (accepts versions 1, 2, 3).

    Raises:
        InvalidInstanceError: (a ``ValueError``) on schema mismatch --
            a foreign or unversioned document, a missing key, a value
            that is no rational, a ``resources`` count that contradicts
            the job requirement vectors -- chained to the underlying
            error where there is one.
    """
    _document(
        data, "instance", _INSTANCE_FORMAT,
        (_VERSION, _VERSION_MULTI, _VERSION_OBJECTIVE), InvalidInstanceError,
    )
    try:
        instance = Instance(
            [[_job_in(job) for job in queue] for queue in data["processors"]],
            releases=data.get("releases"),
        )
    except InvalidInstanceError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInstanceError(_malformed("instance", exc)) from exc
    declared = data.get("resources")
    if declared is not None and declared != instance.num_resources:
        raise InvalidInstanceError(
            f"document declares {declared} shared resources but jobs "
            f"carry {instance.num_resources}-entry requirement vectors"
        )
    return instance


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    """Lossless dict form of a schedule (instance embedded)."""
    return {
        "format": _SCHEDULE_FORMAT,
        "version": _VERSION,
        "instance": instance_to_dict(schedule.instance),
        "shares": [
            [_frac_out(x) for x in step.shares] for step in schedule.steps
        ],
    }


def schedule_from_dict(data: dict[str, Any]) -> Schedule:
    """Inverse of :func:`schedule_to_dict` (re-validates on load).

    Raises:
        InvalidScheduleError: (a ``ValueError``) on a foreign or
            unversioned document, a missing key or a share that is no
            rational, chained to the underlying error where there is
            one.
        InvalidInstanceError: when the embedded instance is malformed.
    """
    _document(data, "schedule", _SCHEDULE_FORMAT, (_VERSION,), InvalidScheduleError)
    try:
        instance_doc, shares = data["instance"], data["shares"]
        rows = [[_frac_in(x) for x in row] for row in shares]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidScheduleError(_malformed("schedule", exc)) from exc
    return Schedule(instance_from_dict(instance_doc), rows)


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2))


def _read_document(path: str | Path, error: type[ReproError]) -> dict[str, Any]:
    """The JSON object stored at *path*.

    Raises:
        OSError: the file cannot be read.
        error: the file is not a JSON object (chained to the parse
            error when it does not parse at all).
    """
    try:
        data = json.loads(Path(path).read_bytes())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise error(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise error(f"{path}: not a JSON object")
    return data


def load_instance(path: str | Path) -> Instance:
    """Read an instance document; :class:`InvalidInstanceError` if it is not one."""
    return instance_from_dict(_read_document(path, InvalidInstanceError))


def save_schedule(schedule: Schedule, path: str | Path) -> None:
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=2))


def load_schedule(path: str | Path) -> Schedule:
    """Read a schedule document; :class:`InvalidScheduleError` if it is no JSON object."""
    return schedule_from_dict(_read_document(path, InvalidScheduleError))
