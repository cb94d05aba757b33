"""Regenerate ``service_golden.json`` (scheduling-service decision digests).

Run from the repo root with
``PYTHONPATH=src python tests/data/make_service_golden.py``.
The file pins, for every seeded service run below, one sha256 digest
of what the service decides and what its admission policy sees:

* every :class:`~repro.service.AdmissionContext` the admission policy
  receives: the arrival step, ``queue_index``, ``num_processors``, and
  ``queue_backlog`` / ``total_backlog`` as :meth:`float.hex`, so a
  backlog that rounds differently changes the digest even when no
  decision moves;
* the event log (arrivals with their decisions and queues,
  completions, the drain record);
* the completion step of every job and the report (latencies aside).

The runs cross both backends (``exact``, ``vector``), the three
admission policies (``accept-all``, ``utilization-cap`` with
``cap=0.5, window=8``, ``deadline-feasibility``) and
``max_queues`` in {1, 4, 16}, each over two seeded Poisson streams
(an overloaded one at 4 arrivals per step and a sparse one at 1) and
one hand-built stream: deadline jobs, a zero-requirement job,
non-unit sizes, same-step bursts and an idle gap that drains every
queue before more arrivals.  For every backend and queue cap, each
rejecting policy must shed at least one arrival over the three
streams; the generator asserts it.

Regenerate only when a service decision or backlog is meant to
change, and say so in the commit message.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core.job import Job
from repro.service import (
    ArrivalEvent,
    PoissonStream,
    SchedulingService,
    get_admission,
)

GOLDEN_PATH = Path(__file__).parent / "service_golden.json"

BACKENDS = ("exact", "vector")
ADMISSIONS = {
    "accept-all": {},
    "utilization-cap": {"cap": 0.5, "window": 8},
    "deadline-feasibility": {},
}
MAX_QUEUES = (1, 4, 16)
POISSON = {"rate4": (4.0, 60, 1), "rate1": (1.0, 60, 2)}


def handbuilt_events() -> list[ArrivalEvent]:
    """Deadline jobs, bursts, and an idle gap that drains every queue."""
    return [
        ArrivalEvent(0, Job("1/2", 2)),
        ArrivalEvent(0, Job("1/4", deadline=3)),
        ArrivalEvent(0, Job("3/4", 3, deadline=2)),
        ArrivalEvent(1, Job("0")),
        ArrivalEvent(1, Job("1/3", "3/2", deadline=4)),
        ArrivalEvent(2, Job("1", deadline=2)),
        ArrivalEvent(2, Job("2/5", 2)),
        ArrivalEvent(3, Job("1/10", deadline=40)),
        ArrivalEvent(3, Job("9/10", 2, deadline=5)),
        # Every queue has drained by step 60.
        ArrivalEvent(60, Job("1/2", deadline=61)),
        ArrivalEvent(60, Job("1/3", 2, deadline=61)),
        ArrivalEvent(60, Job("2/3", deadline=62)),
        ArrivalEvent(61, Job("1/4", "5/2")),
        ArrivalEvent(64, Job("3/4", deadline=80)),
    ]


def stream_events(name: str) -> list[ArrivalEvent]:
    if name == "handbuilt":
        return handbuilt_events()
    rate, count, seed = POISSON[name]
    return list(PoissonStream(rate=rate, count=count, seed=seed))


def service_case(
    backend: str, admission: str, max_queues: int, stream: str
) -> tuple[str, int]:
    """``(digest, rejected)`` of one service run."""
    policy = get_admission(admission, **ADMISSIONS[admission])
    seen: list[tuple] = []
    decide = policy.admit

    def admit(ctx) -> bool:
        seen.append(
            (
                ctx.time,
                ctx.queue_index,
                ctx.num_processors,
                ctx.queue_backlog.hex(),
                ctx.total_backlog.hex(),
            )
        )
        return decide(ctx)

    policy.admit = admit
    service = SchedulingService(
        backend=backend, admission=policy, max_queues=max_queues
    )
    report = service.run_stream(stream_events(stream)).to_dict()
    report.pop("latency_percentiles")
    digest = hashlib.sha256()
    for part in (
        seen,
        service.event_log,
        sorted(service.completion_steps.items()),
        report,
    ):
        digest.update(json.dumps(part, sort_keys=True).encode())
    return digest.hexdigest(), service.rejected


def cases():
    """``(case id, thunk)`` for every pinned run."""
    for backend in BACKENDS:
        for admission in ADMISSIONS:
            for max_queues in MAX_QUEUES:
                for stream in (*POISSON, "handbuilt"):
                    yield f"{backend}-{admission}-q{max_queues}-{stream}", (
                        lambda b=backend, a=admission, q=max_queues, s=stream: (
                            service_case(b, a, q, s)
                        )
                    )


def main() -> None:
    entries = []
    shed: dict[tuple[str, ...], int] = {}
    for case, thunk in cases():
        digest, rejected = thunk()
        entries.append({"case": case, "digest": digest})
        backend, rest = case.split("-", 1)
        admission, queues, _stream = rest.rsplit("-", 2)
        key = (backend, admission, queues)
        shed[key] = shed.get(key, 0) + rejected
    for (backend, admission, queues), rejected in shed.items():
        if admission != "accept-all":
            assert rejected > 0, (backend, admission, queues)
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    GOLDEN_PATH.write_text(f'{{"version": 1, "entries": [\n{lines}\n]}}\n')
    print(f"wrote {len(entries)} service golden entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
