"""Regenerate ``float_golden.json`` (float64 engine output digests).

Run from the repo root with
``PYTHONPATH=src python tests/data/make_float_golden.py``.
The file pins, for a fixed set of seeded runs, one sha256 digest of
everything the float64 engines produce: every step's share rows and
processed (work) rows, the completion steps, and the final
``resource_spent`` ledger.  The runs cover each path through the
engines' job tables and active views:

* ``vector``: :class:`~repro.backends.vector.VectorRuntime` runs on
  k = 1, 2 and 3 with arrivals, weights and deadlines, under every
  vector policy;
* ``batch``: :func:`~repro.backends.run_batch` on ragged batches of
  mixed k, with lane compaction on and off (per step: the share
  tensor, the completed slots and jobs, each lane's work, the
  remaining work after the step);
* ``service``: a vector :class:`~repro.service.SchedulingService`
  stream that opens new queues, widens a queue's table past its
  sentinel column and appends to a drained queue;
* ``restore``: a run checkpointed mid-run through JSON and resumed,
  once on the same instance and once on an extension of it.

The digests hash raw float64 bytes, so a layout change in the engines
must replay the file unchanged; both sides of a differential test can
share a slip, a frozen digest cannot.  Regenerate only when the float
arithmetic is meant to change, and say so in the commit message.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.algorithms import available_policies, get_policy
from repro.backends import run_batch
from repro.backends.batched import BatchVectorRuntime
from repro.backends.vector import VectorRuntime
from repro.core.checkpoint import KernelCheckpoint, checkpoint_run, restore_runtime
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.kernel import CompletionRecorder, run_kernel
from repro.generators import (
    multi_resource_instance,
    uniform_instance,
    with_arrivals,
    with_deadlines,
    with_weights,
)
from repro.service import ArrivalEvent, PoissonStream, SchedulingService

GOLDEN_PATH = Path(__file__).parent / "float_golden.json"


class Digest:
    """A running sha256 over arrays and plain values, in call order."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *values) -> None:
        for value in values:
            if isinstance(value, np.ndarray):
                arr = np.ascontiguousarray(value)
                self._h.update(f"{arr.dtype.str}{arr.shape}".encode())
                self._h.update(arr.tobytes())
            else:
                self._h.update(repr(value).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


@contextmanager
def recording(digest: Digest):
    """Feed every single-lane and batched step into *digest*."""
    vector_apply = VectorRuntime.apply
    batch_query = BatchVectorRuntime._query
    batch_apply = BatchVectorRuntime._apply

    def apply(self, shares):
        event = vector_apply(self, shares)
        digest.add(event.t, event.shares, event.processed, event.completed)
        return event

    def query(self):
        shares = batch_query(self)
        digest.add(self.state.t, shares)
        return shares

    def apply_batch(self, shares):
        slots, jobs, spent = batch_apply(self, shares)
        digest.add(slots, jobs, spent, self.state.remaining)
        return slots, jobs, spent

    VectorRuntime.apply = apply
    BatchVectorRuntime._query = query
    BatchVectorRuntime._apply = apply_batch
    try:
        yield
    finally:
        VectorRuntime.apply = vector_apply
        BatchVectorRuntime._query = batch_query
        BatchVectorRuntime._apply = batch_apply


def annotated(instance: Instance, seed: int) -> Instance:
    """*instance* with arrivals, skewed weights and mixed deadlines."""
    inst = with_arrivals(instance, max_release=4, seed=seed)
    inst = with_weights(inst, profile="skewed", seed=seed + 1)
    return with_deadlines(inst, profile="mixed", seed=seed + 2)


def vector_instance(k: int, seed: int) -> Instance:
    base = (
        uniform_instance(6, 5, seed=seed)
        if k == 1
        else multi_resource_instance(6, 5, k, seed=seed)
    )
    return annotated(base, seed + 10)


def finish_run(runtime, policy, digest: Digest) -> None:
    """Run *runtime* to the end, digesting its completions and ledger."""
    completions = CompletionRecorder()
    with recording(digest):
        makespan = run_kernel(runtime, policy, [completions])
    digest.add(makespan, sorted(completions.completion_steps.items()))
    digest.add(runtime.state.resource_spent)


def vector_case(k: int, seed: int, policy: str) -> str:
    digest = Digest()
    finish_run(VectorRuntime(vector_instance(k, seed)), get_policy(policy), digest)
    return digest.hexdigest()


def ragged_batch(seed: int) -> list[Instance]:
    """Mixed k, m, queue lengths and releases; most lanes finish early."""
    lanes = [multi_resource_instance(2, 1, 1 + j % 3, seed=seed + j) for j in range(6)]
    lanes.append(annotated(multi_resource_instance(4, 6, 3, seed=seed + 50), seed))
    lanes.append(annotated(uniform_instance(5, 7, seed=seed + 60), seed + 1))
    lanes.append(multi_resource_instance(3, 5, 2, seed=seed + 70))
    return lanes


def batch_case(seed: int, policy: str, compact: bool) -> str:
    digest = Digest()
    with recording(digest):
        result = run_batch(
            ragged_batch(seed),
            policy,
            objectives=("makespan", "weighted-flow", "tardiness"),
            compact_threshold=0.5 if compact else None,
        )
    digest.add(result.makespans, sorted(result.objective_values.items()))
    digest.add(result.steps, result.compactions)
    return digest.hexdigest()


def _job(k: int, *reqs, size=1) -> Job:
    return Job([reqs[lane % len(reqs)] for lane in range(k)] if k > 1 else reqs[0], size)


def service_events(k: int) -> list[ArrivalEvent]:
    """Arrivals that open three queues, widen queue 0's table twice and
    append to queue 1 after it drained."""
    return [
        ArrivalEvent(0, _job(k, "1/2", "1/4", size=3)),
        ArrivalEvent(0, _job(k, "1/4", "0")),
        ArrivalEvent(1, _job(k, "3/4", "1/2", size=2)),
        ArrivalEvent(1, _job(k, "1/3", "2/3")),
        ArrivalEvent(2, _job(k, "1/2", "1/2")),
        ArrivalEvent(3, _job(k, "1/5", "1/10")),
        ArrivalEvent(9, _job(k, "2/5", "1/5")),
        ArrivalEvent(9, _job(k, "1/4", "3/4", size=2)),
        ArrivalEvent(10, _job(k, "3/5", "1/5")),
        ArrivalEvent(30, _job(k, "1/2", "1/3")),
        ArrivalEvent(30, _job(k, "1/10", "9/10")),
    ]


def service_case(name: str) -> str:
    if name == "poisson":
        events = list(PoissonStream(rate=1.5, count=60, seed=3))
        queues = 6
    else:
        events = service_events(int(name[1:]))
        queues = 3
    digest = Digest()
    service = SchedulingService(backend="vector", max_queues=queues)
    with recording(digest):
        for event in events:
            service.submit(event)
            digest.add(json.dumps(service._runtime.capture(), sort_keys=True))
        service.drain()
    digest.add(sorted(service.completion_steps.items()))
    digest.add(service._runtime.state.resource_spent)
    return digest.hexdigest()


def restore_case(k: int, cut: int, extend: bool) -> str:
    instance = vector_instance(k, 40 + k)
    policy = get_policy("greedy-balance")
    digest = Digest()
    live = VectorRuntime(instance)
    with recording(digest):
        run_kernel(live, policy, stop=lambda rt: rt.t >= cut)
    text = checkpoint_run(live).to_json()
    digest.add(text)
    target = None
    if extend:
        queues = [list(q) for q in instance.queues]
        queues[0].append(_job(k, "1/2", "1/4", size=2))
        queues.append([_job(k, "1/3", "1/6"), _job(k, "1/4", "1/2")])
        target = Instance(queues, releases=list(instance.releases) + [cut + 1])
    resumed = restore_runtime(KernelCheckpoint.from_json(text), instance=target)
    finish_run(resumed, policy, digest)
    return digest.hexdigest()


def vector_policies() -> list[str]:
    return [n for n in available_policies() if get_policy(n).supports_vector]


def cases():
    """``(path, case id, thunk)`` for every pinned run."""
    for k in (1, 2, 3):
        for seed in (1, 2):
            for policy in vector_policies():
                yield "vector", f"k{k}-s{seed}-{policy}", (
                    lambda k=k, s=seed, p=policy: vector_case(k, s, p)
                )
    for seed in (5, 6):
        for policy in ("greedy-balance", "round-robin", "weighted-srpt", "edf-waterfill"):
            for compact in (True, False):
                yield "batch", f"s{seed}-{policy}-{'compact' if compact else 'flat'}", (
                    lambda s=seed, p=policy, c=compact: batch_case(s, p, c)
                )
    for name in ("k1", "k2", "k3", "poisson"):
        yield "service", name, lambda n=name: service_case(n)
    for k in (1, 2, 3):
        for cut in (2, 5):
            for extend in (False, True):
                yield "restore", f"k{k}-cut{cut}-{'extend' if extend else 'same'}", (
                    lambda k=k, c=cut, e=extend: restore_case(k, c, e)
                )


def main() -> None:
    entries = [
        {"path": path, "case": case, "digest": thunk()} for path, case, thunk in cases()
    ]
    # One entry per line: a diff names the runs that moved.
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    GOLDEN_PATH.write_text(f'{{"version": 1, "entries": [\n{lines}\n]}}\n')
    print(f"wrote {len(entries)} float golden entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
