"""Regenerate ``observer_golden.json`` (what kernel observers receive).

Run from the repo root with
``PYTHONPATH=src python tests/data/make_observer_golden.py``.
The file pins, for a fixed set of seeded runs, one sha256 digest per
observer contract:

* ``complete``: the ``(job, t)`` sequence an observer that overrides
  only :meth:`~repro.core.kernel.StepObserver.on_complete` receives,
  then the makespan its ``on_finish`` receives;
* ``step``: the :class:`~repro.core.kernel.StepEvent` stream an
  observer that overrides only ``on_step`` receives -- per step ``t``,
  shares, processed, completed, ``had_work`` and ``progressed``.

The runs cover the three kernel runtimes -- ``vector``
(:class:`~repro.backends.vector.VectorRuntime`), ``grid``
(:class:`~repro.core.kernel.GridRuntime`, water-fill policies on
k = 1) and ``exact`` (:class:`~repro.core.kernel.ExactRuntime`) -- on
k = 1 and k = 2 instances with releases, weights and deadlines, under
every registered policy.  Regenerate only when what observers see is
meant to change, and say so in the commit message.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.algorithms import available_policies, get_policy
from repro.algorithms.base import WaterFillPolicy
from repro.backends.vector import VectorRuntime
from repro.core.instance import Instance
from repro.core.kernel import ExactRuntime, GridRuntime, StepObserver, run_kernel
from repro.generators import (
    multi_resource_instance,
    uniform_instance,
    with_arrivals,
    with_deadlines,
    with_weights,
)

GOLDEN_PATH = Path(__file__).parent / "observer_golden.json"

RUNTIMES = ("vector", "grid", "exact")


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


def _plain(row):
    """An exact runtime's share or work row as nested tuples (arrays pass)."""
    if isinstance(row, np.ndarray):
        return row
    return tuple(_plain(x) if isinstance(x, (tuple, list)) else x for x in row)


def digest_event(digest: Digest, event) -> None:
    """Fold every field of one :class:`StepEvent` into *digest*."""
    digest.add(
        event.t,
        _plain(event.shares),
        _plain(event.processed),
        tuple(event.completed),
        tuple(bool(x) for x in event.had_work),
        bool(event.progressed),
    )


class CompletionsOnly(StepObserver):
    """Overrides ``on_complete`` (and ``on_finish``) only."""

    def __init__(self) -> None:
        self.digest = Digest()

    def on_complete(self, job, t):
        self.digest.add(job, t)

    def on_finish(self, makespan):
        self.digest.add("finish", makespan)


class StepsOnly(StepObserver):
    """Overrides ``on_step`` only."""

    def __init__(self) -> None:
        self.digest = Digest()

    def on_step(self, event):
        digest_event(self.digest, event)


class DuckObserver:
    """Every callback, without subclassing :class:`StepObserver`.

    Its two digests must equal the subclass observers' digests of the
    same run: a duck-typed observer receives every callback.
    """

    def __init__(self) -> None:
        self.steps = Digest()
        self.completions = Digest()

    def on_step(self, event):
        digest_event(self.steps, event)

    def on_complete(self, job, t):
        self.completions.add(job, t)

    def on_finish(self, makespan):
        self.completions.add("finish", makespan)


def annotated(instance: Instance, seed: int) -> Instance:
    """*instance* with arrivals, skewed weights and mixed deadlines."""
    inst = with_arrivals(instance, max_release=3, seed=seed)
    inst = with_weights(inst, profile="skewed", seed=seed + 1)
    return with_deadlines(inst, profile="mixed", seed=seed + 2)


def case_instance(k: int, seed: int) -> Instance:
    base = (
        uniform_instance(4, 4, seed=seed)
        if k == 1
        else multi_resource_instance(4, 4, k, seed=seed)
    )
    return annotated(base, seed + 20)


def make_runtime(kind: str, instance: Instance):
    if kind == "vector":
        return VectorRuntime(instance)
    if kind == "grid":
        return GridRuntime(instance)
    return ExactRuntime(instance)


def supports(kind: str, policy, k: int) -> bool:
    if kind == "vector":
        return policy.supports_vector
    if kind == "grid":
        return k == 1 and isinstance(policy, WaterFillPolicy)
    return True


def run_observed(kind: str, k: int, seed: int, name: str, observers) -> int:
    instance = case_instance(k, seed)
    return run_kernel(make_runtime(kind, instance), get_policy(name), observers)


def complete_case(kind: str, k: int, seed: int, name: str) -> str:
    observer = CompletionsOnly()
    run_observed(kind, k, seed, name, [observer])
    return observer.digest.hexdigest()


def step_case(kind: str, k: int, seed: int, name: str) -> str:
    observer = StepsOnly()
    run_observed(kind, k, seed, name, [observer])
    return observer.digest.hexdigest()


def duck_digests(kind: str, k: int, seed: int, name: str) -> tuple[str, str]:
    """``(complete, step)`` digests a duck-typed observer collects."""
    observer = DuckObserver()
    run_observed(kind, k, seed, name, [observer])
    return observer.completions.hexdigest(), observer.steps.hexdigest()


def runs():
    """``(runtime, k, seed, policy)`` for every pinned run."""
    for kind in RUNTIMES:
        for k in (1, 2):
            for seed in (1, 2):
                for name in available_policies():
                    if supports(kind, get_policy(name), k):
                        yield kind, k, seed, name


def run_id(kind: str, k: int, seed: int, name: str) -> str:
    return f"{kind}-k{k}-s{seed}-{name}"


def cases():
    """``(contract, case id, thunk)`` for every pinned digest."""
    for run in runs():
        yield "complete", run_id(*run), lambda run=run: complete_case(*run)
        yield "step", run_id(*run), lambda run=run: step_case(*run)


def main() -> None:
    entries = [
        {"contract": contract, "case": case, "digest": thunk()}
        for contract, case, thunk in cases()
    ]
    # One entry per line: a diff names the runs that moved.
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    GOLDEN_PATH.write_text(f'{{"version": 1, "entries": [\n{lines}\n]}}\n')
    print(f"wrote {len(entries)} observer golden entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
