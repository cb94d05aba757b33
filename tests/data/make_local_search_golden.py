"""Regenerate ``local_search_golden.json`` (local-search trajectory pins).

Run from the repo root with
``PYTHONPATH=src python tests/data/make_local_search_golden.py``.
The file pins, for a fixed grid of seeded searches, the queue order
:meth:`LocalSearchSequencer.sequence` returns and its ``last_stats``
(without the wall-clock figures ``seconds`` and ``evals_per_second``).
The grid crosses the sequential climb (``batch_lanes=1``) with a
batched one (``batch_lanes=8``), three policies and three objectives,
over bag instances, instances with arrivals, weights and deadlines,
k=2 instances, and the exact backend.

Any change to how candidates are drawn, evaluated, cached or accepted
shows up here; an evaluation-path refactor must replay the file
unchanged.  Regenerate only when the search itself is meant to
change, and say so in the commit message.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from pathlib import Path

from repro.generators import (
    bag_instance,
    multi_resource_instance,
    uniform_instance,
    with_arrivals,
    with_deadlines,
    with_weights,
)
from repro.sequencing import LocalSearchSequencer

GOLDEN_PATH = Path(__file__).parent / "local_search_golden.json"

#: Wall-clock figures, which no two runs share.
UNPINNED = ("seconds", "evals_per_second")


def _annotated(m: int, n: int, seed: int):
    inst = uniform_instance(m, n, seed=seed)
    inst = with_arrivals(inst, max_release=3, seed=seed + 1)
    inst = with_weights(inst, profile="skewed", seed=seed + 2)
    return with_deadlines(inst, profile="mixed", seed=seed + 3)


#: (case id, instance factory, backend).
CASES = [
    *[
        (f"bag-4x4-s{s}", lambda s=s: bag_instance(4, 4, seed=s), "vector")
        for s in (0, 1)
    ],
    (
        "bag-skewed-6x5-s2",
        lambda: with_weights(bag_instance(6, 5, seed=2), profile="skewed", seed=3),
        "vector",
    ),
    *[
        (f"annotated-4x5-s{s}", lambda s=s: _annotated(4, 5, s), "vector")
        for s in (3, 7)
    ],
    *[
        (
            f"k2-3x4-s{s}",
            lambda s=s: multi_resource_instance(3, 4, 2, seed=s),
            "vector",
        )
        for s in (11, 12)
    ],
    ("exact-bag-3x3-s5", lambda: bag_instance(3, 3, seed=5), "exact"),
    ("exact-annotated-3x3-s4", lambda: _annotated(3, 3, 4), "exact"),
]

POLICIES = ["greedy-balance", "round-robin", "weighted-srpt"]
OBJECTIVES = ["makespan", "weighted-flow", "tardiness"]
LANES = [1, 8]

#: Search options shared by every entry.
OPTIONS = {"budget": 40, "restarts": 2}


def seed_of(case_index: int, policy_index: int, objective_index: int) -> int:
    """A fixed, distinct move-stream seed per grid point."""
    return 3 * (3 * case_index + policy_index) + objective_index


def encode(value):
    """JSON form of a stats value (``Fraction`` as an exact string)."""
    if isinstance(value, Fraction):
        return {"fraction": f"{value.numerator}/{value.denominator}"}
    return value


def order_of(instance, result) -> list[list[int]]:
    """*result*'s queues as indices into *instance*'s flattened jobs.

    Equal jobs map to the first equal one, so the form is the order
    as the search sees it (equal jobs are interchangeable).
    """
    flat = list(chain(*instance.queues))
    return [[flat.index(job) for job in queue] for queue in result.queues]


def search(case_index, build, backend, policy, objective, lanes):
    """One pinned search: ``(order, stats)`` in their JSON forms."""
    instance = build()
    seq = LocalSearchSequencer(
        policy=policy,
        objective=objective,
        backend=backend,
        batch_lanes=lanes,
        seed=seed_of(
            case_index, POLICIES.index(policy), OBJECTIVES.index(objective)
        ),
        **OPTIONS,
    )
    result = seq.sequence(instance)
    stats = {
        k: encode(v) for k, v in seq.last_stats.items() if k not in UNPINNED
    }
    return order_of(instance, result), stats


def main() -> None:
    entries = []
    for case_index, (case_id, build, backend) in enumerate(CASES):
        for policy in POLICIES:
            for objective in OBJECTIVES:
                for lanes in LANES:
                    order, stats = search(
                        case_index, build, backend, policy, objective, lanes
                    )
                    entries.append(
                        {
                            "case": case_id,
                            "policy": policy,
                            "objective": objective,
                            "lanes": lanes,
                            "order": order,
                            "stats": stats,
                        }
                    )
    # One entry per line: a diff names the searches that moved.
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    GOLDEN_PATH.write_text(
        f'{{"version": 1, "options": {json.dumps(OPTIONS)}, "entries": [\n'
        f"{lines}\n]}}\n"
    )
    print(f"wrote {len(entries)} local-search golden entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
