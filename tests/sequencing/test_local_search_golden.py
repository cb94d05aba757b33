"""Replay the pinned local-search trajectories.

``tests/data/local_search_golden.json`` holds the returned queue order
and ``last_stats`` of 162 seeded searches (see
``tests/data/make_local_search_golden.py`` for the grid).  Every
search must return the same order with the same statistics: the
sequential and the batched climb, on the vector and the exact backend.
"""

import json

import pytest

from ..data.make_local_search_golden import (
    CASES,
    GOLDEN_PATH,
    LANES,
    OBJECTIVES,
    POLICIES,
    search,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())
ENTRIES = {
    (e["case"], e["policy"], e["objective"], e["lanes"]): e
    for e in GOLDEN["entries"]
}


def test_golden_covers_the_grid():
    grid = {
        (case_id, policy, objective, lanes)
        for case_id, _, _ in CASES
        for policy in POLICIES
        for objective in OBJECTIVES
        for lanes in LANES
    }
    assert set(ENTRIES) == grid
    assert len(GOLDEN["entries"]) == len(grid) == 162


@pytest.mark.parametrize("case_index", range(len(CASES)), ids=[c[0] for c in CASES])
@pytest.mark.parametrize("policy", POLICIES)
def test_search_replays_golden(case_index, policy):
    case_id, build, backend = CASES[case_index]
    for objective in OBJECTIVES:
        for lanes in LANES:
            expected = ENTRIES[(case_id, policy, objective, lanes)]
            order, stats = search(
                case_index, build, backend, policy, objective, lanes
            )
            assert (order, stats) == (expected["order"], expected["stats"]), (
                objective,
                lanes,
            )
