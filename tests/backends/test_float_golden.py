"""Replay the pinned float64 engine digests.

``tests/data/float_golden.json`` holds one sha256 digest per seeded
run of the float engines: share rows, processed rows, completion
steps and ``resource_spent`` (see ``tests/data/make_float_golden.py``
for the runs).  Every run must reproduce its digest byte for byte:
the single-lane engine on k = 1, 2, 3, ragged mixed-k batches with
and without compaction, a service stream and checkpoint restores.
"""

import json

import pytest

from ..data.make_float_golden import GOLDEN_PATH, cases

GOLDEN = json.loads(GOLDEN_PATH.read_text())
ENTRIES = {(e["path"], e["case"]): e["digest"] for e in GOLDEN["entries"]}
CASES = list(cases())


def test_golden_covers_every_run():
    assert set(ENTRIES) == {(path, case) for path, case, _ in CASES}
    assert {path for path, _ in ENTRIES} == {"vector", "batch", "service", "restore"}


@pytest.mark.parametrize(
    "path,case,run", CASES, ids=[f"{path}-{case}" for path, case, _ in CASES]
)
def test_replays_bit_identically(path, case, run):
    assert run() == ENTRIES[path, case]
