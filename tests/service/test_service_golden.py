"""Replay the pinned service decision digests.

``tests/data/service_golden.json`` holds one sha256 digest per seeded
service run: every admission context (backlogs as ``float.hex``), the
event log, the completion steps and the report (see
``tests/data/make_service_golden.py`` for the runs).  Every run must
reproduce its digest byte for byte.
"""

import json

import pytest

from ..data.make_service_golden import GOLDEN_PATH, cases

ENTRIES = {e["case"]: e["digest"] for e in json.loads(GOLDEN_PATH.read_text())["entries"]}
CASES = list(cases())


def test_golden_covers_every_run():
    assert set(ENTRIES) == {case for case, _ in CASES}


@pytest.mark.parametrize("case,run", CASES, ids=[case for case, _ in CASES])
def test_replays_bit_identically(case, run):
    assert run()[0] == ENTRIES[case]
