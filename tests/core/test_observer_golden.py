"""Replay the pinned observer-contract digests.

``tests/data/observer_golden.json`` holds, per seeded run on the
vector, grid and exact runtimes, a digest of the completions an
``on_complete``-only observer receives and one of the
:class:`~repro.core.kernel.StepEvent` stream an ``on_step``-only
observer receives (see ``tests/data/make_observer_golden.py``).  Each
run must reproduce both, and a duck-typed observer that is not a
:class:`~repro.core.kernel.StepObserver` subclass must receive the
same two streams.
"""

import json

import pytest

from ..data.make_observer_golden import GOLDEN_PATH, cases, duck_digests, run_id, runs

GOLDEN = json.loads(GOLDEN_PATH.read_text())
ENTRIES = {(e["contract"], e["case"]): e["digest"] for e in GOLDEN["entries"]}
CASES = list(cases())
RUNS = list(runs())


def test_golden_covers_every_run():
    assert set(ENTRIES) == {(contract, case) for contract, case, _ in CASES}
    assert {case.split("-")[0] for _, case in ENTRIES} == {"vector", "grid", "exact"}


@pytest.mark.parametrize(
    "contract,case,run", CASES, ids=[f"{contract}-{case}" for contract, case, _ in CASES]
)
def test_observer_streams_replay(contract, case, run):
    assert run() == ENTRIES[contract, case]


@pytest.mark.parametrize("run", RUNS[::3], ids=[run_id(*run) for run in RUNS[::3]])
def test_duck_typed_observer_receives_every_callback(run):
    case = run_id(*run)
    assert duck_digests(*run) == (ENTRIES["complete", case], ENTRIES["step", case])
