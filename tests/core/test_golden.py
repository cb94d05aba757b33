"""Golden-output pinning: the unified kernel reproduces the
pre-refactor loops bit-for-bit on release-time-0 instances.

``tests/data/golden_schedules.json`` was generated by the *pre-kernel*
implementations (the seed's three separate step loops).  These tests
re-run the same policies on the same instances through today's
kernel-based ``simulate``/backends and assert:

* the exact path is bit-identical (SHA-256 of the Fraction share
  rows and the makespan), and
* the vector path reproduces the golden (integer) makespan exactly,
  with and without per-step share recording -- recording share rows
  must not change the schedule,
* the vector path's recorded share rows match the exact Fraction rows
  within 1e-9, and
* the batched engine reproduces the golden makespan exactly.

If a change legitimately alters model semantics, regenerate via
``PYTHONPATH=src python tests/data/make_golden.py`` and justify it in
the commit message -- these tests exist to make silent drift loud.
"""

import json

import numpy as np
import pytest

from repro.algorithms import get_policy
from repro.backends import ExactBackend, VectorBackend, run_batch

from ..data.make_golden import CASES, GOLDEN_PATH, share_digest

GOLDEN = json.loads(GOLDEN_PATH.read_text())
_BUILDERS = dict(CASES)


@pytest.mark.parametrize(
    "entry",
    GOLDEN["entries"],
    ids=lambda e: f"{e['case']}-{e['policy']}",
)
def test_exact_path_bit_identical(entry):
    instance = _BUILDERS[entry["case"]]()
    schedule = get_policy(entry["policy"]).run(instance)
    assert schedule.makespan == entry["exact_makespan"]
    assert share_digest(schedule) == entry["share_sha256"]


@pytest.mark.parametrize("record_shares", [False, True])
@pytest.mark.parametrize(
    "entry",
    GOLDEN["entries"],
    ids=lambda e: f"{e['case']}-{e['policy']}",
)
def test_vector_path_within_tolerance(entry, record_shares):
    instance = _BUILDERS[entry["case"]]()
    result = VectorBackend().run(
        instance, get_policy(entry["policy"]), record_shares=record_shares
    )
    assert result.makespan == entry["vector_makespan"]


@pytest.mark.parametrize(
    "entry",
    GOLDEN["entries"],
    ids=lambda e: f"{e['case']}-{e['policy']}",
)
def test_vector_share_rows_match_exact(entry):
    instance = _BUILDERS[entry["case"]]()
    policy = get_policy(entry["policy"])
    exact = ExactBackend().run(instance, policy, record_shares=True)
    vector = VectorBackend().run(instance, policy, record_shares=True)
    want = np.array([[float(x) for x in row] for row in exact.shares])
    got = np.asarray(vector.shares)
    assert got.shape == want.shape == (
        entry["exact_makespan"],
        instance.num_processors,
    )
    assert np.abs(got - want).max() <= 1e-9


@pytest.mark.parametrize(
    "entry",
    GOLDEN["entries"],
    ids=lambda e: f"{e['case']}-{e['policy']}",
)
def test_batched_path_reproduces_golden_makespan(entry):
    instance = _BUILDERS[entry["case"]]()
    batch = run_batch([instance], entry["policy"])
    assert batch.makespans.tolist() == [entry["vector_makespan"]]


def test_explicit_zero_releases_bit_identical():
    """An instance with explicit all-zero releases must execute
    exactly like the plain static instance (same share digest)."""
    for case_id in ("fig1", "uniform-4x6-s0", "general-3x4-s0"):
        instance = _BUILDERS[case_id]()
        released = instance.with_releases((0,) * instance.num_processors)
        for policy_name in ("greedy-balance", "round-robin"):
            a = get_policy(policy_name).run(instance)
            b = get_policy(policy_name).run(released)
            assert share_digest(a) == share_digest(b)
