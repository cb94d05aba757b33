"""A clock-free cost gate for policy-mode certification.

Certifying a policy runs it on complete orders (``ExactBackend.run``
on the exact backend) and calls the fixed-order oracle for the prefix
and leaf bounds.  Both are counted here over a fixed seeded pool of
``uniform_instance(2, 3)`` -- the shape of the ``certify`` benchmark
workload -- and pinned, so a change that makes certification do more
work fails here whatever the host's clock says.  The leaf runs are
also held to at most a third of the frozen search's, which ran the
policy on every complete order it reached.
"""

import pytest

from repro.algorithms import opt_order
from repro.analysis import certify_opt
from repro.analysis.certify import _policy_evaluator
from repro.backends.exact import ExactBackend
from repro.generators import uniform_instance

from ..algorithms import frozen_order_search as frozen

POLICY = "greedy-balance"
POOL_SEEDS = range(100)

#: What certifying this pool costs.  The frozen search made 1,185
#: policy runs on it.  A deliberate change to the search that moves
#: these counts re-pins them here and says why.
PINNED = {"instances": 100, "policy_runs": 123, "oracle_calls": 3109}


def _pool():
    return [uniform_instance(2, 3, seed=seed) for seed in POOL_SEEDS]


def _count(monkeypatch, owner, name) -> list[int]:
    """Count the calls to ``owner.name`` (a one-element list)."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def counters(monkeypatch):
    return (
        _count(monkeypatch, ExactBackend, "run"),
        _count(monkeypatch, opt_order, "_grid_order_makespan"),
    )


def test_policy_certification_cost_is_pinned(counters):
    runs, oracle = counters
    certificates = [
        certify_opt(inst, policy=POLICY, backend="exact") for inst in _pool()
    ]
    assert all(cert.proved for cert in certificates)
    # Each policy run is a leaf evaluation; each oracle call a bound call.
    assert runs[0] == sum(cert.leaf_evaluations for cert in certificates)
    assert oracle[0] == sum(cert.bound_calls for cert in certificates)
    measured = {
        "instances": len(certificates),
        "policy_runs": runs[0],
        "oracle_calls": oracle[0],
    }
    assert measured == PINNED


def test_leaf_runs_at_most_a_third_of_the_frozen_search(counters):
    runs, _ = counters
    evaluate, _ = _policy_evaluator(POLICY, "exact", None)
    for inst in _pool():
        frozen.branch_and_bound_order(inst, evaluator=evaluate)
    frozen_runs = runs[0]
    runs[0] = 0
    for inst in _pool():
        certify_opt(inst, policy=POLICY, backend="exact")
    assert frozen_runs > 0
    assert 3 * runs[0] <= frozen_runs, (runs[0], frozen_runs)
