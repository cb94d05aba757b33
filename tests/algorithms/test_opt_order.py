"""Branch-and-bound order search vs exhaustive enumeration.

The exhaustive cross-check suite of the certification layer: on ~100
seeded tiny instances (total jobs <= 6, m <= 3, k in {1, 2}), the
branch-and-bound optimum must equal the brute-force minimum over *all*
``with_order`` permutations -- through the per-order exact oracles for
k=1, and through policy evaluation on **both** backends for the
epsilon-certified mode (which is also the only exact-order notion
available at k=2).
"""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    available_policies,
    branch_and_bound_order,
    enumerate_order_optimum,
    exact_order_makespan,
    get_policy,
    identity_order,
    order_invariant_lower_bound,
    order_space_size,
)
from repro.core import Instance
from repro.core.simulator import run_policy
from repro.exceptions import InvalidInstanceError, SolverError
from repro.generators import multi_resource_instance

# ----------------------------------------------------------------------
# The seeded tiny-instance families (kept deliberately small: every
# instance is exhaustively enumerated as the ground truth)
# ----------------------------------------------------------------------


def _tiny_instance(seed: int) -> Instance:
    """A seeded random k=1 instance with m <= 3 and <= 6 jobs total."""
    rng = random.Random(0xC0DE + seed)
    m = rng.randint(1, 3)
    remaining = 6
    queues = []
    for i in range(m):
        budget = remaining - (m - 1 - i)  # leave >= 1 job per later queue
        count = rng.randint(1, min(3, budget))
        remaining -= count
        queues.append(
            [f"{rng.randint(1, 4)}/4" for _ in range(count)]
        )
    return Instance(queues)


K1_SEEDS = range(70)
K2_SEEDS = range(30)


def _k2_instance(seed: int) -> Instance:
    """A seeded k=2 instance small enough to enumerate (m=2, n=2)."""
    return multi_resource_instance(
        2, 2, 2, profile="independent", grid=4, seed=seed
    )


def _policy_evaluator(policy: str, backend: str):
    def evaluate(inst: Instance) -> int:
        return run_policy(
            inst, policy, backend=backend, record_shares=False
        ).makespan

    return evaluate


# ----------------------------------------------------------------------
# Satellite 1: exhaustive cross-check, exact oracles (k=1)
# ----------------------------------------------------------------------
class TestExhaustiveExactMode:
    @pytest.mark.parametrize("seed", K1_SEEDS)
    def test_bb_equals_enumeration(self, seed):
        inst = _tiny_instance(seed)
        bb = branch_and_bound_order(inst)
        en = enumerate_order_optimum(inst)
        assert bb.proved
        assert bb.value == en.value
        # Both witnesses must evaluate to the value they claim.
        assert (
            exact_order_makespan(
                inst.with_order([list(r) for r in bb.order])
            )
            == bb.value
        )
        assert bb.lower_bound <= bb.value

    def test_suite_is_about_100_instances(self):
        assert len(K1_SEEDS) + 2 * len(K2_SEEDS) >= 100

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_shapes_stay_tiny(self, seed):
        inst = _tiny_instance(seed)
        assert inst.m <= 3
        assert inst.total_jobs <= 6


# ----------------------------------------------------------------------
# Satellite 1 (continued): both backends, k in {1, 2} (epsilon mode)
# ----------------------------------------------------------------------
class TestExhaustivePolicyMode:
    @pytest.mark.parametrize("backend", ["exact", "vector"])
    @pytest.mark.parametrize("seed", K2_SEEDS)
    def test_k2_bb_equals_enumeration(self, backend, seed):
        inst = _k2_instance(seed)
        evaluate = _policy_evaluator("greedy-balance", backend)
        bb = branch_and_bound_order(inst, evaluator=evaluate)
        en = enumerate_order_optimum(inst, evaluator=evaluate)
        assert bb.proved
        assert bb.value == en.value

    @pytest.mark.parametrize("backend", ["exact", "vector"])
    @pytest.mark.parametrize("seed", [0, 11, 29, 41])
    def test_k1_policy_bb_equals_enumeration(self, backend, seed):
        inst = _tiny_instance(seed)
        evaluate = _policy_evaluator("round-robin", backend)
        bb = branch_and_bound_order(inst, evaluator=evaluate)
        en = enumerate_order_optimum(inst, evaluator=evaluate)
        assert bb.proved
        assert bb.value == en.value

    @pytest.mark.parametrize("seed", [0, 11, 29])
    def test_policy_value_at_least_offline_optimum(self, seed):
        inst = _tiny_instance(seed)
        evaluate = _policy_evaluator("round-robin", "vector")
        policy_best = branch_and_bound_order(inst, evaluator=evaluate)
        offline = branch_and_bound_order(inst)
        assert policy_best.value >= offline.value


# ----------------------------------------------------------------------
# The per-order oracle dispatch
# ----------------------------------------------------------------------
class TestExactOrderMakespan:
    def test_single_queue_is_job_count(self):
        inst = Instance([["1/4", "3/4", "1/2"]])
        assert exact_order_makespan(inst) == 3

    def test_auto_matches_named_oracles(self):
        inst = Instance([["1/2", 1], [1, "1/2"]])
        auto = exact_order_makespan(inst)
        for oracle in ("opt-two", "opt-general", "brute-force", "milp"):
            assert exact_order_makespan(inst, oracle=oracle) == auto

    def test_unknown_oracle(self):
        with pytest.raises(SolverError, match="unknown order oracle"):
            exact_order_makespan(Instance([["1/2"]]), oracle="cp-sat")

    def test_opt_two_rejects_wrong_m(self):
        with pytest.raises(SolverError, match="m=2"):
            exact_order_makespan(
                Instance([["1/2"], ["1/2"], ["1/2"]]), oracle="opt-two"
            )

    def test_rejects_multi_resource(self):
        with pytest.raises(InvalidInstanceError):
            exact_order_makespan(_k2_instance(0))

    def test_rejects_releases(self):
        inst = Instance([["1/2"], ["1/2"]]).with_releases([0, 2])
        with pytest.raises(InvalidInstanceError):
            exact_order_makespan(inst)


# ----------------------------------------------------------------------
# Search mechanics: bounds, budget, symmetry, memoization
# ----------------------------------------------------------------------
class TestSearchMechanics:
    def test_order_space_size(self):
        inst = Instance([["1/2", 1, "1/2"], [1, "1/2"]])
        assert order_space_size(inst) == 6 * 2

    def test_identity_order_roundtrip(self):
        inst = Instance([["1/4", "3/4"], ["1/2"]])
        rows = identity_order(inst)
        assert inst.with_order([list(r) for r in rows]) == inst

    def test_lower_bound_is_order_invariant(self):
        inst = Instance([["1/2", 1, "1/4"], [1, "3/4"]])
        lb = order_invariant_lower_bound(inst)
        for _ in range(3):
            shuffled = inst.with_order([[2, 0, 1], [1, 0]])
            assert order_invariant_lower_bound(shuffled) == lb

    def test_lower_bound_includes_queue_length(self):
        # Tiny requirements: the work bound alone would be 1, but one
        # processor still needs one step per unit job.
        inst = Instance([["1/100", "1/100", "1/100"]])
        assert order_invariant_lower_bound(inst) >= 3

    def test_node_budget_returns_unproved_upper_bound(self):
        # Seed 6 is known to need real expansions (8 nodes to close).
        inst = _tiny_instance(6)
        full = branch_and_bound_order(inst)
        assert full.nodes > 1, "seed drifted: pick one that needs search"
        capped = branch_and_bound_order(inst, max_nodes=1)
        assert not capped.proved
        assert capped.value >= full.value  # still a valid upper bound
        assert (
            exact_order_makespan(
                inst.with_order([list(r) for r in capped.order])
            )
            == capped.value
        )

    def test_equal_jobs_collapse_the_search(self):
        # Six identical jobs: 3!*3! = 36 ordered leaves but exactly one
        # distinct order up to job values -- symmetry breaking and the
        # value-keyed memo must avoid re-evaluating duplicates.
        inst = Instance([["1/2"] * 3, ["1/2"] * 3])
        result = branch_and_bound_order(inst)
        assert result.proved
        assert result.leaf_evaluations < order_space_size(inst)

    def test_enumeration_guard(self):
        inst = Instance([["1/2"] * 6, ["1/2"] * 6])
        with pytest.raises(SolverError, match="max_orders"):
            enumerate_order_optimum(inst, max_orders=10)

    def test_gadget_like_zero_node_proof(self):
        # When a seed order already meets the order-invariant lower
        # bound the search must prove optimality without expansions.
        inst = Instance([["1"], ["1"]])
        result = branch_and_bound_order(inst)
        assert result.proved and result.nodes == 0 and result.value == 2


# ----------------------------------------------------------------------
# The bound every pruning rule rests on: OPT(order) <= policy(order)
# ----------------------------------------------------------------------
VECTOR_POLICIES = [
    name for name in available_policies() if get_policy(name).supports_vector
]


@st.composite
def _grid_instances(draw) -> Instance:
    """m in {1, 2, 3} queues, at most 5 unit jobs, requirements on a grid."""
    d = draw(st.sampled_from((2, 3, 4, 10)))
    m = draw(st.sampled_from((1, 2, 3)))
    lengths = [draw(st.sampled_from((1, 2, 3))) for _ in range(m)]
    while sum(lengths) > 5:
        lengths[lengths.index(max(lengths))] -= 1
    return Instance(
        [[Fraction(draw(st.integers(0, d)), d) for _ in range(n)] for n in lengths]
    )


class TestLeafBoundAdmissible:
    """The fixed-order optimum never exceeds a policy's makespan.

    The prefix bounds and the policy-leaf bound of
    :func:`branch_and_bound_order` both stand on this inequality, for
    every order of the instance, every vector-capable policy and both
    backends.
    """

    def test_every_registered_policy_is_covered(self):
        assert "greedy-balance" in VECTOR_POLICIES
        assert "round-robin" in VECTOR_POLICIES

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(inst=_grid_instances())
    def test_oracle_bounds_every_policy_on_every_order(self, inst):
        rows = [permutations(range(inst.num_jobs(i))) for i in range(inst.m)]
        for order in product(*rows):
            ordered = inst.with_order([list(row) for row in order])
            bound = exact_order_makespan(ordered)
            for policy in VECTOR_POLICIES:
                for backend in ("exact", "vector"):
                    makespan = run_policy(
                        ordered, policy, backend=backend, record_shares=False
                    ).makespan
                    assert bound <= makespan, (order, policy, backend)
