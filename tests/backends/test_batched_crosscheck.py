"""Seeded crosscheck suite for the batched evaluation engine.

The acceptance bar for ``run_batch`` /
:class:`~repro.backends.batched.BatchVectorRuntime`: every lane of a
batched run must match a standalone
:class:`~repro.backends.vector.VectorBackend` run of the same instance
exactly (makespans and objective values are both functions of integer
completion steps, so they compare with ``==``), and agree with the
exact Fraction backend's makespans --
across ``k in {1, 2, 3}``, the arrival axis, weighted and
deadline-carrying jobs, ragged batches (mixed ``m``, ``n``, ``k``,
makespans), and the degenerate ``B = 1`` batch.
"""

import pytest

from repro.algorithms import available_policies, get_policy
from repro.backends import ExactBackend, VectorBackend, run_batch
from repro.objectives import available_objectives
from repro.generators import (
    bag_instance,
    general_size_instance,
    multi_resource_instance,
    ragged_instance,
    uniform_instance,
    with_arrivals,
    with_deadlines,
    with_resources,
    with_weights,
)

OBJECTIVES = ("makespan", "weighted-flow", "tardiness")


def assert_lanes_match_vector(instances, policy, *, objectives=OBJECTIVES):
    """Every lane of one batched run == its standalone vector run."""
    backend = VectorBackend()
    result = run_batch(instances, policy, objectives=objectives)
    assert result.lanes == len(instances)
    for b, inst in enumerate(instances):
        ref = backend.run(
            inst, policy, record_shares=False, objectives=objectives
        )
        assert int(result.makespans[b]) == ref.makespan, (
            policy.name,
            b,
            inst,
        )
        for name in objectives:
            got = result.objective_values[name][b]
            want = ref.objective_values[name]
            assert got == want and type(got) is type(want), (
                policy.name,
                name,
                b,
            )
    return result


class TestSingleResourceAgreement:
    """Seeded k=1 batches, lane-for-lane against the vector backend."""

    @pytest.mark.parametrize("policy_name", ["greedy-balance", "round-robin"])
    @pytest.mark.parametrize("seed", range(10))
    def test_uniform_batches(self, policy_name, seed):
        insts = [
            uniform_instance(2 + (seed + j) % 4, 2 + j % 5, seed=17 * seed + j)
            for j in range(6)
        ]
        assert_lanes_match_vector(insts, get_policy(policy_name))

    @pytest.mark.parametrize("seed", range(5))
    def test_general_size_batches(self, seed):
        insts = [
            general_size_instance(3, 4, seed=29 * seed + j) for j in range(5)
        ]
        assert_lanes_match_vector(insts, get_policy("greedy-balance"))

    def test_all_policies_batch_consistently(self):
        insts = [bag_instance(4, 5, seed=s) for s in range(4)]
        for policy_name in sorted(available_policies()):
            assert_lanes_match_vector(insts, get_policy(policy_name))


class TestAxes:
    """Arrival, weight, and deadline axes survive batching."""

    @pytest.mark.parametrize("seed", range(8))
    def test_arrival_batches(self, seed):
        insts = [
            with_arrivals(
                uniform_instance(3, 4, seed=seed + j),
                max_release=6,
                seed=900 + seed + j,
            )
            for j in range(5)
        ]
        assert_lanes_match_vector(insts, get_policy("greedy-balance"))

    @pytest.mark.parametrize("seed", range(6))
    def test_weighted_batches(self, seed):
        insts = [
            with_weights(
                bag_instance(3, 4, seed=seed + j), seed=40 + seed + j
            )
            for j in range(5)
        ]
        assert_lanes_match_vector(insts, get_policy("weighted-srpt"))

    @pytest.mark.parametrize("profile", ["loose", "tight"])
    @pytest.mark.parametrize("seed", range(4))
    def test_deadline_batches(self, profile, seed):
        insts = [
            with_deadlines(
                uniform_instance(3, 4, seed=seed + j),
                profile=profile,
                seed=70 + seed + j,
            )
            for j in range(4)
        ]
        assert_lanes_match_vector(
            insts,
            get_policy("edf-waterfill"),
            objectives=("makespan", "tardiness", "deadline-misses"),
        )

    def test_mixed_axis_batch(self):
        """Lanes carrying different axes in the same batch."""
        insts = [
            uniform_instance(3, 4, seed=1),
            with_arrivals(uniform_instance(3, 4, seed=2), max_release=5, seed=2),
            with_weights(bag_instance(4, 3, seed=3), seed=3),
            with_deadlines(uniform_instance(2, 5, seed=4), seed=4),
        ]
        assert_lanes_match_vector(insts, get_policy("greedy-balance"))


class TestMultiResource:
    """k in {2, 3} batches and mixed-k ragged batches."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "profile", ["independent", "correlated", "anti-correlated"]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_multires_batches(self, k, profile, seed):
        insts = [
            multi_resource_instance(3, 4, k, profile=profile, seed=seed + j)
            for j in range(4)
        ]
        assert_lanes_match_vector(insts, get_policy("greedy-balance"))

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_k_batch(self, seed):
        """k=1, k=2, and k=3 lanes sharing one batch stay bit-faithful."""
        insts = [
            uniform_instance(3, 4, seed=seed),
            multi_resource_instance(4, 3, 2, seed=seed),
            multi_resource_instance(2, 5, 3, seed=seed),
            with_resources(uniform_instance(3, 3, seed=seed), 2, seed=seed),
        ]
        assert_lanes_match_vector(insts, get_policy("greedy-balance"))

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_proportional_share_batches(self, k, seed):
        """The batched k>1 proportional share equals its vector runs."""
        insts = [
            with_weights(
                multi_resource_instance(3, 4, k, seed=seed + j),
                seed=60 + seed + j,
            )
            for j in range(4)
        ]
        result = assert_lanes_match_vector(
            insts,
            get_policy("proportional-share"),
            objectives=("makespan", "weighted-flow"),
        )
        assert result.batched_policy

    @pytest.mark.parametrize("seed", range(4))
    def test_proportional_share_mixed_k_batch(self, seed):
        """A k=1 lane in a k>1 batch takes the scalar proportional rule.

        The k=1 lane has general job sizes: on unit sizes the k>1 rule
        happens to coincide with the scalar one.
        """
        insts = [
            with_weights(general_size_instance(3, 4, seed=seed), seed=seed),
            with_weights(multi_resource_instance(4, 3, 2, seed=seed), seed=seed),
            multi_resource_instance(2, 5, 3, seed=seed),
        ]
        result = assert_lanes_match_vector(
            insts,
            get_policy("proportional-share"),
            objectives=("makespan", "weighted-flow"),
        )
        assert result.batched_policy

    @pytest.mark.parametrize("seed", range(3))
    def test_arrival_multires_batch(self, seed):
        insts = [
            with_resources(
                with_arrivals(
                    uniform_instance(3, 4, seed=seed + j),
                    max_release=6,
                    seed=seed + j,
                ),
                2,
                profile="correlated",
                seed=seed + j,
            )
            for j in range(4)
        ]
        assert_lanes_match_vector(insts, get_policy("greedy-balance"))


class TestRaggedBatches:
    """Mixed processor counts, queue lengths, and makespans."""

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_shapes(self, seed):
        insts = [
            uniform_instance(2, 2, seed=seed),
            ragged_instance(4, (1, 6), seed=seed),
            bag_instance(7, 3, seed=seed),
            uniform_instance(3, 9, seed=seed),  # the long-makespan lane
            general_size_instance(5, 2, seed=seed),
        ]
        result = assert_lanes_match_vector(insts, get_policy("greedy-balance"))
        # Early-terminating lanes ride along: the batch runs exactly as
        # many shared steps as its slowest lane.
        assert result.steps == int(result.makespans.max())
        assert result.lane_steps == int(result.makespans.sum())

    @pytest.mark.parametrize("seed", range(3))
    def test_compaction_keeps_all_objectives(self, seed):
        """Lane completions survive compaction for every objective."""

        def annotated(inst, s):
            weighted = with_weights(inst, profile="skewed", seed=s)
            return with_deadlines(weighted, profile="mixed", seed=s)

        insts = [
            annotated(uniform_instance(3, 2, seed=seed + j), seed + j)
            for j in range(5)
        ]
        insts.append(annotated(uniform_instance(3, 12, seed=seed), seed))
        result = assert_lanes_match_vector(
            insts,
            get_policy("greedy-balance"),
            objectives=tuple(available_objectives()),
        )
        assert result.compactions >= 1

    def test_single_lane_batch(self):
        """B=1 degenerates to one vector run."""
        inst = bag_instance(4, 6, seed=5)
        result = assert_lanes_match_vector([inst], get_policy("round-robin"))
        assert result.lanes == 1
        assert result.steps == int(result.makespans[0])


class TestExactAgreement:
    """Batched lanes against the exact Fraction backend."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_makespans_match_exact(self, k, seed):
        if k == 1:
            insts = [uniform_instance(3, 3, seed=seed + j) for j in range(3)]
        else:
            insts = [
                multi_resource_instance(3, 3, k, seed=seed + j)
                for j in range(3)
            ]
        policy = get_policy("greedy-balance")
        result = run_batch(insts, policy)
        exact = ExactBackend()
        for b, inst in enumerate(insts):
            ref = exact.run(inst, policy, record_shares=False)
            assert int(result.makespans[b]) == ref.makespan, (k, seed, b)

    @pytest.mark.parametrize("seed", range(3))
    def test_arrival_makespans_match_exact(self, seed):
        insts = [
            with_arrivals(
                uniform_instance(3, 3, seed=seed + j),
                max_release=5,
                seed=300 + seed + j,
            )
            for j in range(3)
        ]
        policy = get_policy("round-robin")
        result = run_batch(insts, policy)
        exact = ExactBackend()
        for b, inst in enumerate(insts):
            ref = exact.run(inst, policy, record_shares=False)
            assert int(result.makespans[b]) == ref.makespan
