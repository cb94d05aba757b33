"""Seeded exact-vs-vector matrix over every policy and instance axis.

Each case runs one (policy, instance) pair through the exact Fraction
backend and through the vector backend twice -- without and with
per-step share recording -- and asserts that the three runs agree:
integer makespans and per-job completion steps are equal, every
objective value matches within 1e-9, and recording share rows changes
nothing.  The matrix spans every built-in policy, ``k in {1, 2, 3}``,
the arrival axis, weighted and deadline-carrying jobs, and ragged
batched runs; the run-level entry points (``run_policy``,
``cross_validate``) and the step budget are checked on the same
instances.
"""

import numpy as np
import pytest

from repro.algorithms import available_policies, get_policy
from repro.backends import ExactBackend, VectorBackend, run_batch
from repro.generators import (
    bag_instance,
    general_size_instance,
    multi_resource_instance,
    uniform_instance,
    with_arrivals,
    with_deadlines,
    with_resources,
    with_weights,
)

RTOL = 1e-9

OBJECTIVES = ("makespan", "weighted-flow", "tardiness")


def assert_vector_matches(instance, policy, *, objectives=OBJECTIVES):
    """One instance through exact and both vector recording modes."""
    exact = ExactBackend().run(
        instance, policy, record_shares=False, objectives=objectives
    )
    backend = VectorBackend()
    bare = backend.run(
        instance, policy, record_shares=False, objectives=objectives
    )
    recorded = backend.run(
        instance, policy, record_shares=True, objectives=objectives
    )
    assert bare.makespan == recorded.makespan == exact.makespan, policy.name
    assert bare.completion_steps == exact.completion_steps, policy.name
    assert recorded.completion_steps == bare.completion_steps, policy.name
    assert bare.shares is None
    rows = np.asarray(recorded.shares)
    assert rows.shape[0] == recorded.makespan
    assert rows.shape[-1] == instance.num_processors
    for name in objectives:
        got = bare.objective_values[name]
        assert recorded.objective_values[name] == got, (policy.name, name)
        assert float(got) == pytest.approx(
            float(exact.objective_values[name]), rel=RTOL, abs=RTOL
        ), (policy.name, name)
    return bare


class TestAllPoliciesSingleResource:
    """Every built-in policy over seeded k=1 instances."""

    @pytest.mark.parametrize("policy_name", sorted(available_policies()))
    @pytest.mark.parametrize("seed", range(6))
    def test_uniform(self, policy_name, seed):
        inst = uniform_instance(2 + seed % 4, 2 + seed % 5, seed=31 * seed)
        assert_vector_matches(inst, get_policy(policy_name))

    @pytest.mark.parametrize("policy_name", sorted(available_policies()))
    @pytest.mark.parametrize("seed", range(3))
    def test_general_sizes(self, policy_name, seed):
        inst = general_size_instance(3, 4, seed=47 * seed + 1)
        assert_vector_matches(inst, get_policy(policy_name))


class TestAxes:
    """Arrival, weight, and deadline axes."""

    @pytest.mark.parametrize(
        "policy_name", ["greedy-balance", "round-robin", "proportional-share"]
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_arrivals(self, policy_name, seed):
        inst = with_arrivals(
            uniform_instance(3, 4, seed=seed), max_release=6, seed=900 + seed
        )
        assert_vector_matches(inst, get_policy(policy_name))

    @pytest.mark.parametrize("policy_name", ["weighted-srpt", "greedy-balance"])
    @pytest.mark.parametrize("seed", range(5))
    def test_weights(self, policy_name, seed):
        inst = with_weights(bag_instance(3, 4, seed=seed), seed=40 + seed)
        assert_vector_matches(inst, get_policy(policy_name))

    @pytest.mark.parametrize("profile", ["loose", "tight"])
    @pytest.mark.parametrize("seed", range(4))
    def test_deadlines(self, profile, seed):
        inst = with_deadlines(
            uniform_instance(3, 4, seed=seed), profile=profile, seed=70 + seed
        )
        assert_vector_matches(
            inst,
            get_policy("edf-waterfill"),
            objectives=("makespan", "tardiness", "deadline-misses"),
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_arrivals_and_weights(self, seed):
        inst = with_weights(
            with_arrivals(
                uniform_instance(4, 3, seed=seed), max_release=5, seed=seed
            ),
            seed=seed,
        )
        assert_vector_matches(inst, get_policy("weighted-srpt"))


class TestMultiResource:
    """k in {2, 3} instances through the multi-resource fill."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "profile", ["independent", "correlated", "anti-correlated"]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_multires(self, k, profile, seed):
        inst = multi_resource_instance(3, 4, k, profile=profile, seed=seed)
        assert_vector_matches(inst, get_policy("greedy-balance"))

    @pytest.mark.parametrize(
        "policy_name",
        ["proportional-share", "greedy-finish-jobs", "round-robin"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_multires_policies(self, policy_name, seed):
        inst = with_resources(
            uniform_instance(3, 4, seed=seed), 2, seed=seed + 5
        )
        assert_vector_matches(inst, get_policy(policy_name))

    @pytest.mark.parametrize("seed", range(3))
    def test_multires_arrivals(self, seed):
        inst = with_resources(
            with_arrivals(
                uniform_instance(3, 4, seed=seed), max_release=6, seed=seed
            ),
            2,
            profile="correlated",
            seed=seed,
        )
        assert_vector_matches(inst, get_policy("greedy-balance"))


class TestBatched:
    """Ragged batched runs against per-instance vector runs, and B=1."""

    @pytest.mark.parametrize("policy_name", ["greedy-balance", "edf-waterfill"])
    @pytest.mark.parametrize("seed", range(3))
    def test_ragged_batch(self, policy_name, seed):
        insts = [
            uniform_instance(3, 4, seed=seed),
            uniform_instance(2, 6, seed=seed + 1),
            multi_resource_instance(4, 3, 2, seed=seed),
            with_arrivals(
                uniform_instance(3, 3, seed=seed + 2), max_release=5, seed=seed
            ),
        ]
        batch = run_batch(insts, policy_name, objectives=OBJECTIVES)
        backend = VectorBackend()
        singles = [
            backend.run(
                inst, policy_name, record_shares=False, objectives=OBJECTIVES
            )
            for inst in insts
        ]
        assert batch.makespans.tolist() == [r.makespan for r in singles]
        for name in OBJECTIVES:
            assert batch.objective_values[name] == pytest.approx(
                [float(r.objective_values[name]) for r in singles],
                rel=RTOL,
                abs=RTOL,
            )
        assert batch.steps == int(batch.makespans.max())
        assert batch.lane_steps == int(batch.makespans.sum())

    def test_single_lane_batch(self):
        inst = uniform_instance(3, 4, seed=123)
        batch = run_batch([inst], "greedy-balance")
        ref = VectorBackend().run(inst, "greedy-balance")
        assert batch.lanes == 1 and int(batch.makespans[0]) == ref.makespan


class TestRunPolicyEntry:
    """The run-level entry points agree across backends."""

    @pytest.mark.parametrize("seed", range(3))
    def test_run_policy_backends_agree(self, seed):
        from repro.core.simulator import run_policy

        inst = uniform_instance(3, 4, seed=seed)
        vector = run_policy(
            inst, "greedy-balance", backend="vector", record_shares=False
        )
        exact = run_policy(inst, "greedy-balance", backend="exact")
        assert vector.makespan == exact.makespan
        assert vector.shares is None

    def test_cross_validate_compares_shares(self):
        from repro.backends import cross_validate

        inst = uniform_instance(3, 4, seed=5)
        check = cross_validate(inst, "greedy-balance")
        assert check.ok
        assert check.max_share_deviation is not None
        assert check.max_share_deviation <= 1e-9


class TestStepLimits:
    """The vector backend aborts at exactly the exact backend's budget."""

    def test_step_limit(self):
        from repro.exceptions import SimulationLimitError

        inst = uniform_instance(3, 6, seed=0)
        with pytest.raises(SimulationLimitError):
            VectorBackend().run(
                inst, "greedy-balance", record_shares=False, max_steps=1
            )

    def test_limit_matches_exact(self):
        """Both backends abort (or not) at exactly the same budget."""
        from repro.exceptions import SimulationLimitError

        inst = uniform_instance(3, 4, seed=9)
        need = ExactBackend().run(
            inst, "greedy-balance", record_shares=False
        ).makespan
        for budget in (need - 1, need):
            outcomes = []
            for backend in (ExactBackend(), VectorBackend()):
                try:
                    backend.run(
                        inst,
                        "greedy-balance",
                        record_shares=False,
                        max_steps=budget,
                    )
                    outcomes.append("ok")
                except SimulationLimitError:
                    outcomes.append("limit")
            assert outcomes[0] == outcomes[1], budget
        assert outcomes == ["ok", "ok"]


def test_case_count_floor():
    """The matrix above keeps its >= 100 seeded-case floor."""
    policies = len(available_policies())
    count = (
        policies * 6  # TestAllPoliciesSingleResource.test_uniform
        + policies * 3  # test_general_sizes
        + 3 * 5  # arrivals
        + 2 * 5  # weights
        + 2 * 4  # deadlines
        + 3  # arrivals+weights
        + 2 * 3 * 3  # multires
        + 3 * 3  # multires policies
        + 3  # multires arrivals
        + 2 * 3  # ragged batches
    )
    assert count >= 100, count
