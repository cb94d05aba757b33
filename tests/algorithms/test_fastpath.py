"""Unit + property tests for the integer-grid fast path."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.algorithms import (
    GreedyBalance,
    RoundRobin,
    greedy_balance_makespan,
    round_robin_makespan_formula,
)
from repro.core import Instance, Job
from repro.exceptions import UnitSizeRequiredError
from repro.generators import (
    greedy_balance_adversarial,
    ragged_instance,
    round_robin_adversarial,
    uniform_instance,
)

from ..conftest import unit_instances


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("m,n", [(2, 6), (4, 4), (6, 3)])
    def test_greedy_matches_exact_simulation(self, m, n, seed):
        inst = uniform_instance(m, n, seed=seed)
        assert greedy_balance_makespan(inst) == GreedyBalance().run(inst).makespan

    @pytest.mark.parametrize("seed", range(6))
    def test_ragged_queues(self, seed):
        inst = ragged_instance(4, (1, 6), seed=seed)
        assert greedy_balance_makespan(inst) == GreedyBalance().run(inst).makespan
        assert round_robin_makespan_formula(inst) == RoundRobin().run(inst).makespan

    @pytest.mark.parametrize("seed", range(6))
    def test_round_robin_matches_formula(self, seed):
        inst = uniform_instance(3, 5, seed=seed)
        assert round_robin_makespan_formula(inst) == RoundRobin().run(inst).makespan

    def test_adversarial_families(self):
        inst = round_robin_adversarial(30)
        assert round_robin_makespan_formula(inst) == 60
        inst = greedy_balance_adversarial(3, 8)
        assert greedy_balance_makespan(inst) == 5 * 8

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(inst=unit_instances(max_m=4, max_n=5))
    def test_property_equivalence(self, inst):
        assert greedy_balance_makespan(inst) == GreedyBalance().run(inst).makespan
        assert round_robin_makespan_formula(inst) == RoundRobin().run(inst).makespan


class TestGuards:
    def test_rejects_general_sizes(self):
        inst = Instance([[Job("1/2", 2)]])
        with pytest.raises(UnitSizeRequiredError):
            greedy_balance_makespan(inst)
        with pytest.raises(UnitSizeRequiredError):
            round_robin_makespan_formula(inst)

    def test_zero_requirement_jobs(self):
        inst = Instance.from_requirements([[0, 0, "1/2"]])
        assert greedy_balance_makespan(inst) == GreedyBalance().run(inst).makespan
