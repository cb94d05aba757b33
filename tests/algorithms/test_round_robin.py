"""Unit tests for RoundRobin (Section 4.2, Theorem 3)."""

import random
from fractions import Fraction

import pytest

from repro.algorithms import (
    RoundRobin,
    opt_res_assignment,
    round_robin_makespan_formula,
)
from repro.algorithms.round_robin import round_robin_phase
from repro.core import ExecState, Instance
from repro.generators import (
    ragged_instance,
    round_robin_adversarial,
    uniform_instance,
    with_arrivals,
)


def _frozen_phase(state):
    """The phase as first written: scan j = 1.. over every processor."""
    inst = state.instance
    for j in range(1, inst.max_jobs + 1):
        for i in range(inst.num_processors):
            if inst.num_jobs(i) >= j and state.done[i] < j:
                return j
    return inst.max_jobs


class TestPhases:
    def test_initial_phase(self, two_proc_instance):
        assert round_robin_phase(ExecState(two_proc_instance)) == 1

    def test_phase_waits_for_stragglers(self):
        inst = Instance.from_requirements([["1/2", "1/2"], ["3/4", "1/2"]])
        state = ExecState(inst)
        state.apply([Fraction(1, 2), Fraction(1, 2)])  # p0 done, p1 not
        assert round_robin_phase(state) == 1
        state.apply([Fraction(0), Fraction(1, 4)])  # p1 finishes phase 1
        assert round_robin_phase(state) == 2

    def test_shorter_queues_do_not_hold_phases(self):
        inst = Instance.from_requirements([["1/2"], ["1/2", "1/2"]])
        state = ExecState(inst)
        state.apply([Fraction(1, 2), Fraction(1, 2)])
        # Processor 0 has no phase-2 job; phase 2 concerns only p1.
        assert round_robin_phase(state) == 2

    @pytest.mark.parametrize("seed", range(40))
    def test_phase_matches_frozen_scan(self, seed):
        """``1 + min done`` over pending processors == the j-scan.

        Random completed counts on ragged queues, with unreleased
        processors (releases past ``t``) and drained queues
        (``done == n_i``), up to every queue drained.
        """
        rng = random.Random(seed)
        inst = ragged_instance(rng.randint(1, 5), (1, 5), seed=seed)
        if seed % 2:
            inst = with_arrivals(inst, max_release=4, seed=seed)
        state = ExecState(inst)
        m = inst.num_processors
        for trial in range(12):
            state.t = rng.randint(0, 5)
            state.done = [
                inst.num_jobs(i) if trial == 0 else rng.randint(0, inst.num_jobs(i))
                for i in range(m)
            ]
            assert round_robin_phase(state) == _frozen_phase(state), state.done

    def test_idle_within_phase_wastes(self):
        # p0's phase-1 job finishes in step 1; p1 needs two steps; p0
        # must NOT start phase 2 meanwhile.
        inst = Instance.from_requirements([["1/4", "1/4"], ["1", "1/4"]])
        schedule = RoundRobin().run(inst)
        assert schedule.makespan == 3  # phase1: 2 steps, phase2: 1 step
        # In step 1 (second step of phase 1) p0 receives nothing.
        assert schedule.share(1, 0) == 0


class TestMakespanFormula:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("m,n", [(2, 4), (3, 3), (4, 5)])
    def test_simulated_matches_closed_form(self, m, n, seed):
        inst = uniform_instance(m, n, seed=seed)
        assert RoundRobin().run(inst).makespan == round_robin_makespan_formula(inst)

    def test_ragged_queues(self):
        from repro.generators import ragged_instance

        inst = ragged_instance(3, (1, 5), seed=9)
        assert RoundRobin().run(inst).makespan == round_robin_makespan_formula(inst)


class TestTheorem3:
    @pytest.mark.parametrize("n", [2, 5, 10, 30])
    def test_adversarial_family_exact_makespans(self, n):
        inst = round_robin_adversarial(n)
        assert RoundRobin().run(inst).makespan == 2 * n
        assert opt_res_assignment(inst).makespan == n + 1

    def test_ratio_approaches_two(self):
        ratios = [
            Fraction(2 * n, n + 1) for n in (5, 20, 80)
        ]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > Fraction(19, 10)

    @pytest.mark.parametrize("seed", range(5))
    def test_upper_bound_on_random_instances(self, seed):
        inst = uniform_instance(2, 5, seed=seed)
        rr = RoundRobin().run(inst)
        opt = opt_res_assignment(inst).makespan
        assert Fraction(rr.makespan, opt) <= 2
