"""Property-based tests (hypothesis) for the paper's core invariants.

These are the highest-value tests in the repository: each one states a
theorem/lemma as an executable property and lets hypothesis hunt for
counterexamples over random exact-rational instances.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings

from repro.algorithms import (
    GreedyBalance,
    GreedyFinishJobs,
    LargestRequirementFirst,
    RoundRobin,
    brute_force_makespan,
    opt_res_assignment,
    opt_res_assignment_general,
    opt_res_assignment_pq,
    round_robin_makespan_formula,
)
from repro.analysis import verify_schedule
from repro.core import (
    SchedulingGraph,
    best_lower_bound,
    is_balanced,
    is_non_wasting,
    is_progressive,
    lemma5_bound,
    lemma6_bound,
    length_bound,
    make_nice,
    theorem7_reference,
    work_bound,
)
from repro.core.properties import is_nice
from repro.io import instance_from_dict, instance_to_dict

from .conftest import tiny_instances_for_exact, unit_instances

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(max_examples=60, **COMMON)
@given(inst=unit_instances())
def test_greedy_balance_invariants(inst):
    """GreedyBalance is balanced, non-wasting and progressive on every
    instance (the hypotheses of Theorem 7)."""
    sched = GreedyBalance().run(inst)
    assert is_balanced(sched)
    assert is_non_wasting(sched)
    assert is_progressive(sched)
    assert verify_schedule(sched).ok


@settings(max_examples=60, **COMMON)
@given(inst=unit_instances())
def test_lemma_2_and_observation_2(inst):
    """Structural hypergraph facts for balanced schedules."""
    graph = SchedulingGraph(GreedyBalance().run(inst))
    assert graph.check_observation_2()
    assert graph.check_classes_decreasing()
    assert graph.check_lemma_2()


@settings(max_examples=60, **COMMON)
@given(inst=unit_instances())
def test_theorem_7_bound(inst):
    """S <= (2 - 1/m) * max(LB5, LB6 + 1, n) for GreedyBalance."""
    m = inst.num_processors
    sched = GreedyBalance().run(inst)
    graph = SchedulingGraph(sched)
    assert sched.makespan <= (2 - Fraction(1, m)) * theorem7_reference(graph)


@settings(max_examples=40, **COMMON)
@given(inst=tiny_instances_for_exact())
def test_exact_solvers_agree(inst):
    """The fixed-m search equals the independent brute-force optimum;
    for m = 2 the DP and PQ variants agree as well (Theorems 5/6)."""
    general = opt_res_assignment_general(inst).makespan
    assert general == brute_force_makespan(inst)
    if inst.num_processors == 2:
        assert general == opt_res_assignment(inst).makespan
        assert general == opt_res_assignment_pq(inst).makespan


@settings(max_examples=40, **COMMON)
@given(inst=tiny_instances_for_exact())
def test_policies_never_beat_opt_and_respect_ratios(inst):
    """OPT <= policy makespans; RR <= 2 OPT; GB <= (2 - 1/m) OPT."""
    m = inst.num_processors
    opt = opt_res_assignment_general(inst).makespan
    rr = RoundRobin().run(inst).makespan
    gb = GreedyBalance().run(inst).makespan
    assert opt <= gb and opt <= rr
    assert rr <= 2 * opt
    assert gb * m <= (2 * m - 1) * opt


@settings(max_examples=40, **COMMON)
@given(inst=tiny_instances_for_exact())
def test_lower_bounds_never_exceed_opt(inst):
    """Observation 1, the length bound and the Lemma 5/6 certificates
    are genuine lower bounds."""
    opt = opt_res_assignment_general(inst).makespan
    assert work_bound(inst) <= opt
    assert length_bound(inst) <= opt
    gb = GreedyBalance().run(inst)
    graph = SchedulingGraph(gb)
    assert lemma5_bound(graph) <= opt
    assert lemma6_bound(graph) <= opt
    assert best_lower_bound(inst, gb) <= opt


@settings(max_examples=60, **COMMON)
@given(inst=unit_instances())
def test_round_robin_formula(inst):
    """The simulated RoundRobin matches its closed-form makespan."""
    assert RoundRobin().run(inst).makespan == round_robin_makespan_formula(inst)


@settings(max_examples=30, **COMMON)
@given(inst=unit_instances(max_m=3, max_n=3, grid=8))
def test_lemma_1_transform(inst):
    """make_nice yields a nice schedule without increasing makespan,
    starting from assorted (possibly wasteful / unnested) schedules."""
    for policy in (LargestRequirementFirst(), GreedyFinishJobs(), RoundRobin()):
        sched = policy.run(inst)
        nice = make_nice(sched)
        assert is_nice(nice)
        assert nice.makespan <= sched.makespan
        assert verify_schedule(nice).ok


@settings(max_examples=60, **COMMON)
@given(inst=unit_instances())
def test_serialization_roundtrip(inst):
    assert instance_from_dict(instance_to_dict(inst)) == inst


@settings(max_examples=60, **COMMON)
@given(inst=unit_instances())
def test_speed_scaling_equivalence(inst):
    """Eq. (1) and Eq. (2) yield identical completion bookkeeping
    (the Section 3.1 alternative-interpretation claim)."""
    from repro.core import completion_times_eq1

    sched = GreedyBalance().run(inst)
    assert completion_times_eq1(inst, sched) == dict(sched.completion_steps)


@settings(max_examples=60, **COMMON)
@given(inst=unit_instances())
def test_continuous_fluid_invariants(inst):
    """Fluid GreedyBalance is feasible and respects the continuous
    lower bound on every instance."""
    from repro.core import continuous_greedy_balance, continuous_lower_bound

    fluid = continuous_greedy_balance(inst)
    fluid.validate()
    assert fluid.makespan >= continuous_lower_bound(inst)


@settings(max_examples=60, **COMMON)
@given(inst=unit_instances())
def test_fastpath_equivalence(inst):
    """The integer-grid fast path and RoundRobin's closed form equal
    the exact simulation."""
    from repro.algorithms import greedy_balance_makespan

    assert greedy_balance_makespan(inst) == GreedyBalance().run(inst).makespan
    assert round_robin_makespan_formula(inst) == RoundRobin().run(inst).makespan


@settings(max_examples=60, **COMMON)
@given(inst=unit_instances())
def test_all_water_fill_policies_complete_and_validate(inst):
    for policy in (GreedyBalance(), GreedyFinishJobs(), LargestRequirementFirst()):
        sched = policy.run(inst)
        assert verify_schedule(sched).ok
        # Non-wasting + progressive hold for every water-fill policy.
        assert is_non_wasting(sched)
        assert is_progressive(sched)
