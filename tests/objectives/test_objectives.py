"""Objective-layer invariants (the ISSUE 4 property-test satellite).

Pinned here:

* ``Makespan.value`` equals ``Schedule.makespan`` / the kernel
  makespan on 100+ seeded instances across k in {1, 2, 3};
* tardiness == 0  <=>  every deadline met (and the misses/lateness
  consistency triple);
* weighted flow with unit weights equals the total completion time on
  static instances;
* each objective's completion-step reduction agrees with the
  independent closed-form evaluators in ``repro.analysis.metrics``;
* registry and ratio-guard semantics.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import get_policy
from repro.analysis import (
    deadline_misses,
    max_lateness,
    total_completion_time,
    total_tardiness,
    weighted_flow_time,
)
from repro.backends import ExactBackend
from repro.generators import (
    multi_resource_instance,
    uniform_instance,
    with_arrivals,
    with_deadlines,
    with_weights,
)
from repro.objectives import (
    Makespan,
    Tardiness,
    WeightedFlowTime,
    available_objectives,
    get_objective,
)

from ..conftest import unit_instances


class TestRegistry:
    def test_known_objectives_registered(self):
        names = available_objectives()
        for expected in (
            "makespan",
            "weighted-flow",
            "tardiness",
            "max-lateness",
            "deadline-misses",
        ):
            assert expected in names

    def test_get_objective_unknown(self):
        with pytest.raises(KeyError, match="unknown objective"):
            get_objective("does-not-exist")

    def test_unknown_objective_is_typed(self):
        """One typed error (still a KeyError) from every entry point."""
        from repro.backends import BatchRunner, VectorBackend
        from repro.exceptions import ReproError, UnknownObjectiveError

        inst = uniform_instance(2, 2, seed=0)
        entry_points = (
            lambda: get_objective("nope"),
            lambda: BatchRunner(objectives=("nope",)),
            lambda: VectorBackend().run(inst, "greedy-balance", objectives=("nope",)),
        )
        for call in entry_points:
            with pytest.raises(UnknownObjectiveError) as info:
                call()
            assert isinstance(info.value, ReproError)
            assert isinstance(info.value, KeyError)
            assert str(info.value).startswith("unknown objective 'nope'")
            assert "weighted-flow" in str(info.value)

    def test_tardiness_mode_validation(self):
        with pytest.raises(ValueError, match="unknown tardiness mode"):
            Tardiness("nope")

    def test_all_objectives_minimized(self):
        for name in available_objectives():
            assert get_objective(name).sense == "min"


class TestMakespanIdentity:
    """Makespan.value == Schedule.makespan on 100 seeded instances,
    k in {1, 2, 3} (k > 1 through the kernel-direct backend result)."""

    @pytest.mark.parametrize("seed", range(100))
    def test_k1_schedule(self, seed):
        inst = uniform_instance(2 + seed % 4, 2 + seed % 5, seed=seed)
        schedule = get_policy("greedy-balance").run(inst)
        assert Makespan().value(schedule) == schedule.makespan

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", range(25))
    def test_multi_resource_backend(self, k, seed):
        inst = multi_resource_instance(3, 3, k, seed=seed)
        result = ExactBackend().run(
            inst, get_policy("greedy-balance"), record_shares=False
        )
        assert Makespan().value(result) == result.makespan

    def test_lower_bound_is_instance_bound(self):
        inst = uniform_instance(3, 4, seed=0)
        assert Makespan().lower_bound(inst) == inst.makespan_lower_bound()


class TestTardinessInvariants:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        inst=unit_instances(max_m=3, max_n=4),
        profile=st.sampled_from(["tight", "loose", "mixed"]),
        seed=st.integers(0, 10),
    )
    def test_zero_tardiness_iff_all_deadlines_met(self, inst, profile, seed):
        annotated = with_deadlines(inst, profile=profile, seed=seed)
        schedule = get_policy("edf-waterfill").run(annotated)
        tardy = Tardiness().value(schedule)
        misses = Tardiness("misses").value(schedule)
        lateness = Tardiness("max-lateness").value(schedule)
        all_met = all(
            t + 1 <= annotated.job(i, j).deadline
            for (i, j), t in schedule.completion_steps.items()
        )
        assert (tardy == 0) == all_met
        assert (misses == 0) == all_met
        assert (lateness <= 0) == all_met

    def test_no_deadlines_means_zero_everywhere(self):
        schedule = get_policy("greedy-balance").run(uniform_instance(3, 3, seed=1))
        assert Tardiness().value(schedule) == 0
        assert Tardiness("misses").value(schedule) == 0
        assert Tardiness("max-lateness").value(schedule) == 0

    def test_negative_max_lateness_when_loose(self):
        inst = uniform_instance(2, 2, seed=3).with_deadlines([[50, 50], [50, 50]])
        schedule = get_policy("greedy-balance").run(inst)
        assert Tardiness("max-lateness").value(schedule) < 0
        assert Tardiness().value(schedule) == 0


class TestFlowInvariants:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(inst=unit_instances(max_m=3, max_n=4))
    def test_unit_weights_static_equals_total_completion(self, inst):
        schedule = get_policy("greedy-balance").run(inst)
        assert WeightedFlowTime().value(schedule) == total_completion_time(
            schedule
        )

    def test_releases_subtracted(self):
        inst = uniform_instance(2, 2, seed=5).with_releases([0, 3])
        schedule = get_policy("greedy-balance").run(inst)
        flow = WeightedFlowTime().value(schedule)
        assert flow == sum(
            t + 1 - inst.release(i)
            for (i, _j), t in schedule.completion_steps.items()
        )

    def test_weights_scale_contributions(self):
        base = uniform_instance(2, 2, seed=6)
        doubled = base.with_weights([[2, 2], [2, 2]])
        policy = get_policy("greedy-balance")
        assert WeightedFlowTime().value(policy.run(doubled)) == 2 * (
            WeightedFlowTime().value(policy.run(base))
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_value_respects_lower_bound(self, seed):
        inst = with_weights(
            with_arrivals(uniform_instance(3, 4, seed=seed), max_release=4, seed=seed),
            profile="uniform",
            seed=seed,
        )
        schedule = get_policy("weighted-srpt").run(inst)
        objective = WeightedFlowTime()
        assert objective.value(schedule) >= objective.lower_bound(inst)


class TestOnlineVsIndependent:
    """Each objective's completion-step reduction matches the
    closed-form evaluators."""

    @pytest.mark.parametrize("seed", range(15))
    def test_all_objectives_agree_with_analysis(self, seed):
        inst = with_deadlines(
            with_weights(uniform_instance(3, 4, seed=seed), profile="skewed", seed=seed),
            profile="mixed",
            seed=seed,
        )
        schedule = get_policy("greedy-balance").run(inst)
        assert get_objective("weighted-flow").value(schedule) == (
            weighted_flow_time(schedule)
        )
        assert get_objective("tardiness").value(schedule) == (
            total_tardiness(schedule)
        )
        assert get_objective("max-lateness").value(schedule) == (
            max_lateness(schedule)
        )
        assert get_objective("deadline-misses").value(schedule) == (
            deadline_misses(schedule)
        )

    def test_kernel_completions_match_value(self):
        from repro.core import CompletionRecorder, ExactRuntime, run_kernel

        inst = with_deadlines(uniform_instance(3, 3, seed=9), profile="tight", seed=9)
        policy = get_policy("edf-waterfill")
        completions = CompletionRecorder()
        makespan = run_kernel(ExactRuntime(inst), policy, [completions])
        schedule = policy.run(inst)
        for name in available_objectives():
            objective = get_objective(name)
            assert objective.value_from_completions(
                inst, completions.completion_steps, makespan
            ) == objective.value(schedule)


class TestRatioGuard:
    def test_positive_bound(self):
        assert get_objective("makespan").ratio(4, 2) == 2.0
        assert get_objective("weighted-flow").ratio(Fraction(3, 2), 1) == 1.5

    def test_zero_bound_zero_value_is_perfect(self):
        assert get_objective("tardiness").ratio(0, 0) == 1.0

    def test_zero_bound_positive_value_is_inf(self):
        assert get_objective("tardiness").ratio(5, 0) == float("inf")

    def test_value_needs_instance(self):
        from repro.backends.base import BackendResult

        orphan = BackendResult(backend="x", makespan=1)
        with pytest.raises(ValueError, match="needs the instance"):
            get_objective("makespan").value(orphan)
