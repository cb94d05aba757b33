"""The exact backend's integer-grid runs agree exactly with ``Fraction``.

:class:`~repro.backends.exact.ExactBackend` runs a water-fill policy on
a k=1 instance whose works are whole numbers of ``1/D`` units in
integer arithmetic (:class:`~repro.core.kernel.GridRuntime` over
:class:`~repro.core.state.GridState`).  :func:`~repro.core.simulator.simulate`
still runs every policy in ``Fraction`` arithmetic and is the reference
here.  Hypothesis draws instances over releases, weights, deadlines,
density ties, requirements 0 and 1, unit and general sizes on and off
the grid, m=1 and deep queues.  For every registered water-fill policy
and the ablation's ``GreedyBalanceSmallTie`` both paths must agree with
``==`` on the makespan, the share and processed rows, the completion
steps and every objective value, with and without recorded shares.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.backends.exact as exact_mod
from repro.algorithms import (
    GreedyBalance,
    ProportionalShare,
    WaterFillPolicy,
    available_policies,
    get_policy,
)
from repro.analysis.certify import certify_opt
from repro.backends import ExactBackend
from repro.core import Instance, Job
from repro.core.kernel import GridRuntime
from repro.core.simulator import simulate
from repro.exceptions import InfeasibleAssignmentError
from repro.experiments.ablation import GreedyBalanceSmallTie
from repro.generators import uniform_instance
from repro.objectives import available_objectives

POLICIES = [
    policy
    for policy in map(get_policy, available_policies())
    if isinstance(policy, WaterFillPolicy)
] + [GreedyBalanceSmallTie()]
OBJECTIVES = tuple(available_objectives())

#: On a grid of twentieths, including the edge requirements 0 and 1.
REQUIREMENTS = [Fraction(k, 20) for k in (0, 1, 4, 5, 10, 15, 20)]
#: Whole sizes keep every work on the grid; fractional ones may leave it.
WHOLE_SIZES = [Fraction(1), Fraction(2), Fraction(3)]
SIZES = WHOLE_SIZES + [Fraction(1, 2), Fraction(3, 2), Fraction(1, 3), Fraction(3, 7)]


@st.composite
def instances(draw, unit_only: bool = False) -> Instance:
    m = draw(st.integers(1, 4))
    depth = draw(st.integers(1, 7))
    sizes = st.just(Fraction(1)) if unit_only else st.sampled_from(draw(st.sampled_from([WHOLE_SIZES, SIZES])))
    job = st.builds(
        Job,
        st.sampled_from(REQUIREMENTS),
        sizes,
        # Equal work over equal weight ties WSRPT's density key.
        weight=st.sampled_from([1, 2, Fraction(1, 2)]),
        deadline=st.one_of(st.none(), st.integers(1, 10)),
    )
    queues = [draw(st.lists(job, min_size=1, max_size=depth)) for _ in range(m)]
    releases = draw(st.one_of(st.none(), st.lists(st.integers(0, 4), min_size=m, max_size=m)))
    return Instance(queues, releases=releases)


@pytest.fixture
def simulate_calls(monkeypatch):
    """Count the exact backend's ``Fraction`` (``simulate``) runs."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(exact_mod, "simulate", counted)
    return calls


def _assert_agrees(instance: Instance, policy) -> None:
    reference = simulate(instance, policy)
    backend = ExactBackend()
    recorded = backend.run(instance, policy, objectives=OBJECTIVES)
    bare = backend.run(instance, policy, record_shares=False, objectives=OBJECTIVES)
    values = {name: reference.objective_value(name) for name in OBJECTIVES}
    for result in (recorded, bare):
        assert result.makespan == reference.makespan
        assert result.completion_steps == reference.completion_steps
        assert result.objective_values == values
    assert recorded.shares == reference.share_rows()
    assert recorded.processed == [list(step.processed) for step in reference.steps]
    # The release gate: nothing is processed on a queue before it arrives.
    for t, step in enumerate(reference.steps):
        for i, work in enumerate(step.processed):
            assert t >= instance.release(i) or work == 0
    for (i, _), t in reference.completion_steps.items():
        assert t >= instance.release(i)


class TestGridAgreesWithFraction:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_every_water_fill_policy(self, data, simulate_calls):
        simulate_calls.clear()
        instance = data.draw(instances())
        policy = data.draw(st.sampled_from(POLICIES))
        _assert_agrees(instance, policy)
        on_grid = instance.job_table().on_grid
        # Off-grid works fall back to simulate; on-grid runs never call it.
        assert (len(simulate_calls) == 0) == on_grid

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=instances(unit_only=True))
    def test_unit_size_instances_stay_on_the_grid(self, instance):
        assert instance.job_table().on_grid
        for policy in (GreedyBalance(), get_policy("round-robin")):
            _assert_agrees(instance, policy)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    def test_deep_single_queue(self, policy):
        instance = Instance([[Job("1/3", 2), Job(0), Job(1), Job("2/7", weight=2, deadline=3)] * 5])
        _assert_agrees(instance, policy)

    def test_off_grid_work_falls_back(self, simulate_calls):
        instance = Instance([[Job("1/2", "1/3")], [Job("1/4")]])
        assert not instance.job_table().on_grid
        _assert_agrees(instance, GreedyBalance())
        assert simulate_calls


class TestFractionPathKept:
    def test_proportional_share_uses_simulate(self, simulate_calls):
        instance = uniform_instance(3, 4, seed=2)
        result = ExactBackend().run(instance, ProportionalShare(), record_shares=False)
        assert simulate_calls == [instance]
        assert result.makespan == simulate(instance, ProportionalShare()).makespan

    def test_multi_resource_runs_exact_runtime(self, monkeypatch, simulate_calls):
        def refuse(*_args):
            raise AssertionError("a k=2 run reached the grid runtime")

        monkeypatch.setattr(exact_mod, "GridRuntime", refuse)
        instance = Instance([[Job(["1/2", "1/4"]), Job(["1/3", 1])], [Job(["1/5", "1/2"])]])
        result = ExactBackend().run(instance, GreedyBalance())
        assert result.makespan >= 2
        assert isinstance(result.shares[0][0][0], Fraction)
        assert not simulate_calls


class _BadShares(WaterFillPolicy):
    name = "bad-shares"

    def __init__(self, rule):
        self.rule = rule

    def shares(self, state):
        return self.rule(state)


class TestGridCheck:
    @pytest.mark.parametrize(
        "rule, message",
        [
            (lambda s: [s.capacity + 1, 0], "outside|whole number"),
            (lambda s: [-1, 0], "whole number"),
            (lambda s: [Fraction(1, 2), 0], "whole number"),
            (lambda s: [0.5, 0], "whole number"),
            (lambda s: [s.capacity, 1], "overused"),
            (lambda s: [0], "shares for 2 processors"),
        ],
    )
    @pytest.mark.parametrize("record_shares", [True, False])
    def test_rejects_bad_grid_shares(self, rule, message, record_shares):
        instance = Instance.from_requirements([["1/2"], ["1/4"]])
        with pytest.raises(InfeasibleAssignmentError, match=message):
            ExactBackend().run(instance, _BadShares(rule), record_shares=record_shares)

    def test_grid_units_scale_by_the_common_denominator(self):
        instance = Instance([[Job("1/2", 3), Job("1/6")], [Job("2/3", "1/2")]])
        table = instance.job_table()
        grid = (table.queues(table.rstar), table.queues(table.works), table.req_den)
        assert grid == ([[3, 1], [4]], [[9, 1], [2]], 6)
        state = GridRuntime(instance).state
        assert (state.capacity, state.remaining, state.requirement(1)) == (6, [9, 2], 4)


class TestCertificates:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("objective", [None, "weighted-flow"])
    def test_certify_opt_equal_across_paths(self, monkeypatch, seed, objective):
        instance = uniform_instance(2, 3, seed=seed)
        if objective is not None:
            instance = instance.with_weights([[1, 2, 3], [3, 1, 2]])
        kwargs = dict(policy="greedy-balance", backend="exact", objective=objective)
        grid = certify_opt(instance, **kwargs)
        monkeypatch.setattr(exact_mod, "_runs_on_grid", lambda _instance, _policy: False)
        fraction = certify_opt(instance, **kwargs)
        assert grid == fraction  # every field but ``seconds``
        assert grid.summary() | {"seconds": 0} == fraction.summary() | {"seconds": 0}
