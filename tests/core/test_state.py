"""Unit tests for Configuration (Definition 6) and StepOutcome."""

from fractions import Fraction

import pytest

from repro.core import Configuration, ExecState, Instance

H = Fraction(1, 2)
Q = Fraction(1, 4)


@pytest.fixture
def instance() -> Instance:
    return Instance.from_requirements([["1/2", "1/2"], ["3/4"]])


class TestConfiguration:
    def test_initial(self, instance):
        cfg = Configuration.initial(instance)
        assert cfg.t == 0
        assert cfg.core == (0, 0)
        assert cfg.support == ()
        assert not cfg.is_final(instance)

    def test_support_lists_partial_jobs(self):
        cfg = Configuration(t=1, completed=(0, 0), spent=(Q, Fraction(0)))
        assert cfg.support == (0,)

    def test_final_detection(self, instance):
        cfg = Configuration(t=3, completed=(2, 1), spent=(Fraction(0),) * 2)
        assert cfg.is_final(instance)

    def test_step_equal(self):
        a = Configuration(t=2, completed=(1, 0), spent=(Q, Fraction(0)))
        b = Configuration(t=2, completed=(1, 0), spent=(H, Fraction(0)))
        c = Configuration(t=3, completed=(1, 0), spent=(Q, Fraction(0)))
        assert a.step_equal(b)
        assert not a.step_equal(c)

    def test_domination_order(self):
        base = Configuration(t=2, completed=(1, 0), spent=(Q, Fraction(0)))
        ahead = Configuration(t=2, completed=(1, 1), spent=(Q, Fraction(0)))
        invested = Configuration(t=2, completed=(1, 0), spent=(H, Fraction(0)))
        later = Configuration(t=3, completed=(1, 0), spent=(Q, Fraction(0)))
        assert ahead.dominates(base)
        assert invested.dominates(base)
        assert not base.dominates(ahead)
        assert not later.dominates(base)  # strictly later round
        assert base.dominates(later)

    def test_domination_is_reflexive_and_antisymmetric_on_distinct(self):
        a = Configuration(t=1, completed=(1, 0), spent=(Q, Fraction(0)))
        b = Configuration(t=1, completed=(0, 1), spent=(Fraction(0), Q))
        assert a.dominates(a)
        assert not a.dominates(b)
        assert not b.dominates(a)  # incomparable


class TestStepOutcome:
    def test_outcome_fields(self, instance):
        state = ExecState(instance)
        outcome = state.apply([H, H])
        assert outcome.active == (0, 0)
        assert outcome.processed == (H, H)
        assert outcome.completed == ((0, 0),)
        assert set(outcome.started) == {(0, 0), (1, 0)}
