"""One policy definition: water-fill policies declare a priority key.

:class:`~repro.algorithms.base.WaterFillPolicy` derives the exact, the
vector and the batched shares from one ``key`` declaration, so a
policy defined once runs on every engine.  These tests pin that
contract: a key-only policy (the ABL ablation's
``GreedyBalanceSmallTie``) agrees with the exact engine on both float
engines, a misspelled key fails when the class is defined, and no
policy writes its own float shares except the one non-fill rule, whose
one ``shares_array`` serves a lane and a batch.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import (
    EDFWaterfill,
    GreedyBalance,
    WaterFillPolicy,
    available_policies,
    get_policy,
    water_fill,
)
from repro.algorithms.base import water_fill_array
from repro.backends import ExactBackend, VectorBackend, run_batch
from repro.backends.batched import BatchVectorState
from repro.backends.vector import VectorState
from repro.core import ExecState
from repro.exceptions import ReproError, UnknownKeyColumnError
from repro.experiments.ablation import GreedyBalanceSmallTie
from repro.generators import (
    greedy_balance_adversarial,
    uniform_instance,
    with_arrivals,
    with_deadlines,
    with_resources,
    with_weights,
)
from repro.objectives.base import Objective

ALGORITHMS = Path(__file__).resolve().parents[2] / "src" / "repro" / "algorithms"


class _CompletionSteps(Objective):
    """Hands a run's completion steps back as its objective value."""

    name = "completion-steps"

    def value_from_completions(self, instance, completion_steps, makespan=None):
        return sorted(completion_steps.items())

    def lower_bound(self, instance):
        return 0


def _cases():
    # The ABL experiment's inputs: the Theorem 8 family and its random
    # instances for m = 2, 3, 4.
    for m in (2, 3, 4):
        yield greedy_balance_adversarial(m, 6)
        for seed in range(4):
            yield uniform_instance(m, 5, seed=seed)
    # Seeded arrivals, skewed weights and k = 2 lifts.
    for seed in range(4):
        base = uniform_instance(4, 5, seed=100 + seed)
        yield with_arrivals(base, max_release=5, seed=seed)
        yield with_weights(base, profile="skewed", seed=seed)
        yield with_resources(base, 2, seed=seed)


CASES = list(_cases())


def _due(state, i):
    due = state.instance.job(i, state.active_job(i)).deadline
    return float("inf") if due is None else due


class TestSmallTieOnEveryEngine:
    """The ablation's key-only policy runs on the float engines too."""

    def test_supports_both_float_engines(self):
        policy = GreedyBalanceSmallTie()
        assert policy.supports_vector

    @pytest.mark.parametrize("index", range(len(CASES)))
    def test_vector_equals_exact(self, index):
        inst = CASES[index]
        exact = ExactBackend().run(inst, GreedyBalanceSmallTie(), record_shares=False)
        vector = VectorBackend().run(inst, GreedyBalanceSmallTie(), record_shares=False)
        assert vector.makespan == exact.makespan
        assert vector.completion_steps == exact.completion_steps

    def test_batched_equals_exact(self):
        result = run_batch(CASES, GreedyBalanceSmallTie(), objectives=[_CompletionSteps()])
        for b, inst in enumerate(CASES):
            exact = ExactBackend().run(inst, GreedyBalanceSmallTie(), record_shares=False)
            assert int(result.makespans[b]) == exact.makespan, b
            completions = result.objective_values["completion-steps"][b]
            assert completions == sorted(exact.completion_steps.items()), b


class TestKeyDeclaration:
    def test_unknown_column_raises_when_class_is_defined(self):
        with pytest.raises(UnknownKeyColumnError, match="'-requirement'") as err:

            class RequirementFirst(WaterFillPolicy):
                name = "requirement-first"
                key = ("jobs_remaining", "-requirement")

        assert isinstance(err.value, ReproError)
        assert isinstance(err.value, ValueError)
        assert "available" in str(err.value)

    @pytest.mark.parametrize(
        "policy, priority",
        [
            (GreedyBalance(), lambda s, i: (-s.jobs_remaining(i), -s.remaining_work(i), i)),
            (GreedyBalanceSmallTie(), lambda s, i: (-s.jobs_remaining(i), s.remaining_work(i), i)),
            (EDFWaterfill(), lambda s, i: (_due(s, i), s.remaining_work(i), i)),
        ],
        ids=["greedy-balance", "gb-small-tie", "edf-waterfill"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_key_orders_like_the_hand_written_sort(self, policy, priority, seed):
        """A ``-`` column sorts descending; the index breaks the last ties."""
        inst = with_deadlines(uniform_instance(5, 4, seed=seed), seed=seed)
        state = ExecState(inst)
        while not state.all_done:
            order = sorted(state.active_processors(), key=lambda i: priority(state, i))
            shares = policy.shares(state)
            assert shares == water_fill(state, order), state.t
            state.apply(shares)

    @pytest.mark.parametrize("k", [1, 2])
    def test_index_order_with_mask_equals_masked_order(self, k):
        """``order=None`` plus a mask fills exactly like the masked index list."""
        inst = with_resources(uniform_instance(6, 3, seed=k), k, seed=k)
        mask = np.array([True, False, True, True, False, True])
        single = VectorState(inst)
        assert np.array_equal(
            water_fill_array(single, None, eligible=mask),
            water_fill_array(single, np.flatnonzero(mask)),
        )
        batch = BatchVectorState([inst, inst])
        masks = np.stack([mask, ~mask])
        order = np.broadcast_to(np.arange(6), (2, 6))
        assert np.array_equal(
            water_fill_array(batch, None, eligible=masks),
            water_fill_array(batch, order, eligible=masks),
        )


def _classes_defining(method):
    for path in sorted(ALGORITHMS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == method
                for item in node.body
            ):
                yield node.name


class TestOneDefinition:
    def test_only_the_bases_and_proportional_share_define_float_shares(self):
        assert sorted(_classes_defining("shares_array")) == [
            "Policy",
            "ProportionalShare",
            "WaterFillPolicy",
        ]

    def test_one_float_query(self):
        """``shares_array`` serves one lane and a batch: no second query."""
        assert list(_classes_defining("shares_batch")) == []

    def test_every_registered_water_filler_is_a_waterfill_policy(self):
        for name in available_policies():
            policy = get_policy(name)
            assert isinstance(policy, WaterFillPolicy) == (name != "proportional-share"), name

    def test_policy_modules_do_not_import_the_float_fills(self):
        private = {"water_fill_array", "sort_key"}
        for path in sorted(ALGORITHMS.glob("*.py")):
            if path.name == "base.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    imported = {alias.name for alias in node.names}
                    assert not imported & private, path.name
