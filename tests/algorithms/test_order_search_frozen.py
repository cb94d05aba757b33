"""The live order search against a frozen copy of the one before it.

``frozen_order_search.py`` keeps the search as it ran when every
complete order went to the evaluator.  The live search bounds a policy
leaf by its fixed-order optimum first and skips it when that bound
meets the incumbent, so it must reach the same certificate (value,
witness order, proof, node count, bounds) with no more leaf runs.
Without an evaluator the leaf value *is* the oracle and nothing may
change at all.  The integer job classes must partition jobs as ``Job``
equality does, and the seeds sorted on table columns must match the
``Fraction`` sorts.  The flat Theorem 5 table is checked against the
dict fill it replaced: same makespan, same parent moves, same cell
count, same witness.
"""

from dataclasses import asdict
from fractions import Fraction
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.analysis.certify as certify_mod
from repro.algorithms import branch_and_bound_order, opt_order, opt_res_assignment, opt_two
from repro.analysis import certify_opt
from repro.core import Instance, Job, Schedule
from repro.core.simulator import run_policy

from . import frozen_order_search as frozen

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: The certificate fields the live search must reproduce exactly.
FIELDS = ("value", "order", "proved", "nodes", "lower_bound", "order_space")

#: ``max_nodes`` budgets: one expansion, a few, and the default.
BUDGETS = (1, 3, 100_000)


@st.composite
def small_instances(draw) -> Instance:
    """m in {1, 2, 3} queues of 1..4 unit jobs on a small grid.

    Small grids make equal jobs common, which is what the symmetry
    check and the value-keyed caches act on; the finer ones make
    instances that need node expansions.
    """
    d = draw(st.sampled_from((2, 4, 7, 10)))
    # Shapes drawn uniformly (not biased small), so that many
    # instances need node expansions.
    m = draw(st.sampled_from((1, 2, 3)))
    lengths = st.sampled_from((1, 2, 3, 4))
    return Instance(
        [
            [Fraction(draw(st.integers(0, d)), d) for _ in range(draw(lengths))]
            for _ in range(m)
        ]
    )


def _evaluator(policy: str, backend: str):
    def evaluate(inst: Instance) -> int:
        return run_policy(inst, policy, backend=backend, record_shares=False).makespan

    return evaluate


class TestPolicyModeMatchesFrozen:
    @settings(max_examples=400, **COMMON)
    @given(
        inst=small_instances(),
        policy=st.sampled_from(("greedy-balance", "round-robin")),
        backend=st.sampled_from(("exact", "vector")),
        max_nodes=st.sampled_from(BUDGETS),
    )
    def test_same_certificate_fewer_leaf_runs(self, inst, policy, backend, max_nodes):
        evaluate = _evaluator(policy, backend)
        live = branch_and_bound_order(inst, evaluator=evaluate, max_nodes=max_nodes)
        old = frozen.branch_and_bound_order(
            inst, evaluator=evaluate, max_nodes=max_nodes
        )
        for name in FIELDS:
            assert getattr(live, name) == getattr(old, name), name
        assert live.leaf_evaluations <= old.leaf_evaluations


class TestExactModeUnchanged:
    @settings(max_examples=200, **COMMON)
    @given(inst=small_instances(), max_nodes=st.sampled_from(BUDGETS))
    def test_whole_summary_equal(self, inst, max_nodes):
        live = certify_opt(inst, max_nodes=max_nodes).summary()
        with mock.patch.object(
            certify_mod, "branch_and_bound_order", frozen.branch_and_bound_order
        ):
            old = certify_opt(inst, max_nodes=max_nodes).summary()
        live.pop("seconds"), old.pop("seconds")
        assert live == old
        # The search result itself, counters included.
        assert asdict(branch_and_bound_order(inst, max_nodes=max_nodes)) == asdict(
            frozen.branch_and_bound_order(inst, max_nodes=max_nodes)
        )


# ----------------------------------------------------------------------
# Integer job classes and table-sorted seeds
# ----------------------------------------------------------------------
@st.composite
def varied_instances(draw) -> Instance:
    """Jobs from a small palette that varies every field ``Job`` compares.

    Requirements (k = 1 or 2), sizes (off the grid too), weights and
    deadlines each come from two or three values, so equal and unequal
    jobs both recur within and across queues.
    """
    k = draw(st.sampled_from((1, 2)))
    req = st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1)))
    palette = st.builds(
        Job,
        st.tuples(*[req] * k) if k > 1 else req,
        st.sampled_from((1, 2, Fraction(1, 2), Fraction(7, 3))),
        weight=st.sampled_from((1, 3)),
        deadline=st.sampled_from((None, 2)),
    )
    m = draw(st.sampled_from((1, 2, 3)))
    return Instance(
        [draw(st.lists(palette, min_size=1, max_size=4)) for _ in range(m)]
    )


class TestJobClasses:
    @settings(max_examples=200, **COMMON)
    @given(inst=varied_instances())
    def test_ids_equal_exactly_when_jobs_are(self, inst):
        ids = opt_order._class_ids(inst)
        cells = [(i, j) for i in range(inst.m) for j in range(inst.num_jobs(i))]
        for a in cells:
            for b in cells:
                same_id = ids[a[0]][a[1]] == ids[b[0]][b[1]]
                assert same_id == (inst.job(*a) == inst.job(*b)), (a, b)

    @settings(max_examples=200, **COMMON)
    @given(inst=varied_instances())
    def test_seed_orders_match_fraction_sorts(self, inst):
        assert opt_order._seed_orders(inst) == frozen.seed_orders(inst)


# ----------------------------------------------------------------------
# The flat Theorem 5 table against the dict fill
# ----------------------------------------------------------------------
#: Small capacities and capacities past 2**64 (no fixed-width integer
#: holds the latter, so the fill must stay in Python ints).
capacities = st.one_of(st.integers(1, 12), st.integers(2**64, 2**70))


@st.composite
def grids(draw) -> tuple[list[int], list[int], int]:
    """Two grid queues of 1..8 jobs on capacity *cap*, edges 0 and cap likely."""
    cap = draw(capacities)
    unit = st.one_of(st.just(0), st.just(cap), st.integers(0, cap))
    a1 = draw(st.lists(unit, min_size=1, max_size=8))
    a2 = draw(st.lists(unit, min_size=1, max_size=8))
    return a1, a2, cap


def _flat_moves(parent: list, n2: int) -> dict:
    """The flat parent list as the dict fill's ``{(i1, i2): move}``."""
    return {
        divmod(cell, n2 + 1): move
        for cell, move in enumerate(parent)
        if move is not None
    }


class TestFlatTable:
    @settings(max_examples=300, **COMMON)
    @given(grid=grids())
    def test_table_matches_dict_fill(self, grid):
        a1, a2, cap = grid
        makespan, parent, expanded = opt_two._table(a1, a2, cap)
        old_makespan, old_parent, old_expanded = frozen.table(a1, a2, cap)
        assert makespan == old_makespan
        assert expanded == old_expanded
        assert _flat_moves(parent, len(a2)) == old_parent

    @settings(max_examples=150, **COMMON)
    @given(grid=grids())
    def test_witness_unchanged(self, grid):
        a1, a2, cap = grid
        inst = Instance(
            [[Fraction(x, cap) for x in a1], [Fraction(x, cap) for x in a2]]
        )
        (b1, b2), d = inst.to_integer_grid()
        _, old_parent, _ = frozen.table(b1, b2, d)
        old_rows = frozen.witness_rows(b1, b2, d, old_parent)
        old = Schedule(inst, [[Fraction(x, d) for x in row] for row in old_rows])
        assert opt_res_assignment(inst).schedule == old
