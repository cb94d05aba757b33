"""Differential tests for the exact oracles on the integer grid.

The Theorem 5 dynamic programs (table and priority queue) and the
Theorem 6 configuration search compute in grid units of ``1/D``.  Here
they are checked against the brute-force oracle and against frozen
``Fraction`` copies of the same algorithms (``fraction_oracles.py``):
values, DP cell counts, per-round configuration counts and the witness
share rows must all be identical.  The instances stress the grid:
prime and very large denominators, requirements 0 and 1, pairs that sum
to exactly 1, and queues that differ in denominator so the LCM grows.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    brute_force_makespan,
    exact_order_makespan,
    opt_res_assignment,
    opt_res_assignment_general,
    opt_res_assignment_pq,
)
from repro.algorithms import opt_general, opt_two
from repro.algorithms.fastpath import grid_witness_makespan
from repro.core import Instance, Job, Schedule
from repro.core.numerics import frac_sum
from repro.exceptions import InvalidScheduleError, SolverError

from .fraction_oracles import (
    fraction_opt_general,
    fraction_opt_two,
    fraction_opt_two_pq,
)

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Small, prime and very large grid denominators (2**31 - 1 and
#: 2**61 - 1 are Mersenne primes).
DENOMINATORS = (1, 2, 3, 7, 10, 13, 97, 1009, 65537, 2**31 - 1, 2**61 - 1)


@st.composite
def grid_requirement(draw, d: int) -> Fraction:
    """A requirement on grid *d*, biased toward the edges 0 and 1."""
    k = draw(st.one_of(st.just(0), st.just(d), st.integers(0, d)))
    return Fraction(k, d)


@st.composite
def grid_queues(draw, m: int, max_n: int) -> Instance:
    """*m* unit-size queues of up to *max_n* jobs.

    Each queue draws its own denominator (so the common grid is often a
    product of primes), and a job may complement the job at the same
    position on the previous queue so the pair sums to exactly 1.
    """
    queues: list[list[Fraction]] = []
    for i in range(m):
        d = draw(st.sampled_from(DENOMINATORS))
        n = draw(st.integers(1, max_n))
        queue = []
        for j in range(n):
            if i and j < len(queues[i - 1]) and draw(st.booleans()):
                queue.append(1 - queues[i - 1][j])
            else:
                queue.append(draw(grid_requirement(d)))
        queues.append(queue)
    return Instance.from_requirements(queues)


def two_queue_instances(max_n: int = 8) -> st.SearchStrategy[Instance]:
    return grid_queues(2, max_n)


class TestTheorem5OnTheGrid:
    @settings(max_examples=150, **COMMON)
    @given(inst=two_queue_instances())
    def test_table_pq_brute_force_and_fraction_dp_agree(self, inst):
        table = opt_res_assignment(inst)
        pq = opt_res_assignment_pq(inst)
        frozen, frozen_schedule, frozen_cells = fraction_opt_two(inst)
        frozen_pq, frozen_pq_schedule, frozen_pq_cells = fraction_opt_two_pq(inst)
        value = brute_force_makespan(inst)
        assert table.makespan == pq.makespan == frozen == frozen_pq == value
        assert exact_order_makespan(inst) == value
        assert exact_order_makespan(inst, oracle="opt-two") == value
        assert table.cells_expanded == frozen_cells
        assert pq.cells_expanded == frozen_pq_cells
        assert table.schedule.share_rows() == frozen_schedule.share_rows()
        assert pq.schedule.share_rows() == frozen_pq_schedule.share_rows()
        assert table.schedule == frozen_schedule
        assert pq.schedule == frozen_pq_schedule

    @pytest.mark.parametrize(
        "rows, value",
        [
            ([["0", "0", "0"], ["0"]], 3),
            ([["1", "1"], ["1", "1"]], 4),
            ([["1", "0"], ["0", "1"]], 2),
            ([["1/3", "2/3"], ["2/3", "1/3"]], 2),
            ([["1/65537", "65536/65537"], ["65536/65537", "1/65537"]], 2),
        ],
    )
    def test_edge_requirements(self, rows, value):
        inst = Instance.from_requirements(rows)
        result = opt_res_assignment(inst)
        assert result.makespan == value == brute_force_makespan(inst)
        assert result.schedule == fraction_opt_two(inst)[1]

    def test_grid_makespan_uses_the_callers_grid(self):
        # A coarser or finer common grid for the same requirements
        # must not change the value (the prefix bounds slice the
        # root's grid, whose D is a multiple of the prefix's own).
        inst = Instance.from_requirements([["1/2", "1/3"], ["2/3", "1/2"]])
        units, d = inst.to_integer_grid()
        scaled = [[7 * u for u in row] for row in units]
        assert opt_two.grid_makespan(units, d) == opt_two.grid_makespan(scaled, 7 * d)
        assert opt_two.grid_makespan(units, d) == opt_res_assignment(inst).makespan


class TestTheorem6OnTheGrid:
    @settings(max_examples=60, **COMMON)
    @given(inst=grid_queues(3, 3))
    def test_stats_makespan_and_witness_match_fraction_search(self, inst):
        result = opt_res_assignment_general(inst)
        frozen, frozen_schedule, frozen_stats = fraction_opt_general(inst)
        assert result.makespan == frozen
        assert result.stats == frozen_stats
        assert result.schedule == frozen_schedule
        assert exact_order_makespan(inst) == frozen
        assert exact_order_makespan(inst, oracle="opt-general") == frozen

    @settings(max_examples=40, **COMMON)
    @given(inst=grid_queues(2, 4))
    def test_m2_search_matches_fraction_search(self, inst):
        result = opt_res_assignment_general(inst)
        frozen, frozen_schedule, frozen_stats = fraction_opt_general(inst)
        assert (result.makespan, result.stats) == (frozen, frozen_stats)
        assert result.schedule == frozen_schedule


class TestWitnessReplay:
    """``grid_witness_makespan`` is the grid mirror of Schedule validation."""

    UNITS = [[1, 2], [2, 0]]  # requirements over capacity 3

    def test_accepts_and_trims(self):
        rows = [[1, 2], [2, 0], [0, 0], [0, 0]]
        assert grid_witness_makespan(self.UNITS, 3, rows, 2) == 2

    def test_zero_work_completion_is_not_trimmed(self):
        # Processor 1's second job has requirement 0: it completes in a
        # step that processes no work, and that step counts.
        rows = [[1, 2], [0, 0], [2, 0]]
        assert grid_witness_makespan(self.UNITS, 3, rows, 3) == 3

    @pytest.mark.parametrize(
        "rows, match",
        [
            ([[2, 2], [2, 0]], "not a feasible share vector"),
            ([[1, 2, 0], [2, 0]], "not a feasible share vector"),
            ([[-1, 2], [2, 0]], "outside"),
            ([[1, 2], [4, 0]], "not a feasible share vector"),
            ([[1, 2]], "unfinished"),
            ([[0, 0], [1, 2], [2, 0]], "replays to 3 steps"),
        ],
    )
    def test_rejects(self, rows, match):
        with pytest.raises(SolverError, match=match):
            grid_witness_makespan(self.UNITS, 3, rows, 2)

    @settings(max_examples=150, **COMMON)
    @given(
        data=st.data(),
        inst=grid_queues(3, 3).filter(lambda i: i.resource_denominator() < 10**6),
    )
    def test_agrees_with_schedule_validation(self, data, inst):
        units, d = inst.to_integer_grid()
        shares = st.one_of(
            st.integers(0, d // 3), st.sampled_from([0, d]), st.integers(-1, d + 1)
        )
        rows = data.draw(st.lists(st.lists(shares, min_size=3, max_size=3), max_size=8))
        try:
            expected = Schedule(
                inst, [[Fraction(x, d) for x in row] for row in rows]
            ).makespan
        except InvalidScheduleError:
            with pytest.raises(SolverError):
                grid_witness_makespan(units, d, rows, 0)
            with pytest.raises(SolverError):
                grid_witness_makespan(units, d, rows, len(rows))
            return
        assert grid_witness_makespan(units, d, rows, expected) == expected


class TestCorruptedWitness:
    """The value-only oracles still prove their value with the witness."""

    INST2 = Instance.from_requirements([["9/10", "1/10"], ["1/10", "9/10"]])
    INST3 = Instance.from_requirements([["1/2", "1/3"], ["1/2", "2/3"], ["1/4"]])

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda rows: rows[:-1],  # drops the last step: a job never finishes
            lambda rows: [(0,) * len(rows[0])] + list(rows),  # idle step: too long
        ],
        ids=["dropped-step", "idle-step"],
    )
    @pytest.mark.parametrize(
        "module, inst", [(opt_two, INST2), (opt_general, INST3)], ids=["thm5", "thm6"]
    )
    def test_exact_order_makespan_raises(self, monkeypatch, module, inst, corrupt):
        assert exact_order_makespan(inst) > 0
        honest = module._witness_rows
        monkeypatch.setattr(
            module, "_witness_rows", lambda *args: corrupt(honest(*args))
        )
        with pytest.raises(SolverError, match="witness"):
            exact_order_makespan(inst)


sizes = st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(7, 3), Fraction(10**9 + 7, 11)])


@st.composite
def sized_instances(draw, k: int) -> Instance:
    def job():
        d = draw(st.sampled_from(DENOMINATORS))
        reqs = [draw(grid_requirement(d)) for _ in range(k)]
        return Job(reqs if k > 1 else reqs[0], draw(sizes))

    m = draw(st.integers(1, 3))
    return Instance([[job() for _ in range(draw(st.integers(1, 4)))] for _ in range(m)])


class TestWorkSums:
    @settings(max_examples=100, **COMMON)
    @given(inst=st.sampled_from([1, 2]).flatmap(sized_instances))
    def test_total_and_resource_work_equal_frac_sum(self, inst):
        jobs = [job for _, job in inst.jobs()]
        assert inst.total_work() == frac_sum(job.requirement * job.size for job in jobs)
        for lane in range(inst.num_resources):
            assert inst.resource_work(lane) == frac_sum(
                job.requirements[lane] * job.size for job in jobs
            )
        assert type(inst.total_work()) is Fraction

    @settings(max_examples=100, **COMMON)
    @given(inst=sized_instances(1))
    def test_integer_grid_is_exact(self, inst):
        units, d = inst.to_integer_grid()
        assert d == inst.resource_denominator()
        assert [[Fraction(u, d) for u in row] for row in units] == [
            list(inst.requirements(i)) for i in range(inst.m)
        ]
        assert all(type(u) is int for row in units for u in row)
