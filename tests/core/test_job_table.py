"""The integer job table against the converters it replaced.

``Instance.job_table`` holds every job's numbers as integers over one
denominator per column; the float rows, the integer grid, the work
sums and a bag's weight column and row ids are read off it.  Each is
checked here against the frozen per-job converter in
:mod:`tests.core.frozen_converters`: the float rows bitwise, the rest
exactly.  The draws cover k in {1, 2, 3}, general and off-grid sizes,
weights, deadlines and releases, requirements 0 and 1, and common
denominators past 2**53 and 2**63 (17-digit decimals, lcms of coprime
grids).
"""

from __future__ import annotations

import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.certify import certify_opt
from repro.backends.vector import JobBag, VectorState, _job_column
from repro.core import Instance, Job
from repro.core.numerics import frac_ceil
from repro.core.table import JobTable
from repro.generators import uniform_instance

from . import frozen_converters as frozen

#: Large pairwise-coprime moduli: their lcm passes 2**63 with a few jobs.
PRIMES = (2**31 - 1, 1_000_000_007, 998_244_353, 2**61 - 1)

SMALL_REQUIREMENTS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.builds(Fraction, st.integers(0, 100), st.just(100)),
    st.builds(Fraction, st.integers(0, 12), st.integers(1, 12)).filter(lambda x: x <= 1),
)
REQUIREMENTS = st.one_of(
    SMALL_REQUIREMENTS,
    st.builds(Fraction, st.integers(0, 10**17), st.just(10**17)),
    st.builds(
        lambda p, a: Fraction(a % (p + 1), p),
        st.sampled_from(PRIMES),
        st.integers(0, 2**62),
    ),
)
SMALL_SIZES = st.one_of(
    st.just(Fraction(1)),
    st.builds(Fraction, st.integers(1, 9)),
    st.builds(Fraction, st.integers(1, 40), st.integers(1, 12)),
)
SIZES = st.one_of(SMALL_SIZES, st.builds(Fraction, st.integers(1, 10**18), st.sampled_from(PRIMES)))
SMALL_WEIGHTS = st.one_of(st.just(Fraction(1)), st.builds(Fraction, st.integers(1, 20), st.integers(1, 9)))
WEIGHTS = st.one_of(SMALL_WEIGHTS, st.builds(Fraction, st.integers(1, 10**20), st.sampled_from(PRIMES)))
SMALL_DEADLINES = st.one_of(st.none(), st.integers(1, 60))
DEADLINES = st.one_of(SMALL_DEADLINES, st.integers(2**60, 2**70))


@st.composite
def jobs(draw, k, small=False):
    reqs_, sizes, weights, deadlines = (
        (SMALL_REQUIREMENTS, SMALL_SIZES, SMALL_WEIGHTS, SMALL_DEADLINES)
        if small
        else (REQUIREMENTS, SIZES, WEIGHTS, DEADLINES)
    )
    reqs = [draw(reqs_) for _ in range(k)]
    return Job(
        reqs if k > 1 else reqs[0],
        draw(sizes),
        weight=draw(weights),
        deadline=draw(deadlines),
    )


@st.composite
def instances(draw, large=False):
    k = draw(st.sampled_from([1, 2, 3]))
    if large:
        # Many equal jobs in ragged queues, dealt from a drawn palette:
        # on small grids the table divides in one float64 array, and one
        # big denominator sends it to int division.
        palette = draw(st.lists(jobs(k, small=draw(st.booleans())), min_size=1, max_size=8))
        rng = random.Random(draw(st.integers(0, 2**32)))
        m = rng.randint(10, 16)
        queues = [rng.choices(palette, k=rng.randint(7, 9)) for _ in range(m)]
    else:
        m = draw(st.integers(1, 4))
        queues = [draw(st.lists(jobs(k), min_size=1, max_size=4)) for _ in range(m)]
    releases = draw(st.one_of(st.none(), st.lists(st.integers(0, 5), min_size=m, max_size=m)))
    return Instance(queues, releases=releases)


def contents(table: JobTable) -> tuple:
    """Every column, denominator and sum of *table*, and its float rows' bytes."""
    return (
        table.lengths,
        table.reqs,
        table.rstar,
        table.req_den,
        table.sizes,
        table.size_den,
        table.works,
        table.work_den,
        table.weights,
        table.weight_den,
        table.deadlines,
        table.work_sum,
        table.resource_sums,
        table.resource_den,
        table.floats().tobytes(),
    )


@settings(max_examples=200, deadline=None)
@given(inst=st.one_of(instances(), instances(large=True)))
def test_table_matches_the_frozen_converters(inst):
    table = inst.job_table()
    floats = table.floats()
    reference = frozen.float_rows(inst)
    assert floats.shape == reference.shape
    assert floats.tobytes() == reference.tobytes()  # bitwise, signs of zero too
    assert not floats.flags.writeable
    for (i, j), job in inst.jobs():
        column = _job_column(job, inst.num_resources)
        assert np.array(column).tobytes() == reference[:, i, j].tobytes()
    assert inst.resource_denominator() == frozen.resource_denominator(inst)
    total, per_resource = frozen.work_sums(inst)
    assert inst.total_work() == total
    assert [inst.resource_work(r) for r in range(inst.num_resources)] == list(per_resource)
    assert inst.work_lower_bound() == max(frac_ceil(w) for w in per_resource)
    if inst.num_resources == 1:
        assert inst.to_integer_grid() == frozen.to_integer_grid(inst)
        grid = frozen.grid_units(inst)
        assert table.on_grid == (grid is not None)
        if grid is not None:
            assert grid == (table.queues(table.rstar), table.queues(table.works), table.req_den)


@settings(max_examples=100, deadline=None)
@given(lanes=st.lists(instances(), min_size=1, max_size=3))
def test_bag_rows_and_weight_column_match_the_frozen_bag(lanes):
    k = max(inst.num_resources for inst in lanes)
    bag = JobBag()
    ids = [bag.add(inst) for inst in lanes]
    jobs, reference = frozen.bag_ids(lanes)
    # Rows are keyed exactly as jobs are, whatever each lane's grid.
    assert ids == reference and bag.jobs == jobs
    table = bag.table(k)
    for inst, lane in zip(lanes, ids):
        for (i, j), job in inst.jobs():
            row = lane[i][j]
            assert bag.jobs[row] == job
            column = list(frozen.job_fields(job))
            reqs = [float(r) for r in job.requirements] if k > 1 else []
            expected = column + reqs + [0.0] * (k - len(reqs) if k > 1 else 0)
            assert np.array(expected).tobytes() == table[:, row].tobytes()
    num, d = bag.weight_grid()
    ref_num, ref_d = frozen.weight_grid(bag.jobs)
    assert d == ref_d
    assert (num is None) == (ref_num is None)
    if num is not None:
        assert num.tolist() == ref_num.tolist()


@settings(max_examples=100, deadline=None)
@given(inst=instances(), data=st.data())
def test_with_order_gathers_what_a_fresh_build_gives(inst, data):
    orders = [data.draw(st.permutations(range(inst.num_jobs(i)))) for i in range(inst.m)]
    inst.job_table()
    permuted = inst.with_order(orders)
    assert permuted._table is not None  # gathered, not left to build
    fresh = Instance(permuted.queues, releases=permuted.releases).job_table()
    assert contents(permuted.job_table()) == contents(fresh)


def test_pickling_drops_the_table_and_append_job_starts_without_one():
    inst = Instance([["1/2", Job("1/3", 2)], [Job("3/4", weight=2, deadline=3)]], releases=[0, 2])
    table = inst.job_table()
    copy = pickle.loads(pickle.dumps(inst))
    assert copy == inst and copy._table is None
    assert contents(copy.job_table()) == contents(table)
    grown = inst.append_job("1/4", 0)
    assert grown._table is None


def test_denominators_past_2_63_round_like_fraction():
    inst = Instance([[0.12345678901234567, "1/7"], ["1/11", "1/13"]])
    table = inst.job_table()
    assert table.req_den == 50050000000000000000 > 2**63
    assert table.floats().tobytes() == frozen.float_rows(inst).tobytes()
    assert VectorState(inst).active_requirements.tolist() == [
        float(Fraction("0.12345678901234567")),
        float(Fraction(1, 11)),
    ]


def test_a_large_table_past_2_53_divides_in_ints():
    # float(n) / float(d) rounds twice and misses n / d for this n.
    r = Fraction(82030920993190389, 10**17)
    assert float(r.numerator) / float(r.denominator) != float(r)
    inst = Instance([[Job(r)] + [Job("1/2")] * 9] * 8)
    assert inst.job_table().floats()[0, 0, 0] == float(r)


def test_zero_requirement_jobs_of_different_sizes_keep_their_own_rows():
    bag = JobBag()
    assert bag.add(Instance([[Job(0, 2), Job(0, 3), Job(0, 2)]])) == ((0, 1, 0),)


def test_equal_jobs_on_different_grids_share_a_row():
    bag = JobBag()
    coarse = Instance([[Job("1/2", weight="1/2"), Job("3/50")]])  # D = 50
    fine = Instance([[Job("1/100", 2), Job("3/50"), Job("1/2", weight="1/2")]])  # D = 100
    assert bag.add(coarse) == ((0, 1),)
    assert bag.add(fine) == ((2, 1, 0),)
    assert bag.add(coarse) == ((0, 1),)
    assert bag.jobs == [Job("1/2", weight="1/2"), Job("3/50"), Job("1/100", 2)]


def test_vector_state_writes_into_its_own_copy():
    inst = Instance([["1/2"], ["1/4"]])
    before = inst.job_table().floats().copy()
    state = VectorState(inst)
    state.extend(inst.append_job("1/3", 0), 0)
    assert state._table[1, 0, 1] == float(Fraction(1, 3))
    assert inst.job_table().floats().tobytes() == before.tobytes()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("objective", [None, "weighted-flow"])
def test_one_table_build_per_certification(monkeypatch, seed, objective):
    instance = uniform_instance(2, 3, seed=seed)
    if objective is not None:
        instance = instance.with_weights([[1, 2, 3], [3, 1, 2]])
    builds = []
    init = JobTable.__init__

    def counting(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(JobTable, "__init__", counting)
    cert = certify_opt(instance, policy="greedy-balance", backend="exact", objective=objective)
    assert cert.leaf_evaluations > 0
    assert len(builds) == 1
