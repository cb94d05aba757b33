"""The instance's work sums against a fresh ``product_sum``.

``Instance`` sums its per-resource work once, in integers, when it
builds its job table, and ``with_order`` copies gather the table with
the sums; ``total_work``, ``resource_work``, the lower bounds and
``default_step_limit`` read them.  The table takes no part in
equality, hashing or pickling.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, Job
from repro.core.numerics import frac_ceil, product_sum
from repro.core.simulator import default_step_limit

FRACTIONS = st.builds(Fraction, st.integers(0, 12), st.integers(1, 12)).filter(lambda x: x <= 1)
SIZES = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))


@st.composite
def instances(draw):
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    queues = [
        [
            Job([draw(FRACTIONS) for _ in range(k)] if k > 1 else draw(FRACTIONS), draw(SIZES))
            for _ in range(draw(st.integers(1, 4)))
        ]
        for _ in range(m)
    ]
    releases = draw(st.one_of(st.none(), st.lists(st.integers(0, 5), min_size=m, max_size=m)))
    return Instance(queues, releases=releases)


def fresh_sums(inst: Instance) -> tuple[Fraction, list[Fraction]]:
    jobs = [job for _, job in inst.jobs()]
    total = product_sum((job.requirement, job.size) for job in jobs)
    per_resource = [
        product_sum((job.requirements[r], job.size) for job in jobs)
        for r in range(inst.num_resources)
    ]
    return total, per_resource


def assert_sums(inst: Instance) -> None:
    total, per_resource = fresh_sums(inst)
    assert inst.total_work() == total
    assert [inst.resource_work(r) for r in range(inst.num_resources)] == per_resource
    assert inst.work_lower_bound() == max(frac_ceil(w) for w in per_resource)
    limit = 2 * (inst.total_jobs + inst.work_lower_bound()) + 16 + inst.max_release
    assert default_step_limit(inst) == limit


@settings(max_examples=150, deadline=None)
@given(inst=instances(), data=st.data())
def test_cached_sums_match_product_sum(inst, data):
    assert_sums(inst)
    assert_sums(inst)  # the second read comes from the cache
    orders = [data.draw(st.permutations(range(inst.num_jobs(i)))) for i in range(inst.m)]
    permuted = inst.with_order(orders)
    assert permuted._table.resource_sums is inst._table.resource_sums  # handed over
    assert_sums(permuted)
    assert_sums(inst.append_job(inst.job(0, 0), 0))


def test_cache_left_out_of_equality_hashing_and_pickling():
    inst = Instance([["1/2", "1/3"], ["3/4"]], releases=[0, 2])
    twin = Instance([["1/2", "1/3"], ["3/4"]], releases=[0, 2])
    inst.total_work()
    assert inst._table is not None and twin._table is None
    assert inst == twin and hash(inst) == hash(twin)
    copy = pickle.loads(pickle.dumps(inst))
    assert copy == inst and copy._table is None
    assert copy.total_work() == inst.total_work()
