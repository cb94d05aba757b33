"""A frozen copy of the order search before policy leaves were bounded.

``branch_and_bound_order``, ``_value_key`` and ``_seed_orders`` as
:mod:`repro.algorithms.opt_order` ran them when every complete order
went to the evaluator, keyed on ``Job`` objects and sorted on
``Fraction`` works, and ``_table`` and ``_witness_rows``, the
Theorem 5 diagonal fill over dicts and its witness walk, as
:mod:`repro.algorithms.opt_two` ran them.  The differential
tests (``test_order_search_frozen.py``, ``tests/analysis/
test_certify_cost.py``) hold the live search to this one.  Do not edit
it to match the live code; nothing in ``src/`` imports it.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.algorithms import opt_general
from repro.algorithms.opt_order import (
    OrderSearchResult,
    _oracle_applies,
    exact_order_makespan,
    identity_order,
    order_invariant_lower_bound,
    order_space_size,
)
from repro.core.instance import Instance

_BOTH = "both"
_ONLY1 = "only1"
_ONLY2 = "only2"
_FIN1_SURPLUS2 = "fin1"
_FIN2_SURPLUS1 = "fin2"
_ADV1 = "adv1"
_ADV2 = "adv2"
_DELTA = {
    _BOTH: (1, 1),
    _ONLY1: (1, 0),
    _FIN1_SURPLUS2: (1, 0),
    _ADV1: (1, 0),
    _ONLY2: (0, 1),
    _FIN2_SURPLUS1: (0, 1),
    _ADV2: (0, 1),
}


# ----------------------------------------------------------------------
# Theorem 5: the dict-based diagonal fill
# ----------------------------------------------------------------------
def _successors(i1, i2, r, a1, a2, cap):
    n1, n2 = len(a1), len(a2)
    nxt1 = a1[i1 + 1] if i1 + 1 < n1 else 0
    nxt2 = a2[i2 + 1] if i2 + 1 < n2 else 0
    if i1 >= n1:
        return [(i1, i2 + 1, nxt2, _ADV2)]
    if i2 >= n2:
        return [(i1 + 1, i2, nxt1, _ADV1)]
    if r <= cap:
        return [
            (i1 + 1, i2 + 1, nxt1 + nxt2, _BOTH),
            (i1, i2 + 1, nxt2, _ONLY2),
            (i1 + 1, i2, nxt1, _ONLY1),
        ]
    return [
        (i1, i2 + 1, r - cap + nxt2, _FIN2_SURPLUS1),
        (i1 + 1, i2, nxt1 + r - cap, _FIN1_SURPLUS2),
    ]


def table(a1, a2, cap):
    """``(makespan, {cell: parent move}, cells expanded)``."""
    n1, n2 = len(a1), len(a2)
    best = {(0, 0): (0, a1[0] + a2[0])}
    parent = {}
    expanded = 0
    for level in range(0, n1 + n2):
        for i1 in range(max(0, level - n2), min(level, n1) + 1):
            value = best.get((i1, level - i1))
            if value is None:
                continue
            expanded += 1
            st = value[0] + 1
            for s1, s2, sr, move in _successors(
                i1, level - i1, value[1], a1, a2, cap
            ):
                old = best.get((s1, s2))
                if old is None or (st, sr) < old:
                    best[(s1, s2)] = (st, sr)
                    parent[(s1, s2)] = move
    return best[(n1, n2)][0], parent, expanded


def witness_rows(a1, a2, cap, parent):
    """The witness share rows (grid units) of the dict fill's *parent*."""
    n1, n2 = len(a1), len(a2)
    path = []
    i1, i2 = n1, n2
    while (i1, i2) != (0, 0):
        move = parent[(i1, i2)]
        path.append(move)
        d1, d2 = _DELTA[move]
        i1, i2 = i1 - d1, i2 - d2
    path.reverse()

    rows = []
    v1 = a1[0]
    v2 = a2[0]
    for move in path:
        if move == _BOTH or move == _ONLY2 or move == _ONLY1:
            rows.append((v1, v2))
            if move == _ONLY2:
                v1 = 0
            elif move == _ONLY1:
                v2 = 0
        elif move == _FIN2_SURPLUS1:
            give1 = cap - v2
            rows.append((give1, v2))
            v1 -= give1
        elif move == _FIN1_SURPLUS2:
            give2 = cap - v1
            rows.append((v1, give2))
            v2 -= give2
        elif move == _ADV1:
            rows.append((v1, 0))
        else:
            rows.append((0, v2))
        d1, d2 = _DELTA[move]
        if d1:
            i1 += 1
            v1 = a1[i1] if i1 < n1 else 0
        if d2:
            i2 += 1
            v2 = a2[i2] if i2 < n2 else 0
    return rows


def _grid_order_makespan(units, cap):
    if len(units) == 1:
        return len(units[0])
    if len(units) == 2:
        return table(units[0], units[1], cap)[0]
    return opt_general.grid_makespan(units, cap)


# ----------------------------------------------------------------------
# The search
# ----------------------------------------------------------------------
def value_key(instance: Instance, orders) -> tuple:
    return tuple(
        tuple(instance.job(i, j) for j in row) for i, row in enumerate(orders)
    )


def seed_orders(instance: Instance):
    keys: list[Callable] = [
        lambda job: job.work,
        lambda job: -job.work,
        lambda job: (-job.requirement, -job.work),
    ]
    seeds = [identity_order(instance)]
    for key in keys:
        seeds.append(
            tuple(
                tuple(
                    sorted(range(len(queue)), key=lambda j: key(queue[j]))
                )
                for queue in instance.queues
            )
        )
    return seeds


def branch_and_bound_order(
    instance: Instance,
    *,
    evaluator=None,
    oracle: str = "auto",
    lower_bound_fn=None,
    prefix_bounds: bool = True,
    max_nodes: int = 100_000,
) -> OrderSearchResult:
    m = instance.num_processors
    n_jobs = [instance.num_jobs(i) for i in range(m)]
    total = sum(n_jobs)
    instance.job_table()
    if evaluator is None:
        evaluator = lambda inst: exact_order_makespan(inst, oracle=oracle)  # noqa: E731
    if lower_bound_fn is None:
        lower_bound_fn = order_invariant_lower_bound
    global_lb = lower_bound_fn(instance)
    use_prefix = prefix_bounds and _oracle_applies(instance)
    if use_prefix:
        units, cap = instance.to_integer_grid()

    leaf_cache: dict = {}
    leaf_evaluations = 0

    def evaluate(orders) -> int:
        nonlocal leaf_evaluations
        key = value_key(instance, orders)
        if key in leaf_cache:
            return leaf_cache[key]
        value = evaluator(instance.with_order(list(map(list, orders))))
        leaf_cache[key] = value
        leaf_evaluations += 1
        return value

    best_value = None
    best_order = identity_order(instance)
    for seed in seed_orders(instance):
        value = evaluate(seed)
        if best_value is None or value < best_value:
            best_value, best_order = value, seed

    nodes = 0
    bound_calls = 0
    pruned = 0
    space = order_space_size(instance)
    if best_value <= global_lb:
        return OrderSearchResult(
            value=best_value,
            order=best_order,
            proved=True,
            nodes=0,
            bound_calls=0,
            leaf_evaluations=leaf_evaluations,
            pruned=0,
            lower_bound=global_lb,
            order_space=space,
        )

    prefix_optima: dict = {}

    def prefix_bound(orders) -> int:
        nonlocal bound_calls
        key = value_key(instance, orders)
        if key in prefix_optima:
            return prefix_optima[key]
        rows = [[units[i][j] for j in row] for i, row in enumerate(orders) if row]
        if not rows:
            value = 0
        else:
            value = _grid_order_makespan(rows, cap)
            bound_calls += 1
        prefix_optima[key] = value
        return value

    counter = 0
    root = tuple(() for _ in range(m))
    heap = [(global_lb, 0, 0, root)]
    proved = True
    expanded_values: set = set()

    while heap:
        bound, _, _, orders = heapq.heappop(heap)
        committed = sum(len(row) for row in orders)
        if best_value is not None and bound >= best_value:
            pruned += len(heap) + 1
            break
        if nodes >= max_nodes:
            proved = False
            break
        vkey = value_key(instance, orders)
        if vkey in expanded_values:
            continue
        expanded_values.add(vkey)
        nodes += 1
        active = next(i for i in range(m) if len(orders[i]) < n_jobs[i])
        used = set(orders[active])
        remaining = [j for j in range(n_jobs[active]) if j not in used]
        seen_jobs: set = set()
        for j in remaining:
            job = instance.job(active, j)
            if job in seen_jobs:
                continue
            seen_jobs.add(job)
            child = list(orders)
            child[active] = orders[active] + (j,)
            child = tuple(child)
            if committed + 1 == total:
                value = evaluate(child)
                if value < best_value:
                    best_value, best_order = value, child
                continue
            child_bound = bound
            if use_prefix and committed + 1 >= 2:
                child_bound = max(child_bound, prefix_bound(child))
            if child_bound >= best_value:
                pruned += 1
                continue
            counter += 1
            heapq.heappush(heap, (child_bound, -(committed + 1), counter, child))

    return OrderSearchResult(
        value=best_value,
        order=best_order,
        proved=proved,
        nodes=nodes,
        bound_calls=bound_calls,
        leaf_evaluations=leaf_evaluations,
        pruned=pruned,
        lower_bound=global_lb,
        order_space=space,
    )
