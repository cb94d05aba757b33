"""Exact order optimization: branch-and-bound over queue orders.

The paper fixes every processor's queue order a priori, and Theorem 4
proves that *choosing* the order is NP-hard.  The sequencing layer
(:mod:`repro.sequencing`) searches orders heuristically; this module
closes the loop with an **exact** order optimizer for small instances:

.. math::

    \\mathrm{OPT}^*(I) \\;=\\; \\min_{\\sigma} \\mathrm{OPT}(I^\\sigma),

the minimum over all per-processor queue permutations ``sigma`` of the
fixed-order optimum computed by the existing per-order exact oracles
(the m=2 dynamic program of Theorem 5, the fixed-m configuration
search of Theorem 6, the brute-force and MILP oracles).

The search is a best-first branch-and-bound over *partial orders*: a
node commits a prefix of each queue (jobs dealt bag-to-queue, position
by position), and is bounded below by

* the order-invariant makespan lower bound of the whole instance
  (Observation 1's work bound, the queue-length bound, and the
  release-time refinements), and
* the exact optimum of the *committed prefix* as its own sub-instance
  -- restricting an optimal schedule of any completion to the prefix
  jobs stays feasible, so ``OPT(prefix) <= OPT(any completion)``.

Two reductions keep the tree far below ``prod_i n_i!`` leaves:

* **symmetry breaking** -- when several remaining jobs of a queue are
  equal as value objects, only the lowest-indexed one may be placed
  next (equal jobs produce value-identical orders);
* **prefix memoization** -- prefix bounds and leaf evaluations are
  memoized on the *job-value* sequences (integer job-class ids read
  off the job table), so prefixes that differ only in the indices of
  equal jobs collapse to one entry (the dominated duplicates symmetry
  breaking cannot reach across restarts of the heap).

Because the bound is monotone along tree edges, the search may stop as
soon as the best unexplored bound reaches the incumbent: the incumbent
is then *proved* optimal.  A ``max_nodes`` budget turns the proof off
gracefully (``proved=False``; the value is still a valid upper bound).

The evaluator is pluggable: the default is the per-order exact oracle,
and :func:`repro.analysis.certify.certify_opt` also plugs in policy
evaluation through the simulation backends (the epsilon-certified
mode: "no queue order lets this policy beat X").  A policy's makespan
on an order is at least that order's exact optimum, so a plugged-in
evaluator's leaves are bounded by the oracle before they run, and
skipped when the bound already meets the incumbent.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import permutations, product
from math import factorial
from typing import Callable

from ..core.instance import Instance
from ..exceptions import SolverError
from .brute_force import brute_force_makespan
from .milp import milp_makespan
from . import opt_general, opt_two

__all__ = [
    "OrderSearchResult",
    "branch_and_bound_order",
    "enumerate_order_optimum",
    "exact_order_makespan",
    "order_invariant_lower_bound",
    "order_space_size",
    "identity_order",
]

#: Per-order exact oracles selectable by name ("auto" dispatches on m).
_ORACLES = ("auto", "opt-two", "opt-general", "brute-force", "milp")


def identity_order(instance: Instance) -> tuple[tuple[int, ...], ...]:
    """The identity permutation rows for *instance* (the as-built order)."""
    return tuple(tuple(range(instance.num_jobs(i))) for i in range(instance.m))


def order_space_size(instance: Instance) -> int:
    """``prod_i n_i!`` -- the number of distinct order assignments.

    Counts ordered leaves without symmetry reduction: every per-queue
    permutation, including those that coincide because jobs are equal.
    """
    size = 1
    for queue in instance.queues:
        size *= factorial(len(queue))
    return size


def order_invariant_lower_bound(instance: Instance) -> int:
    """The strongest order-invariant makespan lower bound we know.

    Combines :meth:`Instance.makespan_lower_bound` (Observation 1's
    work bound plus release refinements) with the per-processor bound
    ``release_i + sum_j ceil(p_ij)``: a processor runs at most one job
    per step, so even at full speed its queue needs that many steps.
    Both parts are invariant under reordering any queue, which is what
    makes this a valid root bound for the order search.
    """
    bound = instance.makespan_lower_bound()
    for i, queue in enumerate(instance.queues):
        steps = sum(job.steps_at_full_speed() for job in queue)
        bound = max(bound, instance.release(i) + steps)
    return bound


def exact_order_makespan(instance: Instance, *, oracle: str = "auto") -> int:
    """Exact optimal makespan of *instance* under its fixed queue order.

    The per-order oracle dispatch shared by the order search and the
    certification layer: ``"auto"`` picks the cheapest exact algorithm
    for the shape (single queue: each unit job completes in one full
    step, so the optimum is the job count; ``m == 2``: the Theorem 5
    dynamic program; otherwise the Theorem 6 configuration search).
    Those oracles compute on the instance's integer grid and skip the
    :class:`~repro.core.schedule.Schedule` artifact; each value is still
    checked against its witness rows, replayed on the grid.

    Raises:
        SolverError: for an unknown *oracle* name, or ``oracle="opt-two"``
            on an instance with ``m != 2``.
        InvalidInstanceError / UnitSizeRequiredError: outside the exact
            algorithms' model (multi-resource, arrivals, non-unit).
    """
    if oracle not in _ORACLES:
        raise SolverError(
            f"unknown order oracle {oracle!r}; available: {list(_ORACLES)}"
        )
    instance.require_single_resource("exact_order_makespan")
    instance.require_unit_size("exact_order_makespan")
    instance.require_static("exact_order_makespan")
    if oracle == "auto":
        return _grid_order_makespan(*instance.to_integer_grid())
    if oracle == "opt-two":
        if instance.m != 2:
            raise SolverError(
                f"oracle 'opt-two' is the m=2 dynamic program; instance "
                f"has m={instance.m}"
            )
        return opt_two.grid_makespan(*instance.to_integer_grid())
    if oracle == "opt-general":
        return opt_general.grid_makespan(*instance.to_integer_grid())
    if oracle == "brute-force":
        return brute_force_makespan(instance)
    return milp_makespan(instance)


def _grid_order_makespan(units: list[list[int]], cap: int) -> int:
    """The ``"auto"`` oracle on grid queues *units* (capacity *cap*)."""
    if len(units) == 1:
        # One queue: the whole resource serves the current job, so
        # every unit job (r <= 1) finishes in exactly one step.
        return len(units[0])
    if len(units) == 2:
        return opt_two.grid_makespan(units, cap)
    return opt_general.grid_makespan(units, cap)


@dataclass(slots=True)
class OrderSearchResult:
    """Outcome of one order search (branch-and-bound or enumeration).

    Attributes:
        value: best objective value found (the certified optimum when
            ``proved``).
        order: per-queue index permutations achieving ``value``
            (``instance.with_order(order)`` reproduces the witness).
        proved: True iff the search closed every branch -- ``value``
            is then the exact minimum over all queue orders.
        nodes: branch-and-bound nodes expanded (0 when the incumbent
            already matched the global lower bound, or for plain
            enumeration).
        bound_calls: prefix-oracle lower-bound evaluations (cache
            misses; with a plugged-in evaluator also on whole orders).
        leaf_evaluations: complete orders evaluated (cache misses).
        pruned: subtrees cut by the bound test (with a plugged-in
            evaluator also whole orders skipped by theirs).
        lower_bound: the order-invariant global lower bound used.
        order_space: ``prod_i n_i!``, the unreduced leaf count.
    """

    value: int
    order: tuple[tuple[int, ...], ...]
    proved: bool
    nodes: int = 0
    bound_calls: int = 0
    leaf_evaluations: int = 0
    pruned: int = 0
    lower_bound: int = 0
    order_space: int = 1


def _class_ids(instance: Instance) -> list[list[int]]:
    """Per queue, each job's dense job-class id.

    Read off the job table's row keys, which are equal exactly when the
    ``Job`` s are, so two jobs share an id exactly when they are equal
    as value objects.
    """
    table = instance.job_table()
    classes: dict[tuple, int] = {}
    return table.queues([classes.setdefault(row, len(classes)) for row in table.rows()])


def _value_key(ids: list[list[int]], orders) -> tuple:
    """Hashable job-value key of a (partial) order assignment.

    *ids* are the instance's :func:`_class_ids`.  Two partial orders
    that place *equal* jobs in the same positions get the same key:
    their completions are value-identical, so bounds and leaf
    evaluations may be shared (and duplicate subtrees skipped).
    """
    return tuple(
        tuple(map(row_ids.__getitem__, row)) for row_ids, row in zip(ids, orders)
    )


def _seed_orders(instance: Instance) -> list[tuple[tuple[int, ...], ...]]:
    """Candidate full orders that seed the incumbent.

    The as-built identity order plus the static dispatch orders of the
    sequencing layer (SPT / LPT / requirement-descending), expressed as
    index permutations.  A good incumbent is what makes the bound test
    bite early; when one of these already meets the global lower
    bound, the search proves optimality without expanding a node.
    The sort keys are the job table's integer ``works`` / ``rstar``
    columns, each over one denominator, so they order as the jobs'
    ``Fraction`` works and requirements do.
    """
    table = instance.job_table()
    works = table.queues(table.works)
    rstar = table.queues(table.rstar)
    spt = works
    lpt = [[-w for w in queue] for queue in works]
    req_desc = [
        [(-r, -w) for r, w in zip(rs, ws)] for rs, ws in zip(rstar, works)
    ]
    seeds = [identity_order(instance)]
    for keys in (spt, lpt, req_desc):
        seeds.append(
            tuple(tuple(sorted(range(len(row)), key=row.__getitem__)) for row in keys)
        )
    return seeds


def branch_and_bound_order(
    instance: Instance,
    *,
    evaluator: Callable[[Instance], int] | None = None,
    oracle: str = "auto",
    lower_bound_fn: Callable[[Instance], int] | None = None,
    prefix_bounds: bool = True,
    max_nodes: int = 100_000,
) -> OrderSearchResult:
    """Best-first branch-and-bound over all queue orders of *instance*.

    With a caller-supplied *evaluator* and the prefix bounds on, a
    complete order is bounded before it is evaluated: its fixed-order
    optimum (the prefix bound of the whole order) is a lower bound on
    the evaluator's value, so an order whose bound already meets the
    incumbent is skipped without a run.  The seed orders after the
    first are bounded the same way, and seeding stops once the
    incumbent meets the global lower bound.  None of this changes the
    value, order, proof or node count; it only saves evaluations.
    Without an evaluator the leaf value *is* the oracle, and leaves
    are evaluated directly.

    The counters:

    * ``leaf_evaluations`` -- complete orders handed to the evaluator
      (cache misses): the oracle's calls by default, the policy runs
      when a policy evaluates them;
    * ``bound_calls`` -- prefix-oracle calls (cache misses), including
      the complete orders bounded for a plugged-in evaluator;
    * ``pruned`` -- subtrees cut by the bound test, plus, for a
      plugged-in evaluator, the complete orders (seeds included)
      skipped by theirs.

    Args:
        instance: the instance whose per-queue orders are optimized.
        evaluator: complete-order objective, ``Instance -> value``
            (default: :func:`exact_order_makespan` with *oracle*).  Any
            evaluator whose value is bounded below by the fixed-order
            optimum is sound (policies through backends qualify).
        oracle: per-order exact oracle for the default evaluator and
            the prefix bounds.
        lower_bound_fn: order-invariant global lower bound
            (default :func:`order_invariant_lower_bound`).
        prefix_bounds: also bound nodes by the exact optimum of the
            committed prefix sub-instance (skipped automatically when
            the exact oracles do not apply: multi-resource instances,
            arrivals, non-unit sizes).
        max_nodes: node-expansion budget; exceeding it returns the
            incumbent with ``proved=False``.

    Returns:
        :class:`OrderSearchResult`; ``result.proved`` distinguishes a
        certificate from a mere upper bound.
    """
    m = instance.num_processors
    n_jobs = [instance.num_jobs(i) for i in range(m)]
    total = sum(n_jobs)
    # Every leaf is a with_order copy: it gathers this one job table.
    ids = _class_ids(instance)
    use_prefix = prefix_bounds and _oracle_applies(instance)
    # Decided before the default evaluator is filled in: that one is
    # the oracle itself, so bounding its leaves would only repeat it.
    bound_leaves = evaluator is not None and use_prefix
    if evaluator is None:
        evaluator = lambda inst: exact_order_makespan(inst, oracle=oracle)  # noqa: E731
    if lower_bound_fn is None:
        lower_bound_fn = order_invariant_lower_bound
    global_lb = lower_bound_fn(instance)
    if use_prefix:
        # Every prefix is a slice of the root's grid, and the root's
        # model checks cover it.
        units, cap = instance.to_integer_grid()

    nodes = 0
    bound_calls = 0
    pruned = 0
    leaf_cache: dict[tuple, int] = {}
    leaf_evaluations = 0
    prefix_optima: dict[tuple, int] = {}
    best_value: int | None = None
    best_order: tuple[tuple[int, ...], ...] = identity_order(instance)

    def prefix_bound(orders, key) -> int:
        """Exact optimum of the committed prefix (a sound lower bound)."""
        nonlocal bound_calls
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

    def evaluate(orders, key) -> int | None:
        """The leaf value of *orders*; None if its bound meets the incumbent."""
        nonlocal leaf_evaluations, pruned
        if key in leaf_cache:
            return leaf_cache[key]
        if (
            bound_leaves
            and best_value is not None
            and prefix_bound(orders, key) >= best_value
        ):
            pruned += 1
            return None
        value = evaluator(instance.with_order(list(map(list, orders))))
        leaf_cache[key] = value
        leaf_evaluations += 1
        return value

    # Seed the incumbent with the as-built and static dispatch orders.
    for seed in _seed_orders(instance):
        if bound_leaves and best_value is not None and best_value <= global_lb:
            break
        value = evaluate(seed, _value_key(ids, seed))
        if value is not None and (best_value is None or value < best_value):
            best_value, best_order = value, seed
    assert best_value is not None

    space = order_space_size(instance)
    if best_value <= global_lb:
        # The incumbent meets the order-invariant bound: optimal with
        # zero expansions.
        return OrderSearchResult(
            value=best_value,
            order=best_order,
            proved=True,
            nodes=0,
            bound_calls=bound_calls,
            leaf_evaluations=leaf_evaluations,
            pruned=pruned,
            lower_bound=global_lb,
            order_space=space,
        )

    # Nodes: (bound, -committed count, insertion counter, orders, value
    # key).  The heap is ordered by bound, then by depth (deeper first
    # -- reach leaves and tighten the incumbent early), then insertion
    # order.
    counter = 0
    root = tuple(() for _ in range(m))
    heap: list[tuple[int, int, int, tuple, tuple]] = [(global_lb, 0, 0, root, root)]
    proved = True
    expanded_values: set[tuple] = set()

    while heap:
        bound, depth, _, orders, vkey = heapq.heappop(heap)
        committed = -depth
        if best_value is not None and bound >= best_value:
            # Best-first: every unexplored node has bound >= this one,
            # so nothing left can strictly beat the incumbent.
            pruned += len(heap) + 1
            break
        if nodes >= max_nodes:
            proved = False
            break
        # Collapse value-identical prefixes (equal jobs, different
        # indices) that distinct branches can still produce.
        if vkey in expanded_values:
            continue
        expanded_values.add(vkey)
        nodes += 1
        # The active queue: first one with an uncommitted position.
        active = next(i for i in range(m) if len(orders[i]) < n_jobs[i])
        row_ids = ids[active]
        used = set(orders[active])
        seen_jobs: set[int] = set()
        for j in range(n_jobs[active]):
            if j in used or row_ids[j] in seen_jobs:
                continue  # placed already, or an equal job placed here
            seen_jobs.add(row_ids[j])
            child = (
                orders[:active] + (orders[active] + (j,),) + orders[active + 1 :]
            )
            ckey = vkey[:active] + (vkey[active] + (row_ids[j],),) + vkey[active + 1 :]
            if committed + 1 == total:
                value = evaluate(child, ckey)
                if value is not None and value < best_value:
                    best_value, best_order = value, child
                continue
            child_bound = bound
            if use_prefix and committed + 1 >= 2:
                child_bound = max(child_bound, prefix_bound(child, ckey))
            if child_bound >= best_value:
                pruned += 1
                continue
            counter += 1
            heapq.heappush(
                heap, (child_bound, -(committed + 1), counter, child, ckey)
            )

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


def _oracle_applies(instance: Instance) -> bool:
    """True iff the per-order exact oracles accept *instance*."""
    return (
        instance.is_single_resource
        and instance.is_unit_size
        and not instance.has_releases
    )


def enumerate_order_optimum(
    instance: Instance,
    *,
    evaluator: Callable[[Instance], int] | None = None,
    oracle: str = "auto",
    max_orders: int = 200_000,
) -> OrderSearchResult:
    """Exhaustive minimum over *all* ``with_order`` permutations.

    The independent cross-check for :func:`branch_and_bound_order`:
    no bounds, no symmetry reduction -- every element of the order
    space is enumerated (value-identical duplicates are served from a
    memo, but still counted).  Exponential; guarded by *max_orders*.

    Raises:
        SolverError: if the order space exceeds *max_orders*.
    """
    if evaluator is None:
        evaluator = lambda inst: exact_order_makespan(inst, oracle=oracle)  # noqa: E731
    space = order_space_size(instance)
    if space > max_orders:
        raise SolverError(
            f"order space has {space} permutations, more than the "
            f"max_orders={max_orders} guard; use branch_and_bound_order"
        )
    cache: dict[tuple, int] = {}
    leaf_evaluations = 0
    best_value: int | None = None
    best_order = identity_order(instance)
    ids = _class_ids(instance)  # its table is gathered by every leaf
    per_queue = [
        list(permutations(range(instance.num_jobs(i))))
        for i in range(instance.num_processors)
    ]
    for orders in product(*per_queue):
        key = _value_key(ids, orders)
        if key in cache:
            value = cache[key]
        else:
            value = evaluator(instance.with_order(list(map(list, orders))))
            cache[key] = value
            leaf_evaluations += 1
        if best_value is None or value < best_value:
            best_value, best_order = value, orders
    assert best_value is not None
    return OrderSearchResult(
        value=best_value,
        order=tuple(best_order),
        proved=True,
        nodes=0,
        bound_calls=0,
        leaf_evaluations=leaf_evaluations,
        pruned=0,
        lower_bound=order_invariant_lower_bound(instance),
        order_space=space,
    )
