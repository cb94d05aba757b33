"""Objective-driven local search over queue orders and placements.

Theorem 4 proves that choosing the best queue order is NP-hard, so the
sequencing layer's strongest strategy is a heuristic *improver*: start
from the instance's current order, repeatedly propose small
neighborhood moves -- pairwise swaps of two job positions and
insertion moves that relocate one job to another position (both may
cross queues) -- and keep a move iff it strictly improves the
evaluation objective.

Evaluation runs the full policy simulation through any registered
backend and objective: by default the vectorized float64 backend with
the makespan objective, because the evaluation loop is the hot path
(``benchmarks/bench_sequencing.py`` gates that the vector evaluation
loop stays well ahead of exact ``Fraction`` re-evaluation; the final
accepted order can always be re-audited exactly).

Candidates are row ids, not instances: one
:class:`~repro.backends.vector.JobBag` per search gives each distinct
job an id, moves permute per-queue id lists, the evaluation cache is
keyed by id tuples, and a batch of neighbors reaches the batched
engine as one :class:`~repro.backends.vector.BagSelection`.  Equal jobs
share an id, so every move, cache hit and acceptance is the one the
``Instance`` form would make; an ``Instance`` is built only for a
single-lane evaluation (sequential and non-vector searches, or a batch
with one missed order) and for the returned order.

Determinism: the search is seeded, and *restarts* draw from
decorrelated seed streams (``seed + r * offset``), mirroring the
campaign generators' stream discipline -- each restart perturbs the
incumbent with a burst of random swaps and climbs again, so one
unlucky neighborhood does not pin the search.
"""

from __future__ import annotations

import copy
import random
from itertools import chain
from time import perf_counter

from ..backends.vector import JobBag

# Unused here; they stay module attributes because
# ``perfbench/tracing.py`` patches both names on this module.
from ..core.checkpoint import checkpoint_run  # noqa: F401
from ..core.instance import Instance
from ..core.kernel import run_kernel  # noqa: F401
from ..exceptions import SequencingError
from .base import Sequencer, register_sequencer

__all__ = ["LocalSearchSequencer"]

#: Decorrelates the per-restart seed streams (same constant family as
#: the campaign generators' arrival/resource/weight offsets).
_RESTART_SEED_OFFSET = 0x51ED2700

#: Cache-miss sentinel (objective values may legitimately be 0).
_MISSING = object()


@register_sequencer
class LocalSearchSequencer(Sequencer):
    """Budgeted hill-climbing over swap + insertion moves.

    Args:
        policy: policy evaluated on every candidate order (registry
            name or object; the name is resolved once, up front).
            ``None`` (the default) leaves the choice *unpinned*: entry
            points that thread the sequencer through a concrete run
            (``run_policy(..., sequencer=...)``, ``cross_validate``,
            the batch workers) align it with the policy that actually
            executes via :meth:`bind`; standalone use falls back to
            ``"greedy-balance"``.
        backend: backend running the evaluations (registry name;
            ``"vector"`` keeps the hot loop in float64).
        objective: objective being minimized (registry name or object;
            ``None`` is unpinned like *policy*, falling back to
            ``"makespan"``, the paper's objective).
        budget: candidate evaluations per restart (a restart's
            perturbed order counts against its own budget; the initial
            order's evaluation is charged to none).
            Budget left over when a restart exhausts its neighborhood
            early is *not* carried into later restarts.
        restarts: independent climbing passes; restart ``r`` draws its
            moves from the decorrelated stream ``seed + r * offset``
            and starts from a perturbed copy of the incumbent.
        seed: base seed of the move streams.
        max_steps: per-evaluation safety limit forwarded to the
            backend (``None`` = the backend's default).
        batch_lanes: neighbors drawn and evaluated per iteration.
            The default ``1`` is the classic sequential hill-climb
            (evaluate one neighbor, accept if strictly better); with
            more lanes the best strictly-improving candidate of the
            batch wins -- a different, equally deterministic
            trajectory with an order-of-magnitude higher evals/s
            (``benchmarks/bench_batched_evals.py`` gates the factor).
            Every evaluation takes one path, whatever the lane count:
            a single missed order runs on the single-lane backend,
            several in one :func:`~repro.backends.batched.run_batch`
            call (vector backend; other backends evaluate them one by
            one).  A climb's starting order (the initial order, or a
            restart's perturbed one) rides its first batch as one more
            lane when that batch holds two or more neighbors.

    Attributes:
        last_stats: after each :meth:`sequence` call, a dict with the
            number of ``evaluations``, the ``initial`` and ``best``
            objective values, ``improved`` (their strict comparison),
            the move outcome counts (``accepted`` / ``rejected``
            neighborhood candidates, plus ``perturbations`` --
            restarts' perturbed orders, charged to neither; each is
            evaluated with its climb's first batch), the
            memoization figures (``cache_hits`` -- evaluations served
            from the per-call canonical-order cache or by a duplicate
            in the same batch -- and ``kernel_runs``, the orders
            actually simulated; the two sum to ``evaluations``), the
            configured ``batch_lanes``, and the search throughput
            (``seconds`` wall time, ``evals_per_second``) -- the ORDER
            experiment and the benchmarks read these instead of
            re-deriving them.

    Example:
        >>> from repro.core import Instance
        >>> from repro.sequencing import get_sequencer
        >>> seq = get_sequencer("local-search", budget=40, seed=0)
        >>> inst = Instance.from_percent([[80, 20, 60], [40, 90, 10]])
        >>> better = seq.sequence(inst)
        >>> inst.same_bag(better)
        True
        >>> seq.last_stats["best"] <= seq.last_stats["initial"]
        True
    """

    name = "local-search"

    def __init__(
        self,
        *,
        policy=None,
        backend: str = "vector",
        objective=None,
        budget: int = 200,
        restarts: int = 2,
        seed: int = 0,
        max_steps: int | None = None,
        batch_lanes: int = 1,
    ) -> None:
        from ..algorithms import resolve_policy  # local: avoid import cycle
        from ..backends import get_backend
        from ..objectives import get_objective

        if budget < 1:
            raise SequencingError(f"budget must be >= 1, got {budget}")
        if restarts < 1:
            raise SequencingError(f"restarts must be >= 1, got {restarts}")
        if batch_lanes < 1:
            raise SequencingError(
                f"batch_lanes must be >= 1, got {batch_lanes}"
            )
        # None = unpinned (bind may align it with the run); remember
        # which options were explicit so bind never overrides those.
        self._policy_pinned = policy is not None
        self._objective_pinned = objective is not None
        self.policy = resolve_policy(
            policy if policy is not None else "greedy-balance"
        )
        self.backend = get_backend(backend)
        if objective is None:
            objective = "makespan"
        self.objective = (
            get_objective(objective) if isinstance(objective, str) else objective
        )
        self.budget = int(budget)
        self.restarts = int(restarts)
        self.seed = int(seed)
        self.max_steps = max_steps
        self.batch_lanes = int(batch_lanes)
        self.last_stats: dict[str, object] = {}
        # Per-sequence() evaluation cache (keyed by row-id orders over
        # the call's job bag) and counters, reset each call.
        self._cache: dict[tuple, object] = {}
        self._counts: dict[str, int] = {}
        self._step_limit: int | None = None
        # The call's job bag, instance and starting order (row ids).
        self._bag: JobBag | None = None
        self._base: Instance | None = None
        self._start: tuple = ()

    def bind(self, *, policy=None, objective=None) -> "LocalSearchSequencer":
        """Adopt the run's policy/objective for any unpinned option.

        Options given explicitly at construction always win; a bare
        ``get_sequencer("local-search")`` threaded through
        ``run_policy(inst, "round-robin", sequencer=...)`` evaluates
        its candidates under round-robin, not under the standalone
        fallback.  Returns a *bound copy* when anything is adopted
        (``self`` otherwise), so the caller's object keeps its
        unpinned standalone behavior.
        """
        from ..algorithms import resolve_policy  # local: avoid import cycle
        from ..objectives import get_objective

        adopt_policy = policy is not None and not self._policy_pinned
        adopt_objective = objective is not None and not self._objective_pinned
        if not (adopt_policy or adopt_objective):
            return self
        bound = copy.copy(self)
        bound.last_stats = {}
        if adopt_policy:
            bound.policy = resolve_policy(policy)
            bound._policy_pinned = True
        if adopt_objective:
            bound.objective = (
                get_objective(objective)
                if isinstance(objective, str)
                else objective
            )
            bound._objective_pinned = True
        return bound

    # ------------------------------------------------------------------
    # Evaluation (the hot path)
    # ------------------------------------------------------------------
    def evaluate(self, instance: Instance):
        """Objective value of running the policy on one candidate order."""
        result = self.backend.run(
            instance,
            self.policy,
            record_shares=False,
            max_steps=self.max_steps,
            objectives=(self.objective,),
        )
        return result.objective_values[self.objective.name]

    def _instance(self, key) -> Instance:
        """The order *key* (per-queue row ids) as an instance."""
        if key == self._start:
            return self._base
        jobs = self._bag.jobs
        return self._base.with_queues([[jobs[r] for r in q] for q in key])

    def _evaluate_many(self, keys: list[tuple]) -> list:
        """Evaluate orders (row-id keys), cache-aware and deduplicated.

        The one evaluation path of the search: every climb batch and
        each climb's starting order (the initial order, or a restart's
        perturbed one) come through here.  Keys are per-queue row-id
        tuples over the call's :class:`~repro.backends.vector.JobBag`;
        equal jobs share an id, so keys compare exactly as instances
        do, and restarts, revisited neighbors and duplicates within a
        batch hit the cache instead of re-running the kernel.  The
        cache lives for one :meth:`sequence` call.
        """
        values: list = [None] * len(keys)
        fresh: dict[tuple, list[int]] = {}
        for idx, key in enumerate(keys):
            hit = self._cache.get(key, _MISSING)
            if hit is not _MISSING:
                self._counts["cache_hits"] += 1
                values[idx] = hit
            else:
                slots = fresh.setdefault(key, [])
                if slots:  # duplicate within this batch: one run serves both
                    self._counts["cache_hits"] += 1
                slots.append(idx)
        if fresh:
            misses = list(fresh)
            results = self._run_fresh(misses)
            self._counts["kernel_runs"] += len(misses)
            for key, value in zip(misses, results):
                self._cache[key] = value
                for idx in fresh[key]:
                    values[idx] = value
        return values

    def _run_fresh(self, keys: list[tuple]) -> list:
        """Kernel-evaluate uncached orders.

        Two or more run as one :func:`~repro.backends.batched.run_batch`
        call over a :class:`~repro.backends.vector.BagSelection` of
        their ids when the backend is the vector engine; other backends
        evaluate them one by one (same values, no batching).  One order
        runs on the single-lane backend (:meth:`evaluate`), faster than
        the batched engine at one lane: sequential climbs, and batches
        that leave one order uncached.
        """
        policy = self.policy
        if (
            len(keys) > 1
            and getattr(self.backend, "name", None) == "vector"
            and getattr(policy, "supports_vector", False)
        ):
            from ..backends.batched import run_batch  # local: builds on core
            from ..core.simulator import default_step_limit

            max_steps = self.max_steps
            if max_steps is None:
                # The default limit depends only on the bag and the
                # releases, which no move changes: one per search.
                if self._step_limit is None:
                    self._step_limit = default_step_limit(self._base)
                max_steps = self._step_limit
            result = run_batch(
                self._bag.select(keys, [self._base.releases] * len(keys)),
                policy,
                objectives=(self.objective,),
                tol=getattr(self.backend, "tol", 1e-9),
                max_steps=max_steps,
            )
            return result.objective_values[self.objective.name]
        return [self.evaluate(self._instance(key)) for key in keys]

    # ------------------------------------------------------------------
    # Neighborhood moves on a list of per-queue row-id tuples, mutated
    # in place: a move replaces only the tuples it touches, so a trial
    # copies one list of references.  Moves return False when the
    # drawn move is a no-op so the caller can redraw.
    # ------------------------------------------------------------------
    @staticmethod
    def _swap(queues: list[tuple[int, ...]], rng: random.Random) -> bool:
        """Swap the jobs at two distinct positions (possibly cross-queue).

        Draws them as flat indices: the draw ``rng.sample`` makes from
        the list of every ``(queue, position)`` pair.
        """
        total = sum(map(len, queues))
        if total < 2:
            return False
        (i1, j1), (i2, j2) = (_locate(queues, at) for at in rng.sample(range(total), 2))
        a, b = queues[i1][j1], queues[i2][j2]
        if a == b:
            return False  # identical jobs: the order is unchanged
        for i, j, job in ((i1, j1, b), (i2, j2, a)):
            q = queues[i]
            queues[i] = q[:j] + (job,) + q[j + 1 :]
        return True

    @staticmethod
    def _insert(queues: list[tuple[int, ...]], rng: random.Random) -> bool:
        """Relocate one job to another position (never emptying a queue)."""
        donors = [i for i, q in enumerate(queues) if len(q) > 1]
        if not donors:
            return False
        i1 = rng.choice(donors)
        q = queues[i1]
        j1 = rng.randrange(len(q))
        job = q[j1]
        queues[i1] = q[:j1] + q[j1 + 1 :]
        i2 = rng.randrange(len(queues))
        q = queues[i2]
        j2 = rng.randrange(len(q) + 1)
        queues[i2] = q[:j2] + (job,) + q[j2:]
        return (i1, j1) != (i2, j2)

    # ------------------------------------------------------------------
    # The search
    # ------------------------------------------------------------------
    def sequence(self, instance: Instance) -> Instance:
        """Improve *instance*'s queue orders under the evaluation triple.

        Under an installed telemetry session the search is wrapped in
        a ``sequencer.search`` span carrying the final
        :attr:`last_stats` figures; the stats themselves are always
        collected (two clock reads and a few counters per search).
        """
        from ..telemetry import get_session  # local: builds on core

        t0 = perf_counter()
        self._cache = {}
        self._bag = bag = JobBag()
        self._base = instance
        self._step_limit = None
        c = self._counts = {
            "evaluations": 0,
            "accepted": 0,
            "rejected": 0,
            "perturbations": 0,
            "cache_hits": 0,
            "kernel_runs": 0,
        }
        # Orders are keys: per-queue row-id tuples.
        best = start = self._start = bag.add(instance)
        best_value = None  # the first climb evaluates the initial order
        for r in range(self.restarts):
            rng = random.Random(self.seed + r * _RESTART_SEED_OFFSET)
            current = best
            spent = 0  # this restart's evaluations; never carried over
            if r > 0:
                # Perturb the incumbent so this restart explores a
                # different basin; the climb evaluates the perturbed
                # order like any other candidate.
                perturbed = list(best)
                for _ in range(len(instance.queues)):
                    self._swap(perturbed, rng)
                current = tuple(perturbed)
                spent += 1
                c["perturbations"] += 1
            best, best_value = self._climb(rng, current, best, best_value, spent)
        # Every evaluated order is cached, the initial one included.
        initial_value = self._cache[start]
        improved = best_value < initial_value
        if sorted(chain(*best)) != sorted(chain(*start)):  # pragma: no cover
            raise SequencingError(
                "local search corrupted the job bag (internal error)"
            )
        result = self._instance(best) if improved else instance
        # Orders die with the call; keep no references.
        self._cache = {}
        self._bag = self._base = None
        seconds = perf_counter() - t0
        evaluations = c["evaluations"]
        self.last_stats = {
            "evaluations": evaluations,
            "initial": initial_value,
            "best": best_value,
            "improved": improved,
            "accepted": c["accepted"],
            "rejected": c["rejected"],
            "perturbations": c["perturbations"],
            "cache_hits": c["cache_hits"],
            "kernel_runs": c["kernel_runs"],
            "batch_lanes": self.batch_lanes,
            "seconds": seconds,
            "evals_per_second": evaluations / seconds if seconds > 0 else None,
        }
        session = get_session()
        if session is not None:
            counted = ("evaluations", "accepted", "rejected", "cache_hits")
            for key in counted:
                session.metrics.counter(f"sequencer.{key}").inc(c[key])
            session.tracer.complete(
                "sequencer.search",
                t0,
                seconds,
                sequencer=self.name,
                policy=str(getattr(self.policy, "name", "?")),
                objective=self.objective.name,
                budget=self.budget,
                restarts=self.restarts,
                kernel_runs=c["kernel_runs"],
                batch_lanes=self.batch_lanes,
                improved=improved,
                **{key: c[key] for key in counted},
            )
        return result

    def _climb(self, rng, current, best, best_value, spent):
        """One restart's hill-climb from the key *current*, not yet evaluated.

        Each iteration draws up to ``batch_lanes`` neighbors of the
        incumbent from the seeded move stream and moves to the best
        one iff it strictly improves the incumbent (first index wins
        ties, so the trajectory is deterministic).  One lane is the
        classic sequential climb.  Every batch, of any size, goes
        through :meth:`_evaluate_many`.  *current*'s own value is
        settled before the first batch's acceptance test: as one more
        lane of that batch when it holds two or more neighbors, alone
        otherwise (``best_value`` is ``None`` when *current* is the
        initial order).
        """
        c = self._counts
        current_value = None
        misdraws = 0
        while current_value is None or (spent < self.budget and misdraws < 32):
            lanes = min(self.batch_lanes, self.budget - spent)
            trials: list[tuple] = []
            while len(trials) < lanes:
                trial = list(current)
                move = rng.choice((self._swap, self._insert))
                if not move(trial, rng):
                    # Degenerate instances (one single-job queue) have
                    # no non-trivial neighborhood; stop redrawing after
                    # a burst of no-op moves instead of spinning.
                    misdraws += 1
                    if misdraws >= 32:
                        break
                    continue
                misdraws = 0
                trials.append(tuple(trial))
            if current_value is None:
                if len(trials) > 1:
                    current_value, *values = self._evaluate_many([current, *trials])
                else:
                    (current_value,) = self._evaluate_many([current])
                    values = self._evaluate_many(trials)
                c["evaluations"] += 1
                if best_value is None or current_value < best_value:
                    best, best_value = current, current_value
            else:
                values = self._evaluate_many(trials)
            if not trials:
                break
            c["evaluations"] += len(trials)
            spent += len(trials)
            best_i = min(range(len(values)), key=values.__getitem__)
            if values[best_i] < current_value:
                c["accepted"] += 1
                c["rejected"] += len(trials) - 1
                current = trials[best_i]
                current_value = values[best_i]
                if current_value < best_value:
                    best, best_value = current, current_value
            else:
                c["rejected"] += len(trials)
        return best, best_value


def _locate(queues: list[tuple[int, ...]], at: int) -> tuple[int, int]:
    """``(queue, position)`` of flat position *at* in the queues' concatenation."""
    for i, queue in enumerate(queues):
        if at < len(queue):
            return i, at
        at -= len(queue)
    raise IndexError(at)  # pragma: no cover - callers draw below the total
