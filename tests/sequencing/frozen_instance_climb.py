"""Frozen copy of the ``Instance``-keyed batched climb (test oracle only).

:class:`~repro.sequencing.LocalSearchSequencer` used to hold every
batched candidate as an :class:`~repro.core.instance.Instance` built
from ``Job`` lists: moves acted on job lists, the evaluation cache was
keyed by instances, and each batch went to ``run_batch`` as a list of
instances.  The library now searches on row ids over one job bag; this
module keeps the old climb verbatim (batched path only, telemetry
dropped) so the differential tests can hold the id climb to the orders
and statistics it produced.
"""

import random

from repro.backends import get_backend, run_batch
from repro.core.simulator import default_step_limit
from repro.objectives import get_objective

_RESTART_SEED_OFFSET = 0x51ED2700
_MISSING = object()


class FrozenInstanceClimb:
    """The batched local search with ``Instance`` candidates."""

    def __init__(
        self, *, policy, objective, budget=200, restarts=2, seed=0, batch_lanes=8
    ):
        from repro.algorithms import resolve_policy

        assert batch_lanes > 1
        self.policy = resolve_policy(policy)
        self.backend = get_backend("vector")
        self.objective = get_objective(objective)
        self.budget, self.restarts, self.seed = budget, restarts, seed
        self.batch_lanes = batch_lanes
        self.max_steps = None
        self.last_stats = {}

    def evaluate(self, instance):
        result = self.backend.run(
            instance,
            self.policy,
            record_shares=False,
            max_steps=self.max_steps,
            objectives=(self.objective,),
        )
        return result.objective_values[self.objective.name]

    def _evaluate_cached(self, instance):
        value = self._cache.get(instance, _MISSING)
        if value is not _MISSING:
            self._counts["cache_hits"] += 1
            return value
        value = self.evaluate(instance)
        self._counts["kernel_runs"] += 1
        self._cache[instance] = value
        return value

    def _evaluate_many(self, candidates):
        values = [None] * len(candidates)
        fresh = {}
        for idx, inst in enumerate(candidates):
            hit = self._cache.get(inst, _MISSING)
            if hit is not _MISSING:
                self._counts["cache_hits"] += 1
                values[idx] = hit
            else:
                slots = fresh.setdefault(inst, [])
                if slots:
                    self._counts["cache_hits"] += 1
                slots.append(idx)
        if fresh:
            insts = list(fresh)
            if self._step_limit is None:
                self._step_limit = default_step_limit(insts[0])
            result = run_batch(
                insts,
                self.policy,
                objectives=(self.objective,),
                tol=self.backend.tol,
                max_steps=self._step_limit,
            )
            results = result.objective_values[self.objective.name]
            self._counts["kernel_runs"] += len(insts)
            for inst, value in zip(insts, results):
                self._cache[inst] = value
                for idx in fresh[inst]:
                    values[idx] = value
        return values

    @staticmethod
    def _swap(queues, rng):
        pos = [(i, j) for i, q in enumerate(queues) for j in range(len(q))]
        if len(pos) < 2:
            return False
        (i1, j1), (i2, j2) = rng.sample(pos, 2)
        if queues[i1][j1] == queues[i2][j2]:
            return False
        queues[i1][j1], queues[i2][j2] = queues[i2][j2], queues[i1][j1]
        return True

    @staticmethod
    def _insert(queues, rng):
        donors = [i for i, q in enumerate(queues) if len(q) > 1]
        if not donors:
            return False
        i1 = rng.choice(donors)
        j1 = rng.randrange(len(queues[i1]))
        job = queues[i1].pop(j1)
        i2 = rng.randrange(len(queues))
        j2 = rng.randrange(len(queues[i2]) + 1)
        queues[i2].insert(j2, job)
        return (i1, j1) != (i2, j2)

    def sequence(self, instance):
        self._cache = {}
        self._step_limit = None
        c = self._counts = dict.fromkeys(
            ("evaluations", "accepted", "rejected", "perturbations",
             "cache_hits", "kernel_runs"),
            0,
        )
        best_queues = [list(q) for q in instance.queues]
        best_value = self._evaluate_cached(instance)
        c["evaluations"] += 1
        initial_value = best_value
        for r in range(self.restarts):
            rng = random.Random(self.seed + r * _RESTART_SEED_OFFSET)
            current = [list(q) for q in best_queues]
            current_value = best_value
            spent = 0
            if r > 0:
                for _ in range(len(instance.queues)):
                    self._swap(current, rng)
                candidate = instance.with_queues(current)
                current_value = self._evaluate_cached(candidate)
                c["evaluations"] += 1
                spent += 1
                c["perturbations"] += 1
                if current_value < best_value:
                    best_queues = [list(q) for q in current]
                    best_value = current_value
            best_queues, best_value = self._climb_batched(
                instance, rng, current, current_value,
                best_queues, best_value, spent,
            )
        improved = best_value < initial_value
        result = instance.with_queues(best_queues) if improved else instance
        self.last_stats = {
            "evaluations": c["evaluations"],
            "initial": initial_value,
            "best": best_value,
            "improved": improved,
            "accepted": c["accepted"],
            "rejected": c["rejected"],
            "perturbations": c["perturbations"],
            "cache_hits": c["cache_hits"],
            "kernel_runs": c["kernel_runs"],
            "batch_lanes": self.batch_lanes,
        }
        return result

    def _climb_batched(
        self, instance, rng, current, current_value,
        best_queues, best_value, spent,
    ):
        c = self._counts
        misdraws = 0
        while spent < self.budget:
            lanes = min(self.batch_lanes, self.budget - spent)
            trials = []
            while len(trials) < lanes:
                trial = [list(q) for q in current]
                move = rng.choice((self._swap, self._insert))
                if not move(trial, rng):
                    misdraws += 1
                    if misdraws >= 32:
                        break
                    continue
                misdraws = 0
                trials.append(trial)
            if not trials:
                break
            candidates = [instance.with_queues(t) for t in trials]
            values = self._evaluate_many(candidates)
            c["evaluations"] += len(candidates)
            spent += len(candidates)
            best_i = min(range(len(values)), key=values.__getitem__)
            if values[best_i] < current_value:
                c["accepted"] += 1
                c["rejected"] += len(candidates) - 1
                current = trials[best_i]
                current_value = values[best_i]
                if current_value < best_value:
                    best_queues = [list(q) for q in trials[best_i]]
                    best_value = current_value
            else:
                c["rejected"] += len(candidates)
            if misdraws >= 32:
                break
        return best_queues, best_value
