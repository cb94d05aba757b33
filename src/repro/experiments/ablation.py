"""ABL: which ingredient of GreedyBalance earns the guarantee?

DESIGN.md calls out GreedyBalance's two priority ingredients -- the
*balance direction* (more remaining jobs first) and the *tie-break*
(larger remaining requirement first).  This ablation runs four variants
on the Theorem 8 adversarial family and on random instances:

* ``gb``           -- the paper's rule (balanced => (2-1/m)-guarantee);
* ``gb-small-tie`` -- balance kept, tie-break inverted (still balanced,
  so Theorem 7 still applies: the guarantee must survive);
* ``anti-balance`` -- balance inverted (fewest remaining jobs first):
  the Theorem 7 hypothesis is gone;
* ``no-balance``   -- no queue-length term at all (largest remaining
  requirement first).

Verdict checks the theory-backed expectations: both *balanced* variants
respect ``(2 - 1/m) * max(LB5, LB6+1, n)`` everywhere (Theorem 7 needs
balance, not the tie-break), while the unbalanced variants lose the
balancedness property itself -- the ingredient, not greediness, is
load-bearing."""

from __future__ import annotations

from fractions import Fraction

from ..algorithms.base import WaterFillPolicy
from ..algorithms.greedy_balance import GreedyBalance
from ..algorithms.heuristics import FewestRemainingJobsFirst, LargestRequirementFirst
from ..core.hypergraph import SchedulingGraph
from ..core.lower_bounds import theorem7_reference
from ..core.numerics import as_float
from ..core.properties import is_balanced
from ..generators.random_instances import uniform_instance
from ..generators.worst_case import greedy_balance_adversarial
from .runner import ExperimentResult

__all__ = ["run", "GreedyBalanceSmallTie"]


class GreedyBalanceSmallTie(WaterFillPolicy):
    """GreedyBalance with the tie-break inverted: among processors with
    equally many remaining jobs, serve the *smallest* remaining
    requirement first.  Still balanced (the queue-length priority is
    untouched), so Theorem 7 still applies."""

    name = "gb-small-tie"
    key = ("-jobs_remaining", "remaining")


def run(
    ms: tuple[int, ...] = (2, 3, 4),
    blocks: int = 6,
    seeds: tuple[int, ...] = (0, 1, 2, 3),
    n: int = 5,
) -> ExperimentResult:
    variants = [
        GreedyBalance(),
        GreedyBalanceSmallTie(),
        FewestRemainingJobsFirst(),  # anti-balance
        LargestRequirementFirst(),  # no balance term
    ]
    balanced_variants = {"greedy-balance", "gb-small-tie"}
    rows = []
    ok = True
    for m in ms:
        guarantee = 2 - Fraction(1, m)
        adversarial = greedy_balance_adversarial(m, blocks)
        for policy in variants:
            adv = policy.run(adversarial)
            balanced_everywhere = True
            worst = Fraction(0)
            bound_ok = True
            for seed in seeds:
                instance = uniform_instance(m, n, seed=seed)
                sched = policy.run(instance)
                balanced_everywhere = balanced_everywhere and is_balanced(sched)
                graph = SchedulingGraph(sched)
                reference = theorem7_reference(graph)
                ratio = Fraction(sched.makespan) / reference
                worst = max(worst, ratio)
                bound_ok = bound_ok and sched.makespan <= guarantee * reference
            rows.append(
                {
                    "m": m,
                    "policy": policy.name,
                    "adversarial_makespan": adv.makespan,
                    "always_balanced": balanced_everywhere,
                    "worst_ratio_vs_thm7_ref": round(as_float(worst), 4),
                    "guarantee": round(as_float(guarantee), 4),
                    "within_guarantee": bound_ok,
                }
            )
            if policy.name in balanced_variants:
                # Theorem 7 hinges on balance: both balanced variants
                # must be balanced everywhere and within the bound.
                ok = ok and balanced_everywhere and bound_ok
        # The unbalanced variants must actually lose balancedness on
        # the adversarial family (otherwise the ablation shows nothing).
        anti = [r for r in rows if r["m"] == m and r["policy"] not in balanced_variants]
        ok = ok and not all(r["always_balanced"] for r in anti)
    return ExperimentResult(
        experiment="ABL",
        title="GreedyBalance ablation: balance direction vs tie-break",
        paper_claim=(
            "Theorem 7 needs the balance property, not the tie-break: "
            "any balanced water-fill variant keeps the (2-1/m) bound"
        ),
        params={"ms": list(ms), "blocks": blocks, "seeds": list(seeds), "n": n},
        columns=[
            "m",
            "policy",
            "adversarial_makespan",
            "always_balanced",
            "worst_ratio_vs_thm7_ref",
            "guarantee",
            "within_guarantee",
        ],
        rows=rows,
        verdict=ok,
    )
