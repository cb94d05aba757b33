"""THM5: OptResAssignment is optimal for m=2 and runs in O(n^2).

Two parts:

* **optimality**: on random m=2 instances the DP's makespan equals the
  independent brute-force oracle's (and the PQ variant's);
* **scaling**: the DP's expanded cells over an ``n`` sweep fitted to
  a power law; the exponent should be ~2 (the table has n^2 cells and
  O(1) work per cell).  The count is deterministic, so the verdict
  does not read a clock; the wall-clock exponent is reported as a row
  (``benchmarks/bench_thm5_opt2.py`` asserts it).
"""

from __future__ import annotations

import math
import time

from ..algorithms.brute_force import brute_force_makespan
from ..algorithms.opt_two import opt_res_assignment, opt_res_assignment_pq
from ..generators.random_instances import uniform_instance
from .runner import ExperimentResult

__all__ = ["run", "fit_exponent"]


def fit_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) vs log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(t, 1e-9)) for _, t in points]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den if den else float("nan")


def run(
    check_sizes: tuple[int, ...] = (2, 3, 4, 5),
    scale_sizes: tuple[int, ...] = (50, 100, 200, 400, 800),
    seeds: tuple[int, ...] = (0, 1, 2),
    repeats: int = 3,
) -> ExperimentResult:
    rows = []
    ok = True

    # Part 1: optimality cross-validation on small instances.
    checked = agreed = 0
    for n in check_sizes:
        for seed in seeds:
            instance = uniform_instance(2, n, seed=seed)
            dp = opt_res_assignment(instance)
            pq = opt_res_assignment_pq(instance)
            bf = brute_force_makespan(instance)
            checked += 1
            if dp.makespan == pq.makespan == bf:
                agreed += 1
    ok = ok and checked == agreed

    # Part 2: runtime scaling.
    points = []
    for n in scale_sizes:
        instance = uniform_instance(2, n, seed=42)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = opt_res_assignment(instance)
            best = min(best, time.perf_counter() - t0)
        points.append((n, best))
        rows.append(
            {
                "n": n,
                "time_s": round(best, 4),
                "cells": result.cells_expanded,
                "makespan": result.makespan,
            }
        )
    exponent = fit_exponent(points)
    cell_exponent = fit_exponent([(row["n"], row["cells"]) for row in rows])
    # Quadratic table fill: allow slack for lower-order terms, but the
    # growth must be clearly polynomial of low degree (not cubic, not
    # exponential).
    ok = ok and 1.5 <= cell_exponent <= 2.6
    fit = {"time_s": f"n^{exponent:.2f}", "cells": f"n^{cell_exponent:.2f}"}
    rows.append({"n": "fit", **fit, "makespan": ""})
    return ExperimentResult(
        experiment="THM5",
        title="m=2 exact DP: optimality and O(n^2) scaling",
        paper_claim=(
            "OptResAssignment computes an optimal solution in O(n^2) time"
        ),
        params={
            "check_sizes": list(check_sizes),
            "scale_sizes": list(scale_sizes),
            "seeds": list(seeds),
        },
        columns=["n", "time_s", "cells", "makespan"],
        rows=rows,
        verdict=ok,
        notes=[f"optimality: {agreed}/{checked} instances agree with brute force"],
    )
