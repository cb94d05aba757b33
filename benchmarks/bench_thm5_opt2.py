"""THM5 bench: the m=2 exact dynamic program.

Reproduces the optimality + O(n^2)-scaling experiment, asserts that
the wall-clock exponent lands in the verdict's window, and times the
DP on a 200-job-per-processor instance (the paper's headline
polynomial algorithm)."""

from repro.algorithms import opt_res_assignment
from repro.experiments import get_experiment
from repro.generators import uniform_instance


def test_thm5_opt2(benchmark, record_result):
    result = record_result(
        get_experiment("THM5").run(
            check_sizes=(2, 3, 4, 5),
            scale_sizes=(50, 100, 200, 400),
            seeds=(0, 1, 2),
            repeats=1,
        )
    )
    # The verdict fits the deterministic cell count; the wall-clock
    # fit must land in the same window.
    fit = next(row for row in result.rows if row["n"] == "fit")
    exponent = float(fit["time_s"].removeprefix("n^"))
    assert 1.5 <= exponent <= 2.6, f"wall-clock exponent n^{exponent:.2f}"

    instance = uniform_instance(2, 200, seed=7)

    def solve() -> int:
        return opt_res_assignment(instance).makespan

    makespan = benchmark(solve)
    assert makespan >= 200
