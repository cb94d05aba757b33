"""FLOW / DEADLINE bench: objective-layer experiments + campaign timing.

Reproduces the two objective-axis experiments (verdicts: the tuned
policies beat round-robin under their objective) and times an
objective-evaluating vector campaign -- evaluating each objective once
per run from its completion steps must stay cheap relative to the
plain makespan campaign.
"""

from repro.backends.batch import BatchRunner, make_campaign_instances
from repro.experiments import get_experiment

#: Objective evaluation may cost at most this factor in
#: campaign wall time vs the plain makespan-only run.
OVERHEAD_FACTOR = 2.0


def test_flow_experiment(record_result):
    record_result(get_experiment("FLOW").run(count=6))


def test_deadline_experiment(record_result):
    record_result(get_experiment("DEADLINE").run(count=6))


def test_objective_campaign_timing(benchmark):
    instances = make_campaign_instances(
        20, 8, 8, seed=0, weights_profile="skewed", deadline_profile="mixed"
    )
    runner = BatchRunner(
        policy="weighted-srpt",
        backend="vector",
        workers=1,
        objectives=("weighted-flow", "tardiness"),
    )

    def campaign() -> int:
        return len(runner.run(instances).rows)

    assert benchmark(campaign) == 20


def test_objective_recorder_overhead(results_dir):
    """One timed pass: objective-evaluating campaign vs plain campaign."""
    import time

    from conftest import write_bench_store

    instances = make_campaign_instances(
        30, 8, 8, seed=1, weights_profile="skewed", deadline_profile="mixed"
    )
    plain = BatchRunner(policy="weighted-srpt", backend="vector", workers=1)
    objective = BatchRunner(
        policy="weighted-srpt",
        backend="vector",
        workers=1,
        objectives=("weighted-flow", "tardiness", "deadline-misses"),
    )
    t0 = time.perf_counter()
    plain.run(instances)
    plain_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    objective.run(instances)
    objective_s = time.perf_counter() - t0
    factor = objective_s / plain_s
    write_bench_store(
        results_dir,
        "objective_overhead",
        [
            {
                "instances": len(instances),
                "plain_seconds": round(plain_s, 4),
                "objective_seconds": round(objective_s, 4),
                "factor": round(factor, 3),
            }
        ],
    )
    assert factor <= OVERHEAD_FACTOR, (plain_s, objective_s)
