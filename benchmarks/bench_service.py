"""SERVICE bench: streaming throughput, latency, and the flatness gate.

Two BENCH series plus one gate, all on seeded Poisson workloads:

1. *sustained throughput* -- jobs per wall-clock second the always-on
   :class:`~repro.service.SchedulingService` sustains end to end
   (submissions through drain) at several arrival rates;
2. *scheduling latency* -- the per-arrival admission+placement latency
   percentiles (p50/p99) the service reports; and
3. the **flatness gate**: the cost of an event must not grow with the
   history the service has seen.  On ``PoissonStream(rate=1.5)`` with
   16 queues, the p99 submit latency of an 8000-job stream must stay
   within :data:`MAX_P99_GROWTH` of the p99 of a 1000-job stream.
   The two sizes run interleaved :data:`REPEATS` times and the best
   p99 of each is kept, so host speed drift and single scheduler
   hiccups hit both sides alike.

Results land in ``BENCH_service.json`` (summarized by
``crsharing bench-report``).
"""

import time

from repro.service import PoissonStream, SchedulingService

#: p99 latency at the large stream over p99 at the small one.
MAX_P99_GROWTH = 1.5

#: The gate workload: two stream lengths at one load and queue count.
GATE_SIZES = (1000, 8000)
GATE_RATE = 1.5
GATE_QUEUES = 16
REPEATS = 5

#: Arrival rates of the sustained-throughput series.
THROUGHPUT_RATES = (1.0, 2.0, 4.0)
THROUGHPUT_JOBS = 300


def _run(rate: float, count: int, queues: int):
    stream = PoissonStream(rate=rate, count=count, seed=0)
    service = SchedulingService(max_queues=queues)
    t0 = time.perf_counter()
    service.run_stream(stream)
    elapsed = time.perf_counter() - t0
    return elapsed, service.report()


def test_service_smoke_throughput(benchmark):
    """pytest-benchmark timing of one short streaming session."""
    stream = PoissonStream(rate=2.0, count=60, seed=3)

    def session():
        service = SchedulingService(max_queues=8)
        service.run_stream(stream)
        return service.report().completed

    assert benchmark(session) == 60


def test_service_streaming_series_and_gate(results_dir):
    """Both BENCH series plus the p99 flatness gate."""
    from conftest import write_bench_store

    rows = []
    for rate in THROUGHPUT_RATES:
        elapsed, report = _run(rate, THROUGHPUT_JOBS, 8)
        assert report.dropped_events == 0
        assert report.completed == THROUGHPUT_JOBS
        pct = report.latency_percentiles
        rows.append(
            {
                "series": "throughput",
                "rate": rate,
                "jobs": THROUGHPUT_JOBS,
                "seconds": round(elapsed, 3),
                "jobs_per_second": round(report.completed / elapsed, 1),
                "utilization": round(report.utilization, 4),
                "latency_p50_ms": round(pct["p50"] * 1e3, 3),
                "latency_p99_ms": round(pct["p99"] * 1e3, 3),
            }
        )

    p99_ms = dict.fromkeys(GATE_SIZES, float("inf"))
    for _ in range(REPEATS):
        for count in GATE_SIZES:
            _, report = _run(GATE_RATE, count, GATE_QUEUES)
            assert report.completed == count
            p99 = report.latency_percentiles["p99"] * 1e3
            p99_ms[count] = min(p99_ms[count], p99)
    small, large = GATE_SIZES
    growth = p99_ms[large] / p99_ms[small]
    rows.append(
        {
            "series": "flatness-gate",
            "rate": GATE_RATE,
            "queues": GATE_QUEUES,
            "repeats": REPEATS,
            **{f"p99_ms_at_{count}": round(p99_ms[count], 4) for count in GATE_SIZES},
            "p99_growth": round(growth, 3),
        }
    )
    write_bench_store(
        results_dir,
        "service",
        rows,
        verdict=bool(growth <= MAX_P99_GROWTH),
    )
    assert growth <= MAX_P99_GROWTH, (
        f"p99 submit latency grew {growth:.2f}x from {small} to {large} "
        f"jobs ({p99_ms[small]:.3f} -> {p99_ms[large]:.3f} ms; allowed "
        f"{MAX_P99_GROWTH}x): per-event cost depends on history"
    )
