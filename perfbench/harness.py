"""Measurement loop, metrics and the result record.

One call of :func:`run` measures one workload for one seed:

1. set-up: import time (median over fresh interpreters) plus input
   generation and warm-up (median over repeated in-process set-ups);
2. measurement: a number of whole passes over the workload's input
   pool fixed by ``seconds`` (:func:`passes_for`), one caller; every op
   of every pass is a timing sample;
3. checks: each input's first output is checked, and every later run
   of that input must reproduce it exactly.

Every time is scaled to the reference host by the probes of
:mod:`perfbench.clock`; the info record keeps the measured values.

With ``trace=True``, the passes run untraced, then again traced
through :mod:`perfbench.tracing`.  The traced outputs must equal the
untraced ones, and the per-layer metrics come from the traced passes.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from . import THREAD_VARS, tracing
from .clock import PROBE_REFERENCE_S, Call, HostClock, OpTimer
from .workloads import WORKLOADS

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "op_ms_growth": "ratio",
    "result_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.  ``.s``/``self_s``
#: are self seconds per op, ``.calls`` calls per op, bare counts are
#: per op; ratios, ``bytes`` and ``instance_jobs`` are not per op.
PER_LAYER = {
    "backends.vector.runtime_init.s": "s/op",
    "backends.vector.check.s": "s/op",
    "backends.vector.apply.s": "s/op",
    "backends.vector.run.self_s": "s/op",
    "algorithms.shares_array.s": "s/op",
    "algorithms.shares_array.calls": "calls/op",
    "algorithms.shares_batch.s": "s/op",
    "algorithms.shares_batch.calls": "calls/op",
    "algorithms.shares.s": "s/op",
    "algorithms.shares.calls": "calls/op",
    "algorithms.exact_order_makespan.s": "s/op",
    "algorithms.exact_order_makespan.calls": "calls/op",
    "core.kernel.steps": "steps/op",
    "core.kernel.observers.s": "s/op",
    "core.kernel.run_kernel.self_s": "s/op",
    "core.kernel.exact_apply.s": "s/op",
    "core.simulator.default_step_limit.s": "s/op",
    "core.simulator.default_step_limit.calls": "calls/op",
    "core.simulator.run_policy.s": "s/op",
    "core.simulator.run_policy.calls": "calls/op",
    "core.checkpoint.checkpoint_run.s": "s/op",
    "core.checkpoint.checkpoint_run.calls": "calls/op",
    "core.checkpoint.restore_runtime.s": "s/op",
    "core.checkpoint.restore_runtime.calls": "calls/op",
    "core.checkpoint.bytes": "B",
    "core.instance.init.s": "s/op",
    "core.instance.init.calls": "calls/op",
    "backends.batched.run_batch.s": "s/op",
    "backends.batched.run_batch.calls": "calls/op",
    "backends.batched.lane_steps": "steps/op",
    "backends.batched.lane_occupancy": "ratio",
    "backends.batched.compactions": "count/op",
    "sequencing.evaluations": "count/op",
    "sequencing.cache_hits": "count/op",
    "sequencing.accept_ratio": "ratio",
    "sequencing.self_s": "s/op",
    "analysis.certify.nodes": "count/op",
    "analysis.certify.pruned": "count/op",
    "analysis.certify.leaf_evaluations": "count/op",
    "analysis.certify.bound_calls": "count/op",
    "analysis.certify.prune_ratio": "ratio",
    "analysis.certify.self_s": "s/op",
    "service.admission.admit.s": "s/op",
    "service.admission.admit.calls": "calls/op",
    "service.engine.self_s": "s/op",
    "service.instance_jobs": "jobs",
    "service.steps_advanced": "steps/op",
    "backends.batch.run.self_s": "s/op",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: Modules whose import the set-up time covers.
_IMPORTS = (
    "repro.backends.batch, repro.generators, repro.analysis.certify, "
    "repro.sequencing.local_search, repro.service"
)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(latencies: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with >= 10 samples beyond.

    Nearest rank: the 11th-largest sample has exactly ten above it.
    Fewer than 11 samples fall back to the maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def growth(early: list[float], late: list[float]) -> float:
    """Median of *late* latencies over the median of *early* ones."""
    return statistics.median(late) / statistics.median(early)


# ----------------------------------------------------------------------
# Machine fingerprint
# ----------------------------------------------------------------------
def fingerprint(root: Path) -> dict:
    """Where the numbers came from: revision, machine and toolchain."""
    import numpy

    revision = None
    if (root / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "thread_cap": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # Without numba, compiled="auto" falls back to the NumPy
        # engines: numbers from a numba machine are not comparable.
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def import_seconds(root: Path, repeats: int, clock: HostClock) -> float:
    """Median time of importing the library in a fresh interpreter.

    Each import is timed in the child and scaled by probes the parent
    takes just before and after it.
    """
    code = (
        "import time; t = time.perf_counter(); "
        f"import {_IMPORTS}; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(repeats):
        clock.probe()
        t0 = perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
            timeout=120,
            check=True,
        )
        t1 = perf_counter()
        clock.probe()
        child_s = float(done.stdout.strip().splitlines()[-1])
        times.append(child_s / clock.factor(t0, t1))
    return statistics.median(times)


def set_up(cls, seed: int, *, tiny: bool, repeats: int, clock: HostClock):
    """Build and warm the workload *repeats* times; keep the last one.

    Returns ``(workload, median scaled seconds of one set-up)``.
    """
    times = []
    for _ in range(repeats):
        clock.probe()
        t0 = perf_counter()
        workload = cls(seed, tiny=tiny)
        workload.warm()
        t1 = perf_counter()
        clock.probe()
        times.append(clock.scaled(Call(t0, t1, False)))
    return workload, statistics.median(times)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
class Failed:
    """Output of a unit that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.error = f"{type(exc).__name__}: {exc}"


def passes_for(workload, seconds: float) -> int:
    """Passes in a run of *seconds*: fixed by the run length, not by speed."""
    return max(1, round(seconds / workload.pass_seconds))


def run_order(workload) -> list[int]:
    """Pool items in the order one pass runs them.

    Workloads of independent ops end each pass with their first
    quarter again, so ``op_ms_growth`` compares the same inputs at the
    start and at the end of a pass.
    """
    n = len(workload.pool)
    repeat = [] if workload.per_unit_growth else list(range(max(1, n // 4)))
    return list(range(n)) + repeat


class Phase:
    """Outputs and timed calls of whole passes, indexed ``[pass][position]``."""

    def __init__(self, order: list[int]) -> None:
        self.order = order
        self.outputs: list[list] = []
        self.calls: list[list[list[Call]]] = []

    def all_calls(self) -> list[Call]:
        return [c for row in self.calls for calls in row for c in calls]


def measure(workload, passes: int, clock: HostClock, tracer=None) -> Phase:
    """Run *passes* whole passes over :func:`run_order`."""
    phase = Phase(run_order(workload))
    timer = OpTimer(clock, tracer)
    clock.probe()
    for _ in range(passes):
        outputs, calls = [], []
        for item in phase.order:
            start = len(timer.calls)
            try:
                output = workload.unit(item, timer)
            except Exception as exc:  # noqa: BLE001 - a failed op is a result
                output = Failed(exc)
            outputs.append(output)
            calls.append(timer.calls[start:])
        phase.outputs.append(outputs)
        phase.calls.append(calls)
    clock.probe()
    return phase


def count_failures(workload, phase: Phase, reference: Phase | None = None) -> tuple[int, int, list[str]]:
    """``(attempted ops, failed ops, failure notes)`` of *phase*.

    An item's first run is checked; every later run of it must
    reproduce that output exactly.  With *reference*, every run must
    reproduce the reference's first output instead (the traced pass).
    """
    attempted = failed = 0
    notes: list[str] = []
    first: dict[int, object] = {}
    if reference is not None:
        for item, output in zip(reference.order, reference.outputs[0]):
            first.setdefault(item, output)
    for p, outputs in enumerate(phase.outputs):
        for pos, output in enumerate(outputs):
            item = phase.order[pos]
            timed = sum(c.op for c in phase.calls[p][pos])
            ops = max(timed, workload.ops_in(item))
            attempted += ops
            if isinstance(output, Failed):
                ok, note = False, f"item {item} raised {output.error}"
            elif item not in first:
                first[item] = output
                ok, note = workload.check(item, output), f"item {item} failed its check"
            else:
                ok = not isinstance(first[item], Failed) and (
                    workload.identity(output) == workload.identity(first[item])
                )
                note = f"pass {p} item {item} did not reproduce its first output"
            if not ok:
                failed += ops
                notes.append(note)
    return attempted, failed, notes


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def timings(workload, phase: Phase, duration) -> tuple[dict, float, int]:
    """Timing metrics of *phase* with call times read by *duration*.

    Every op of every pass is one sample.  Returns ``(values, tail
    percentile, sample count)``.
    """
    latencies = [
        [[duration(c) for c in calls if c.op] for calls in row] for row in phase.calls
    ]
    flat = [x for row in latencies for lat in row for x in lat]
    if workload.per_unit_growth:
        # A stream's history: its last quarter of submits over its first.
        grow = statistics.median(
            growth(lat[: len(lat) // 4], lat[-(len(lat) // 4) :])
            for row in latencies
            for lat in row
        )
    else:
        # The repeated first quarter against its first run, input by
        # input, so the pool's mix of input sizes cancels out.
        repeat = len(phase.order) - len(workload.pool)
        grow = statistics.median(
            sum(late) / sum(early)
            for row in latencies
            for early, late in zip(row[:repeat], row[-repeat:])
        )
    pct, tail_s = tail(flat)
    values = {
        "ops_per_s": len(flat) / sum(map(duration, phase.all_calls())),
        "op_ms_p50": 1e3 * statistics.median(flat),
        "op_ms_tail": 1e3 * tail_s,
        "op_ms_growth": grow,
    }
    return values, pct, len(flat)


def host_summary(clock: HostClock) -> dict:
    """Host-speed probes of the run, as factors over the reference."""
    factors = [p / PROBE_REFERENCE_S for p in clock.probes]
    return {
        "probe_reference_s": PROBE_REFERENCE_S,
        "probes": len(factors),
        "probe_seconds": clock.probe_s,
        "factor_median": statistics.median(factors),
        "factor_min": min(factors),
        "factor_max": max(factors),
    }


def end_to_end(workload, phase: Phase, clock: HostClock, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metric values plus details for the result record."""
    values, pct, samples = timings(workload, phase, clock.scaled)
    raw, _, _ = timings(workload, phase, lambda call: call.raw)
    values.update(
        setup_s=setup_s,
        result_ratio=statistics.mean(
            workload.quality(item, phase.outputs[0][item])
            for item in range(len(workload.pool))
        ),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    details = {
        "passes": len(phase.calls),
        "tail_percentile": pct,
        "samples": samples,
        "raw": raw,
    }
    return values, details


def per_layer(tracer: tracing.Tracer, traced: Phase, plain: Phase, clock: HostClock) -> dict:
    """Per-layer metric values from the traced passes (see :data:`PER_LAYER`).

    Self seconds are scaled to the reference host by the median probe
    of the traced passes.
    """
    calls_traced = traced.all_calls()
    op_calls = [c for c in calls_traced if c.op]
    ops = len(op_calls)
    factor = clock.factor(calls_traced[0].t0, calls_traced[-1].t1)
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    values: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind in ("s", "self_s"):
            values[name] = s.get(layer, 0.0) / (ops * factor)
        elif kind == "calls":
            values[name] = calls.get(layer, 0) / ops
        else:
            values[name] = counts.get(name, 0.0) / ops
    lanes = counts.get("backends.batched.lanes_x_steps", 0.0)
    values["backends.batched.lane_occupancy"] = (
        counts.get("backends.batched.lane_steps", 0.0) / lanes if lanes else 0.0
    )
    moves = counts.get("sequencing.accepted", 0.0) + counts.get("sequencing.rejected", 0.0)
    values["sequencing.accept_ratio"] = (
        counts.get("sequencing.accepted", 0.0) / moves if moves else 0.0
    )
    expanded = counts.get("analysis.certify.nodes", 0.0) + counts.get(
        "analysis.certify.pruned", 0.0
    )
    values["analysis.certify.prune_ratio"] = (
        counts.get("analysis.certify.pruned", 0.0) / expanded if expanded else 0.0
    )
    ckpt = tracer.last.get("core.checkpoint.last")
    values["core.checkpoint.bytes"] = len(ckpt.to_json().encode()) if ckpt else 0
    values["service.instance_jobs"] = tracer.last.get("service.instance_jobs", 0)
    values["trace.coverage"] = tracer.inner_in_op / sum(c.raw for c in op_calls)
    values["trace.overhead"] = sum(map(clock.scaled, calls_traced)) / sum(
        map(clock.scaled, plain.all_calls())
    )
    return values


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    root: Path,
    tiny: bool = False,
    import_repeats: int = 5,
    build_repeats: int = 3,
    trace_out: Path | None = None,
) -> tuple[dict, dict]:
    """Measure one workload; returns ``(result, info)``.

    *result* is the benchmark's contract record (``correct``,
    ``attempted``, ``failed``, ``metrics``); *info* carries the
    fingerprint, input properties, tail percentile and failure notes.
    """
    cls = WORKLOADS[name]
    clock = HostClock()
    # The traced run reports no set-up time, so it sets up only once.
    import_s = 0.0 if trace else import_seconds(root, import_repeats, clock)
    workload, build_s = set_up(
        cls, seed, tiny=tiny, repeats=1 if trace else build_repeats, clock=clock
    )
    passes = passes_for(workload, seconds)
    info: dict = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, one caller, synchronous calls",
        "fingerprint": fingerprint(root),
        "inputs": workload.properties(),
    }
    if not trace:
        phase = measure(workload, passes, clock)
        attempted, failed, notes = count_failures(workload, phase)
        values, details = end_to_end(workload, phase, clock, import_s + build_s)
        units = END_TO_END
        info.update(details, import_s=import_s, build_warm_s=build_s)
    else:
        plain = measure(workload, passes, clock)
        tracer = tracing.Tracer()
        with tracing.installed(tracing.layer_patches(tracer)):
            traced = measure(workload, passes, clock, tracer)
        attempted, failed, notes = count_failures(workload, plain)
        traced_attempted, traced_failed, traced_notes = count_failures(
            workload, traced, reference=plain
        )
        attempted += traced_attempted
        failed += traced_failed
        notes += [f"traced: {note}" for note in traced_notes]
        values = per_layer(tracer, traced, plain, clock)
        units = PER_LAYER
        info["passes"] = passes
        if trace_out is not None:
            tracer.write(trace_out)
            info["spans_file"] = str(trace_out.relative_to(root))
    info.update(
        host=host_summary(clock),
        attempted=attempted,
        failed=failed,
        failed_ratio=failed / attempted,
        failures=notes[:20],
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }
    return result, info


def main(argv: list[str], *, root: Path) -> int:
    """Command-line entry point (see ``perfbench/run.py``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description="Run one benchmark workload."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    out = root / "perfbench" / "out" / f"spans-{args.workload}.npz"
    result, info = run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        root=root,
        trace_out=out if args.trace else None,
    )
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0
