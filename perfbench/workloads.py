"""The four benchmark workloads, each a closed loop with one caller.

A workload builds a pool of inputs from the seed when it is
constructed (the set-up the harness times), then runs one pool item
at a time on request.  An item holds one or more *ops* -- the calls
whose latency the benchmark reports.  Every op goes through
``OpTimer.call`` (:mod:`perfbench.clock`), which times it and tells the
tracer which op is in flight.  Each pool is sized so that one pass over
it takes about :attr:`Workload.pass_seconds` on a 2-vCPU Xeon VM, and
the harness runs a number of passes fixed by ``--seconds`` alone.

Why these four: each drives a different engine of the library, so an
optimisation of one engine shows on one workload and leaves the others
unchanged.

``sweep``
    Offline campaign through ``BatchRunner`` on the single-lane vector
    engine (``VectorRuntime`` build, policy query, check, apply) at
    m = 8 / 32 / 128, where per-step overhead gives way to array width.
``search``
    Local-search sequencing on the batched engine (``run_batch``):
    the single-lane engine is idle here.
``certify``
    Branch-and-bound certification in exact ``Fraction`` arithmetic:
    ``ExactRuntime``, ``Policy.shares`` and the Theorem 5 oracle.
``stream``
    The always-on service fed Poisson streams: checkpoint/restore,
    instance rebuilds, admission and per-event engine scans, with the
    kernel run in short suspended bursts.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, replace

import repro.analysis.certify as certify_mod
import repro.core.simulator as simulator
import repro.sequencing.local_search as local_search
import repro.service.engine as engine
from repro.backends.batch import BatchRunner
from repro.generators import (
    bag_instance,
    uniform_instance,
    with_resources,
    with_weights,
)
from repro.service import PoissonStream


def _seeds(label: str, seed: int, count: int) -> list[int]:
    """*count* sub-seeds for one workload, a pure function of the seed."""
    rng = random.Random(f"{label}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


class Workload:
    """Base class: a seeded input pool plus per-item run and check.

    Subclasses are constructed as ``cls(seed, tiny=False)`` and build
    ``pool`` there; ``tiny`` shrinks every input for the smoke test.

    Attributes:
        name: workload name (the ``--workload`` value).
        pool: the generated inputs, run in order once per pass.
        pass_seconds: nominal seconds of one full-size pass on the
            reference host (see :mod:`perfbench.clock`); fixes the
            number of passes a run of ``--seconds`` makes.
        per_unit_growth: ``op_ms_growth`` is taken within each item
            (a stream's history) instead of between the start and the
            end of a pass.
    """

    name = ""
    pass_seconds = 8.0
    per_unit_growth = False
    pool: list

    def warm(self) -> None:
        """Exercise every code path once on a small input (untimed)."""

    def unit(self, item: int, timer):
        """Run pool item *item* through *timer* and return its output."""
        raise NotImplementedError

    def ops_in(self, item: int) -> int:
        """Number of ops pool item *item* holds."""
        return 1

    def check(self, item: int, output) -> bool:
        """True iff *output* of pool item *item* is correct."""
        raise NotImplementedError

    def quality(self, item: int, output) -> float:
        """Deterministic result quality of one item (lower is better)."""
        raise NotImplementedError

    def identity(self, output):
        """The part of *output* that repeated and traced runs must reproduce."""
        return output

    def properties(self) -> dict:
        """Input properties of the generated pool, for the result record."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# sweep: BatchRunner on the single-lane vector engine
# ----------------------------------------------------------------------
class Sweep(Workload):
    """Seeded ``uniform`` instances through ``BatchRunner(workers=1)``.

    Item ``u`` uses m = ``ms[u % 3]``, policy ``POLICIES[(u // 3) % 2]``
    and is lifted to k = 2 when ``(u // 6) % 4 == 3``: every 24
    consecutive items hold the same mix.
    """

    name = "sweep"
    pass_seconds = 7.6
    POLICIES = ("greedy-balance", "round-robin")
    EXACT_CHECKS = 4

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        self.ms = (4, 6, 8) if tiny else (8, 32, 128)
        self.n = 4 if tiny else 10
        size = 24 if tiny else 168
        seeds = _seeds(self.name, seed, 2 * size)
        self.pool = []
        for u in range(size):
            inst = uniform_instance(self.ms[u % 3], self.n, seed=seeds[2 * u])
            if self.k_of(u) == 2:
                inst = with_resources(inst, 2, seed=seeds[2 * u + 1])
            self.pool.append(inst)
        self.runners = {p: BatchRunner(p, "vector", workers=1) for p in self.POLICIES}
        # Exact cross-checks run on a seeded subset of the small-m items
        # (an exact m = 128 run costs seconds).
        small = [u for u in range(size) if self.pool[u].m <= self.ms[1]]
        self.exact_checked = set(
            random.Random(f"sweep-check:{seed}").sample(small, self.EXACT_CHECKS)
        )

    @staticmethod
    def k_of(u: int) -> int:
        return 2 if (u // 6) % 4 == 3 else 1

    def policy_of(self, u: int) -> str:
        return self.POLICIES[(u // 3) % 2]

    def warm(self) -> None:
        for policy in self.POLICIES:
            for k in (1, 2):
                inst = with_resources(uniform_instance(4, 3, seed=k), k, seed=k)
                self.runners[policy].run([inst])

    def unit(self, item: int, timer):
        result = timer.call(self.runners[self.policy_of(item)].run, [self.pool[item]])
        row = result.rows[0]
        return (row["makespan"], row["lower_bound"])

    def check(self, item: int, output) -> bool:
        inst = self.pool[item]
        makespan, lower = output
        if lower != inst.makespan_lower_bound() or makespan < lower:
            return False
        if item in self.exact_checked:
            exact = simulator.run_policy(
                inst, self.policy_of(item), backend="exact", record_shares=False
            )
            return exact.makespan == makespan
        return True

    def quality(self, item: int, output) -> float:
        makespan, lower = output
        return makespan / lower

    def properties(self) -> dict:
        ks = [inst.num_resources for inst in self.pool]
        return {
            "entry": "BatchRunner(policy, 'vector', workers=1).run([instance])",
            "family": "uniform_instance",
            "m": list(self.ms),
            "n": self.n,
            "k": sorted(set(ks)),
            "lifted_share": ks.count(2) / len(ks),
            "policies": list(self.POLICIES),
            "instances": len(self.pool),
            "exact_checked": len(self.exact_checked),
        }


# ----------------------------------------------------------------------
# search: local search on the batched engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchOutput:
    result: object
    initial: float
    best: float
    evaluations: int


class Search(Workload):
    """``LocalSearchSequencer(batch_lanes=64, objective="weighted-flow")``.

    16 instances make a pass of 20 searches (with the repeated first
    quarter), so the tail percentile has ten samples beyond it.
    """

    name = "search"
    pass_seconds = 10.0

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        self.m, self.n = (4, 4) if tiny else (16, 10)
        self.options = {"batch_lanes": 64, "objective": "weighted-flow"}
        if tiny:
            self.options["budget"] = 16
        size = 4 if tiny else 16
        seeds = _seeds(self.name, seed, 2 * size)
        self.pool = [
            with_weights(
                bag_instance(self.m, self.n, seed=seeds[2 * u]),
                profile="skewed",
                seed=seeds[2 * u + 1],
            )
            for u in range(size)
        ]

    def sequencer(self):
        return local_search.LocalSearchSequencer(**self.options)

    def warm(self) -> None:
        inst = with_weights(bag_instance(4, 3, seed=0), profile="skewed", seed=1)
        local_search.LocalSearchSequencer(
            batch_lanes=8, objective="weighted-flow", budget=8
        ).sequence(inst)

    def unit(self, item: int, timer):
        seq = self.sequencer()
        result = timer.call(seq.sequence, self.pool[item])
        stats = seq.last_stats
        return SearchOutput(
            result, stats["initial"], stats["best"], stats["evaluations"]
        )

    def check(self, item: int, output) -> bool:
        inst = self.pool[item]
        if not inst.same_bag(output.result) or output.best > output.initial:
            return False
        return self.sequencer().evaluate(output.result) == output.best

    def quality(self, item: int, output) -> float:
        return float(output.best / output.initial)

    def properties(self) -> dict:
        return {
            "entry": "LocalSearchSequencer(**options).sequence(instance)",
            "family": "bag_instance + with_weights(profile='skewed')",
            "m": self.m,
            "n": self.n,
            "k": 1,
            "options": self.options,
            "policy": "greedy-balance",
            "instances": len(self.pool),
        }


# ----------------------------------------------------------------------
# certify: exact branch-and-bound certification
# ----------------------------------------------------------------------
class Certify(Workload):
    """``certify_opt(inst, policy="greedy-balance", backend="exact")``.

    The pool is the first seeded ``uniform_instance(2, 3)``s in the
    generator's natural mix.  Certification cost is bimodal there: about
    seven in ten close in a few exact leaf runs (1-4 ms on a 2-vCPU Xeon
    VM) and the rest need tens (20-55 ms), so the pool is as large as a
    run allows, to damp how far the seed moves the hard instances' share
    and cost, and with them throughput.  At n = 4 nearly half the instances are hard (~0.5 s each there),
    which puts the median op on the gap between the classes.
    """

    name = "certify"
    pass_seconds = 7.8
    POLICY = "greedy-balance"

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        self.m, self.n = 2, 3
        size = 8 if tiny else 720
        self.pool = [
            uniform_instance(self.m, self.n, seed=sub)
            for sub in _seeds(self.name, seed, size)
        ]

    def warm(self) -> None:
        certify_mod.certify_opt(
            uniform_instance(2, 2, seed=0), policy=self.POLICY, backend="exact"
        )

    def unit(self, item: int, timer):
        cert = timer.call(
            certify_mod.certify_opt,
            self.pool[item],
            policy=self.POLICY,
            backend="exact",
        )
        return (
            cert.value,
            cert.order,
            cert.proved,
            cert.nodes,
            cert.pruned,
            cert.leaf_evaluations,
            cert.bound_calls,
            cert.lower_bound,
        )

    def check(self, item: int, output) -> bool:
        value, _order, proved = output[:3]
        fixed = simulator.run_policy(self.pool[item], self.POLICY, backend="exact")
        return proved and value <= fixed.makespan

    def quality(self, item: int, output) -> float:
        return output[0] / output[-1]

    def properties(self) -> dict:
        return {
            "entry": "certify_opt(instance, policy, backend='exact')",
            "family": "uniform_instance",
            "m": self.m,
            "n": self.n,
            "k": 1,
            "policy": self.POLICY,
            "instances": len(self.pool),
        }


# ----------------------------------------------------------------------
# stream: the scheduling service under Poisson arrivals
# ----------------------------------------------------------------------
@dataclass(eq=False)
class StreamOutput:
    config: dict
    log: list
    report: dict
    completions: dict
    decisions: list

    def identity(self):
        """Everything but the measured latencies (compared bit for bit)."""
        report = {k: v for k, v in self.report.items() if k != "latency_percentiles"}
        return (self.decisions, self.completions, report, self.log)


class Stream(Workload):
    """``SchedulingService`` fed one seeded ``PoissonStream`` per item.

    One op is one ``submit``; an item is one whole stream, drained at
    the end.  The load stays below capacity, so latency growth within a
    stream comes from the history the service keeps, not from backlog.
    """

    name = "stream"
    pass_seconds = 7.1
    RATE = 1.5
    SERVICE = {
        "policy": "greedy-balance",
        "backend": "vector",
        "admission": "accept-all",
        "max_queues": 16,
    }
    per_unit_growth = True

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        self.count = 40 if tiny else 500
        streams = 1 if tiny else 6
        self.pool = [
            list(PoissonStream(rate=self.RATE, count=self.count, seed=sub))
            for sub in _seeds(self.name, seed, streams)
        ]

    def warm(self) -> None:
        service = engine.SchedulingService(**self.SERVICE)
        service.run_stream(PoissonStream(rate=self.RATE, count=40, seed=0))

    def ops_in(self, item: int) -> int:
        return len(self.pool[item])

    def unit(self, item: int, timer):
        service = engine.SchedulingService(**self.SERVICE)
        decisions = [timer.call(service.submit, event) for event in self.pool[item]]
        timer.call_extra(service.drain)
        return StreamOutput(
            config=service.config(),
            log=service.event_log,
            report=service.report().to_dict(),
            completions=service.completion_steps,
            decisions=decisions,
        )

    def check(self, item: int, output) -> bool:
        report = output.report
        ok = (
            report["completed"] == report["admitted"] == len(output.decisions)
            and report["dropped_events"] == 0
        )
        if ok:
            replayed, service = engine.replay_log(output.config, output.log)
            again = replace(
                output,
                log=service.event_log,
                report=replayed.to_dict(),
                completions=service.completion_steps,
            )
            ok = again.identity() == output.identity()
        return ok

    def quality(self, item: int, output) -> float:
        """Mean flow time over mean full-speed steps, across the stream."""
        events = self.pool[item]
        admitted_per_queue: dict[int, int] = {}
        flow = full = 0
        for event, record in zip(events, (r for r in output.log if r["type"] == "arrival")):
            queue = record["queue"]
            index = admitted_per_queue.get(queue, 0)
            admitted_per_queue[queue] = index + 1
            flow += output.completions[(queue, index)] + 1 - event.time
            full += event.job.steps_at_full_speed()
        return flow / full

    def identity(self, output):
        return output.identity()

    def offered_load(self) -> float:
        """Arrived work per step over the arrival span (capacity is 1)."""
        loads = []
        for events in self.pool:
            work = sum(float(event.job.work) for event in events)
            loads.append(work / (events[-1].time + 1))
        return statistics.mean(loads)

    def properties(self) -> dict:
        return {
            "entry": "SchedulingService(**service).submit(event)",
            "family": "PoissonStream",
            "service": dict(self.SERVICE),
            "k": 1,
            "arrival_rate": self.RATE,
            "arrivals_per_stream": self.count,
            "streams": len(self.pool),
            "offered_load": self.offered_load(),
        }


WORKLOADS = {cls.name: cls for cls in (Sweep, Search, Certify, Stream)}
