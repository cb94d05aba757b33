"""Batch campaign runner: many instances, many workers, one result store.

Related work evaluates bandwidth-contention schedulers over thousands
of randomized instances; :class:`BatchRunner` is that harness.  It
shards a list of instances across ``multiprocessing`` workers (each
worker re-instantiates the policy and backend from their registry
names, so only plain instance data crosses process boundaries),
runs each instance through the selected backend, and aggregates the
per-instance makespans and lower-bound ratios into a
:class:`BatchResult`.

Determinism: results are keyed to the input order (``Pool.map``
preserves it) and every backend is deterministic, so a campaign over
seeded instances produces identical results for any worker count --
the test-suite pins this down.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..core.instance import Instance
from ..exceptions import BackendError

__all__ = ["BatchResult", "BatchRunner", "make_campaign_instances"]


def _run_one(payload: tuple) -> dict[str, Any]:
    """Worker entry point (module-level so it pickles under fork/spawn)."""
    from ..algorithms import get_policy
    from ..objectives import get_objective
    from . import get_backend

    (
        instance,
        policy_name,
        backend_name,
        max_steps,
        objective_names,
        sequencer_name,
        sequencer_options,
    ) = payload
    policy = get_policy(policy_name)
    backend = get_backend(backend_name)
    objectives = [get_objective(name) for name in objective_names]
    # The timer starts before sequencing: for local-search the order
    # optimization dominates the row's cost, and "seconds" reports the
    # full price of producing this row.
    t0 = time.perf_counter()
    if sequencer_name is not None:
        from ..sequencing import get_sequencer  # local: builds on core

        instance = (
            get_sequencer(sequencer_name, **sequencer_options)
            .bind(
                policy=policy,
                objective=objectives[0] if len(objectives) == 1 else None,
            )
            .sequence(instance)
        )
    result = backend.run(
        instance,
        policy,
        max_steps=max_steps,
        record_shares=False,
        objectives=objectives,
    )
    elapsed = time.perf_counter() - t0
    # Release-aware bound; identical to Observation 1's work bound for
    # static instances (and the per-resource congestion maximum for
    # multi-resource ones), so static campaign rows are unchanged.
    lower = instance.makespan_lower_bound()
    row = {
        "m": instance.num_processors,
        "total_jobs": instance.total_jobs,
        "max_release": instance.max_release,
        "resources": instance.num_resources,
        "makespan": result.makespan,
        "lower_bound": lower,
        "ratio": result.makespan / lower if lower else 1.0,
        "seconds": elapsed,
        "worker": os.getpid(),
    }
    if objectives:
        # One entry per requested objective: its value on the run, the
        # objective's instance certificate, and their guarded ratio.
        # A ratio of inf (zero/negative bound, positive value -- the
        # certificate cannot grade the run) is stored as None so the
        # JSON result store stays RFC 8259 parseable.
        report: dict[str, dict[str, float | None]] = {}
        for objective in objectives:
            value = result.objective_values[objective.name]
            bound = objective.lower_bound(instance)
            ratio = objective.ratio(value, bound)
            report[objective.name] = {
                "value": float(value),
                "lower_bound": float(bound),
                "ratio": ratio if math.isfinite(ratio) else None,
            }
        row["objectives"] = report
    return row


@dataclass(slots=True)
class BatchResult:
    """Aggregated outcome of one campaign.

    Attributes:
        policy: registry name of the policy that ran.
        backend: registry name of the backend that ran.
        workers: worker processes used (1 = in-process serial).
        rows: one dict per instance, in input order (``m``,
            ``total_jobs``, ``makespan``, ``lower_bound``, ``ratio``,
            ``seconds``; campaigns run with objectives add an
            ``objectives`` dict of per-objective
            value/lower_bound/ratio entries).
        objectives: objective registry names evaluated per instance
            (empty = the legacy makespan-only campaign shape).
        sequencer: sequencer registry name applied per instance
            (``None`` = the fixed-order model).
        wall_seconds: end-to-end campaign wall time.
        execution: how the campaign ran -- ``"processes"`` (the
            multiprocessing sharding, the default) or ``"batched"``
            (the in-process batched vector engine).
    """

    policy: str
    backend: str
    workers: int
    rows: list[dict[str, Any]] = field(default_factory=list)
    wall_seconds: float = 0.0
    objectives: tuple[str, ...] = ()
    sequencer: str | None = None
    execution: str = "processes"

    @property
    def makespans(self) -> list[int]:
        """Per-instance makespans, in input order."""
        return [row["makespan"] for row in self.rows]

    @property
    def ratios(self) -> list[float]:
        """Per-instance makespan / lower-bound ratios, in input order."""
        return [row["ratio"] for row in self.rows]

    def objective_values(self, name: str) -> list[float]:
        """Per-instance values of one evaluated objective, in order.

        Raises:
            KeyError: if the campaign did not evaluate *name*.
        """
        return [row["objectives"][name]["value"] for row in self.rows]

    def worker_throughput(self) -> dict[int, dict[str, Any]]:
        """Per-worker task counts and throughput, keyed by worker pid.

        Each row records the pid of the process that produced it; this
        aggregates them into ``{pid: {tasks, seconds,
        tasks_per_second}}`` -- the load-balance view of a campaign
        (one entry total for serial runs).
        """
        per: dict[int, dict[str, Any]] = {}
        for row in self.rows:
            pid = row.get("worker")
            if pid is None:  # rows from an older result store
                continue
            entry = per.setdefault(pid, {"tasks": 0, "seconds": 0.0})
            entry["tasks"] += 1
            entry["seconds"] += row["seconds"]
        for entry in per.values():
            entry["tasks_per_second"] = (
                entry["tasks"] / entry["seconds"]
                if entry["seconds"] > 0
                else None
            )
        return per

    def summary(self) -> dict[str, Any]:
        """Campaign-level aggregates (the numbers a sweep reports).

        Campaigns run with objectives add an ``objectives`` dict with
        mean/max value and ratio aggregates per objective; the legacy
        makespan keys stay unchanged either way.
        """
        count = len(self.rows)
        if not count:
            return {
                "instances": 0,
                "policy": self.policy,
                "backend": self.backend,
                "workers": self.workers,
            }
        ratios = self.ratios
        summary: dict[str, Any] = {
            "instances": count,
            "policy": self.policy,
            "backend": self.backend,
            "workers": self.workers,
            **(
                {"sequencer": self.sequencer}
                if self.sequencer is not None
                else {}
            ),
            # Only batched campaigns record the mode, so legacy
            # multiprocessing result stores keep their exact shape.
            **(
                {"execution": self.execution}
                if self.execution != "processes"
                else {}
            ),
            "mean_makespan": sum(self.makespans) / count,
            "mean_ratio": sum(ratios) / count,
            "max_ratio": max(ratios),
            "total_steps": sum(self.makespans),
            "wall_seconds": self.wall_seconds,
            "steps_per_second": (
                sum(self.makespans) / self.wall_seconds
                if self.wall_seconds > 0
                else None
            ),
        }
        throughput = self.worker_throughput()
        if throughput:
            summary["workers_used"] = len(throughput)
            summary["worker_throughput"] = {
                str(pid): entry for pid, entry in sorted(throughput.items())
            }
        if self.objectives:
            per_objective: dict[str, Any] = {}
            for name in self.objectives:
                values = self.objective_values(name)
                # None = the certificate could not grade the run (see
                # _run_one); aggregate over the graded rows only, and
                # report None when no row was gradeable.
                graded = [
                    row["objectives"][name]["ratio"]
                    for row in self.rows
                    if row["objectives"][name]["ratio"] is not None
                ]
                per_objective[name] = {
                    "mean_value": sum(values) / count,
                    "max_value": max(values),
                    "mean_ratio": sum(graded) / len(graded) if graded else None,
                    "max_ratio": max(graded) if graded else None,
                    "graded": len(graded),
                }
            summary["objectives"] = per_objective
        return summary

    def to_json(self, path: str | Path) -> None:
        """Persist summary + rows as JSON (the campaign result store)."""
        Path(path).write_text(
            json.dumps(
                {"summary": self.summary(), "rows": self.rows}, indent=2
            )
            + "\n"
        )


class BatchRunner:
    """Run one policy/backend combination over a list of instances.

    Args:
        policy: registry name (see
            :func:`repro.algorithms.available_policies`).
        backend: registry name (see
            :func:`repro.backends.available_backends`).
        workers: worker processes; ``None`` picks ``min(cpu, 8)``,
            ``0``/``1`` runs serially in-process (no multiprocessing
            -- useful under restricted environments and for
            determinism baselines).
        max_steps: per-instance safety limit forwarded to the backend.
        objectives: objective registry names to evaluate on every
            instance's completion steps (see
            :func:`repro.objectives.available_objectives`); empty (the
            default) keeps the legacy makespan-only campaign shape
            bit-identical.
        sequencer: optional sequencer registry name (see
            :func:`repro.sequencing.available_sequencers`) applied to
            every instance inside the worker before the run -- the
            queue-order decision axis.  ``None`` (the default) keeps
            the instances' fixed order bit-identical.
        sequencer_options: keyword options for the sequencer factory
            (e.g. ``{"budget": 500}`` for ``"local-search"``); must be
            picklable, like the rest of the payload.
        execution: ``"processes"`` (the default) shards instances
            across multiprocessing workers; ``"batched"`` runs the
            whole campaign in-process through the batched vector
            engine (:func:`repro.backends.batched.run_batch`),
            stepping up to *batch_lanes* instances per array program
            -- no pickling, no process pool, same rows.  Batched
            execution requires the ``"vector"`` backend and an
            array-capable policy.
        batch_lanes: instances stepped together per batched kernel
            call under ``execution="batched"`` (default 64).
    """

    def __init__(
        self,
        policy: str = "greedy-balance",
        backend: str = "vector",
        *,
        workers: int | None = None,
        max_steps: int | None = None,
        objectives: Iterable[str] = (),
        sequencer: str | None = None,
        sequencer_options: dict[str, Any] | None = None,
        execution: str = "processes",
        batch_lanes: int = 64,
    ) -> None:
        # Fail fast on unknown names (workers resolve them again).
        from ..algorithms import get_policy
        from ..objectives import get_objective
        from . import get_backend

        resolved_policy = get_policy(policy)
        get_backend(backend)
        if execution not in ("processes", "batched"):
            raise BackendError(
                f"unknown execution mode {execution!r}; "
                "available: ['batched', 'processes']"
            )
        if batch_lanes < 1:
            raise BackendError(
                f"batch_lanes must be >= 1, got {batch_lanes}"
            )
        if execution == "batched":
            if backend != "vector":
                raise BackendError(
                    "batched execution requires the 'vector' backend, "
                    f"got {backend!r}"
                )
            if not (
                resolved_policy.supports_batch
                or resolved_policy.supports_vector
            ):
                raise BackendError(
                    f"policy {policy!r} has no array path "
                    "(neither shares_batch nor shares_array); "
                    "batched execution cannot run it"
                )
        objectives = tuple(objectives)
        for name in objectives:
            get_objective(name)
        sequencer_options = dict(sequencer_options or {})
        if sequencer is not None:
            from ..sequencing import get_sequencer

            get_sequencer(sequencer, **sequencer_options)
        if workers is None:
            workers = min(os.cpu_count() or 1, 8)
        self.policy = policy
        self.backend = backend
        self.workers = max(1, int(workers))
        self.max_steps = max_steps
        self.objectives = objectives
        self.sequencer = sequencer
        self.sequencer_options = sequencer_options
        self.execution = execution
        self.batch_lanes = int(batch_lanes)

    def run(self, instances: Iterable[Instance]) -> BatchResult:
        """Execute the campaign; rows come back in input order.

        Under an installed telemetry session the campaign is wrapped
        in a ``batch.campaign`` span and fills campaign metrics
        (``batch.instances``, the ``batch.task_seconds`` latency
        histogram, per-worker ``batch.worker_tasks`` counters).
        Worker processes run uninstrumented -- only plain row dicts
        cross the process boundary, so telemetry never affects
        campaign results.
        """
        from ..telemetry import get_session  # local: keep worker imports lean

        t0 = time.perf_counter()
        if self.execution == "batched":
            rows = self._run_batched(list(instances))
            workers = 1
        else:
            payloads = [
                (
                    inst,
                    self.policy,
                    self.backend,
                    self.max_steps,
                    self.objectives,
                    self.sequencer,
                    self.sequencer_options,
                )
                for inst in instances
            ]
            workers = self.workers
            if self.workers == 1 or len(payloads) <= 1:
                rows = [_run_one(p) for p in payloads]
            else:
                # Platform-default start method: fork on Linux, spawn on
                # macOS/Windows (the worker and payloads are picklable
                # either way).
                ctx = multiprocessing.get_context()
                chunk = max(1, len(payloads) // (self.workers * 4))
                with ctx.Pool(processes=self.workers) as pool:
                    rows = pool.map(_run_one, payloads, chunksize=chunk)
        result = BatchResult(
            policy=self.policy,
            backend=self.backend,
            workers=workers,
            rows=rows,
            wall_seconds=time.perf_counter() - t0,
            objectives=self.objectives,
            sequencer=self.sequencer,
            execution=self.execution,
        )
        session = get_session()
        if session is not None:
            self._record_telemetry(session, result, start=t0)
        return result

    def _run_batched(self, instances: list[Instance]) -> list[dict[str, Any]]:
        """In-process campaign through the batched vector engine.

        Sequencing (when configured) still runs instance by instance
        -- the search itself may use batched evaluation internally via
        its ``batch_lanes`` option -- then the (re)ordered instances
        are stepped through :func:`repro.backends.batched.run_batch`
        in chunks of :attr:`batch_lanes` lanes.  Rows carry the same
        keys as the multiprocessing path; ``seconds`` charges each row
        its sequencing time plus an equal share of its chunk's kernel
        wall time.
        """
        from ..algorithms import get_policy
        from ..objectives import get_objective
        from .batched import run_batch

        policy = get_policy(self.policy)
        objectives = [get_objective(name) for name in self.objectives]
        seq_seconds = [0.0] * len(instances)
        if self.sequencer is not None:
            from ..sequencing import get_sequencer  # local: builds on core

            seq = get_sequencer(self.sequencer, **self.sequencer_options).bind(
                policy=policy,
                objective=objectives[0] if len(objectives) == 1 else None,
            )
            ordered: list[Instance] = []
            for i, inst in enumerate(instances):
                t0 = time.perf_counter()
                ordered.append(seq.sequence(inst))
                seq_seconds[i] = time.perf_counter() - t0
            instances = ordered
        rows: list[dict[str, Any]] = []
        pid = os.getpid()
        lanes = self.batch_lanes
        for start in range(0, len(instances), lanes):
            chunk = instances[start : start + lanes]
            t0 = time.perf_counter()
            result = run_batch(
                chunk,
                policy,
                objectives=objectives,
                max_steps=self.max_steps,
            )
            per_lane = (time.perf_counter() - t0) / len(chunk)
            for b, inst in enumerate(chunk):
                lower = inst.makespan_lower_bound()
                makespan = int(result.makespans[b])
                row: dict[str, Any] = {
                    "m": inst.num_processors,
                    "total_jobs": inst.total_jobs,
                    "max_release": inst.max_release,
                    "resources": inst.num_resources,
                    "makespan": makespan,
                    "lower_bound": lower,
                    "ratio": makespan / lower if lower else 1.0,
                    "seconds": seq_seconds[start + b] + per_lane,
                    "worker": pid,
                }
                if objectives:
                    report: dict[str, dict[str, float | None]] = {}
                    for objective in objectives:
                        value = result.objective_values[objective.name][b]
                        bound = objective.lower_bound(inst)
                        ratio = objective.ratio(value, bound)
                        report[objective.name] = {
                            "value": float(value),
                            "lower_bound": float(bound),
                            "ratio": ratio if math.isfinite(ratio) else None,
                        }
                    row["objectives"] = report
                rows.append(row)
        return rows

    def _record_telemetry(
        self, session, result: BatchResult, *, start: float
    ) -> None:
        """Emit the campaign span and metrics for one finished run."""
        metrics = session.metrics
        metrics.counter("batch.instances").inc(len(result.rows))
        task_hist = metrics.histogram(
            "batch.task_seconds", policy=self.policy, backend=self.backend
        )
        for row in result.rows:
            task_hist.observe(row["seconds"])
        for pid, entry in result.worker_throughput().items():
            metrics.counter("batch.worker_tasks", worker=str(pid)).inc(
                entry["tasks"]
            )
        if result.wall_seconds > 0:
            metrics.gauge("batch.tasks_per_second").set(
                len(result.rows) / result.wall_seconds
            )
        session.tracer.complete(
            "batch.campaign",
            start,
            result.wall_seconds,
            policy=self.policy,
            backend=self.backend,
            workers=self.workers,
            instances=len(result.rows),
            sequencer=self.sequencer,
        )


#: Offset decorrelating the arrival-sampler seeds from the requirement
#: seeds (both streams are plain ``random.Random``; reusing ``seed+k``
#: for both would couple release times to the first requirement draws).
_ARRIVAL_SEED_OFFSET = 0x5F3759DF

#: Same idea for the extra-resource sampler (a third independent
#: stream, so multi-resource profiles decouple from both the
#: requirements and the arrival times).
_RESOURCE_SEED_OFFSET = 0x9E3779B9

#: Fourth and fifth independent streams for the objective annotations
#: (weights and deadlines), decorrelated from requirements, arrivals,
#: and resources.
_WEIGHT_SEED_OFFSET = 0x2545F491
_DEADLINE_SEED_OFFSET = 0x6C62272E


def make_campaign_instances(
    count: int,
    m: int,
    n: int,
    *,
    family: str = "uniform",
    grid: int = 100,
    seed: int = 0,
    max_release: int = 0,
    arrival_seed: int | None = None,
    arrival_rate: float | None = None,
    resources: int = 1,
    resource_profile: str = "independent",
    resource_seed: int | None = None,
    weights_profile: str = "unit",
    max_weight: int = 10,
    weight_seed: int | None = None,
    deadline_profile: str | None = None,
    deadline_seed: int | None = None,
) -> list[Instance]:
    """Deterministic list of seeded random instances for a campaign.

    Instance ``k`` uses seed ``seed + k``, so a campaign is fully
    reproducible from its keyword tuple.  With ``max_release > 0``
    every instance receives staggered per-processor release times (the
    online-arrival scenario axis) sampled from
    ``(arrival_seed or seed) + k`` on a decorrelated stream; 0 keeps
    the static model bit-identical to earlier campaigns.  With
    ``arrival_rate`` set, release times instead come from a Poisson
    arrival process at that intensity
    (:func:`repro.generators.poisson_arrivals` -- the steady-state
    utilization axis the FLOW experiment sweeps); ``max_release`` is
    then ignored.  With ``resources > 1`` every instance is lifted to
    that many shared resources (:func:`repro.generators.with_resources`
    with *resource_profile*) on a third decorrelated stream; 1 keeps
    the single-resource model bit-identical.  ``weights_profile`` and
    ``deadline_profile`` attach objective annotations
    (:func:`repro.generators.with_weights` /
    :func:`repro.generators.with_deadlines`) on two further
    decorrelated streams; the defaults (``"unit"`` / ``None``) keep
    the unannotated model bit-identical.
    """
    from ..generators import random_instances as gen

    families = {
        "uniform": lambda s: gen.uniform_instance(m, n, grid=grid, seed=s),
        "bimodal": lambda s: gen.bimodal_instance(m, n, grid=grid, seed=s),
        "heavy-tail": lambda s: gen.heavy_tail_instance(m, n, grid=grid, seed=s),
        "general": lambda s: gen.general_size_instance(m, n, grid=grid, seed=s),
        # A flat job bag dealt round-robin: the neutral baseline the
        # sequencing axis (BatchRunner(sequencer=...)) improves on.
        "bag": lambda s: gen.bag_instance(m, n, grid=grid, seed=s),
    }
    try:
        build = families[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; available: {sorted(families)}"
        ) from None
    instances = [build(seed + k) for k in range(count)]
    if resources > 1:
        base = seed if resource_seed is None else resource_seed
        instances = [
            gen.with_resources(
                inst,
                resources,
                profile=resource_profile,
                grid=grid,
                seed=base + k + _RESOURCE_SEED_OFFSET,
            )
            for k, inst in enumerate(instances)
        ]
    if weights_profile != "unit":
        base = seed if weight_seed is None else weight_seed
        instances = [
            gen.with_weights(
                inst,
                profile=weights_profile,
                max_weight=max_weight,
                seed=base + k + _WEIGHT_SEED_OFFSET,
            )
            for k, inst in enumerate(instances)
        ]
    if arrival_rate is not None:
        base = seed if arrival_seed is None else arrival_seed
        instances = [
            gen.with_poisson_arrivals(
                inst, rate=arrival_rate, seed=base + k + _ARRIVAL_SEED_OFFSET
            )
            for k, inst in enumerate(instances)
        ]
    elif max_release > 0:
        base = seed if arrival_seed is None else arrival_seed
        instances = [
            gen.with_arrivals(
                inst,
                max_release=max_release,
                seed=base + k + _ARRIVAL_SEED_OFFSET,
            )
            for k, inst in enumerate(instances)
        ]
    # Deadlines come last: the tightness profiles are drawn relative to
    # earliest completion times, which must already include releases.
    if deadline_profile is not None:
        base = seed if deadline_seed is None else deadline_seed
        instances = [
            gen.with_deadlines(
                inst,
                profile=deadline_profile,
                seed=base + k + _DEADLINE_SEED_OFFSET,
            )
            for k, inst in enumerate(instances)
        ]
    return instances
