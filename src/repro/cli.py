"""Command-line interface: ``crsharing`` / ``python -m repro``.

Subcommands:

* ``experiment <ID>`` -- run a paper experiment and print its table
  (optionally write CSV/SVG);
* ``list`` -- list experiments, policies, and backends;
* ``solve <instance.json>`` -- exact optimum of an instance file;
* ``run`` / ``schedule <instance.json> --policy NAME --backend
  {exact,vector}`` -- run a policy and render the schedule (``run`` is
  the canonical name, ``schedule`` the historical alias);
* ``batch`` -- run a seeded campaign of random instances through a
  backend, sharded over worker processes;
* ``crosscheck`` -- audit the vector backend against the exact one on
  random instances (``--certify`` additionally proves an optimality
  certificate per instance and asserts neither backend undercuts it);
* ``certify`` -- branch-and-bound over all queue orders of an
  instance and print the optimality certificate (value, witness
  order, nodes/pruned/bound-call counts, proved flag);
* ``bench-report`` -- summarize the timestamped ``BENCH_*.json``
  result stores under ``benchmarks/results/``;
* ``profile`` -- run a policy under telemetry and print the hot-spot
  table (time per kernel phase: query/check/apply/observers);
* ``demo`` -- a quick end-to-end tour on the Figure 1 instance.

``run``/``schedule``, ``batch`` and ``crosscheck`` also take the
telemetry flags: ``--trace FILE`` writes structured trace records
(``--trace-format jsonl`` for grep-able JSONL, ``chrome`` for a
Chrome ``trace_event`` file loadable at https://ui.perfetto.dev), and
``--metrics`` prints a prometheus-style metrics dump after the run.

``run``/``schedule``, ``batch`` and ``crosscheck`` all accept
``--arrivals MAX`` (with ``--arrival-seed``) to sample staggered
per-processor release times on ``0..MAX`` -- the online-arrival
scenario axis; 0 (the default) is the paper's static model.  They
likewise accept ``--resources K`` (with ``--resource-profile``) to
run the multi-resource extension: instances are lifted to ``K``
shared resources with per-job requirement vectors; 1 (the default)
is the paper's single-resource model.  The objective axis rides the
same commands: ``--objective`` selects any registered objective
(``makespan``, the default, reproduces the paper's reports
bit-identically), and ``--weights-profile`` / ``--deadline-profile``
attach seeded objective annotations to the instances.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from .algorithms import (
    available_policies,
    get_policy,
    opt_res_assignment,
    opt_res_assignment_general,
)
from .analysis import compute_metrics
from .backends import available_backends
from .core.hypergraph import SchedulingGraph
from .exceptions import ReproError
from .experiments import EXPERIMENTS, get_experiment
from .experiments.runner import run_experiment
from .io import load_instance, save_schedule
from .viz import (
    render_components,
    render_instance,
    render_schedule,
    schedule_svg,
)

__all__ = ["main", "build_parser"]


def _add_arrival_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--arrivals",
        type=int,
        default=0,
        metavar="MAX",
        help="sample per-processor release times on 0..MAX "
        "(0 = static model, the default)",
    )
    parser.add_argument(
        "--arrival-seed",
        type=int,
        default=None,
        help="seed for the arrival sampler (default: derived from the "
        "instance seed on a decorrelated stream)",
    )


def _add_objective_args(parser: argparse.ArgumentParser) -> None:
    from .generators import DEADLINE_PROFILES, WEIGHT_PROFILES
    from .objectives import available_objectives

    parser.add_argument(
        "--objective",
        choices=available_objectives(),
        default="makespan",
        help="scheduling objective to evaluate (makespan = the paper's "
        "objective, the default)",
    )
    parser.add_argument(
        "--weights-profile",
        choices=list(WEIGHT_PROFILES),
        default="unit",
        help="attach seeded per-job objective weights (unit = the "
        "unweighted model, the default)",
    )
    parser.add_argument(
        "--weight-seed",
        type=int,
        default=None,
        help="seed for the weight sampler (default: derived from the "
        "instance seed on a decorrelated stream)",
    )
    parser.add_argument(
        "--deadline-profile",
        choices=list(DEADLINE_PROFILES),
        default=None,
        help="attach seeded per-job deadlines of this tightness "
        "(default: no deadlines)",
    )
    parser.add_argument(
        "--deadline-seed",
        type=int,
        default=None,
        help="seed for the deadline sampler (default: derived from the "
        "instance seed on a decorrelated stream)",
    )


def _add_sequencer_args(parser: argparse.ArgumentParser) -> None:
    from .sequencing import available_sequencers

    parser.add_argument(
        "--sequencer",
        choices=available_sequencers(),
        default=None,
        help="re-derive per-processor queue orders before running "
        "(default: keep the instance's fixed order, the paper's model)",
    )
    parser.add_argument(
        "--search-budget",
        type=int,
        default=200,
        metavar="N",
        help="candidate evaluations per restart for the local-search "
        "sequencer (ignored by the static strategies)",
    )
    parser.add_argument(
        "--sequencer-seed",
        type=int,
        default=0,
        help="seed of the local-search move streams (restarts draw "
        "from decorrelated streams derived from it)",
    )
    parser.add_argument(
        "--batch-lanes",
        type=int,
        default=None,
        metavar="B",
        help="evaluate up to B candidate orders per batched kernel "
        "call in the local-search sequencer (default: 1, the classic "
        "sequential hill-climb; ignored by the static strategies)",
    )


def _sequencer_options(args: argparse.Namespace) -> dict:
    """Factory options for the selected sequencer, from CLI flags.

    The single flag-to-option mapping shared by every subcommand:
    run/schedule and crosscheck build the sequencer object through
    :func:`_resolve_sequencer_arg`, batch forwards name + options to
    the workers -- both read this dict, so a new local-search flag
    cannot drift between subcommands.
    """
    if args.sequencer != "local-search":
        return {}
    options = {
        "policy": args.policy,
        "budget": args.search_budget,
        "seed": args.sequencer_seed,
        "objective": getattr(args, "objective", "makespan"),
    }
    if getattr(args, "batch_lanes", None) is not None:
        options["batch_lanes"] = args.batch_lanes
    return options


def _resolve_sequencer_arg(args: argparse.Namespace):
    """Build the selected sequencer from CLI flags (None = fixed order)."""
    from .sequencing import get_sequencer

    if args.sequencer is None:
        return None
    return get_sequencer(args.sequencer, **_sequencer_options(args))


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help="write structured trace records (spans + events) of the "
        "run to FILE",
    )
    parser.add_argument(
        "--trace-format",
        choices=("jsonl", "chrome"),
        default="jsonl",
        help="trace file format: jsonl (one record per line) or chrome "
        "(trace_event JSON, loadable at https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print a prometheus-style metrics dump after the run",
    )


@contextmanager
def _telemetry(args: argparse.Namespace):
    """Install a telemetry session for one command when requested.

    No ``--trace`` / ``--metrics`` flag means no session at all (the
    zero-cost default).  Otherwise a fresh
    :class:`~repro.telemetry.TelemetrySession` is installed for the
    command's duration (tracing only when ``--trace`` asked for a
    file); on clean exit the trace file is written in the requested
    format and the metrics dump printed.
    """
    from .telemetry import (
        TelemetrySession,
        render_metrics,
        use_session,
        write_trace,
    )

    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    if trace_path is None and not want_metrics:
        yield None
        return
    session = TelemetrySession(tracing=trace_path is not None)
    with use_session(session):
        yield session
    if trace_path is not None:
        count = write_trace(
            session.tracer.records, trace_path, format=args.trace_format
        )
        print(
            f"trace: {count} records written to {trace_path} "
            f"({args.trace_format})"
        )
    if want_metrics:
        print(render_metrics(session.metrics), end="")


def _add_resource_args(parser: argparse.ArgumentParser) -> None:
    from .generators import RESOURCE_PROFILES

    parser.add_argument(
        "--resources",
        type=int,
        default=1,
        metavar="K",
        help="number of shared resources; instances are lifted to K "
        "per-job requirement vectors (1 = the paper's single-resource "
        "model, the default)",
    )
    parser.add_argument(
        "--resource-profile",
        choices=list(RESOURCE_PROFILES),
        default="independent",
        help="how resources 1..K-1 relate to resource 0 when lifting",
    )
    parser.add_argument(
        "--resource-seed",
        type=int,
        default=None,
        help="seed for the extra-resource sampler (default: derived "
        "from the instance seed on a decorrelated stream)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crsharing",
        description=(
            "Reproduction toolkit for 'Scheduling Shared Continuous "
            "Resources on Many-Cores' (Althaus et al.)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list experiments and policies")

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    p_exp.add_argument("id", help=f"experiment id, one of {sorted(EXPERIMENTS)}")
    p_exp.add_argument("--csv", type=Path, help="write the rows as CSV")
    p_exp.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="simulation backend (experiments that simulate accept it; "
        "exact-claim experiments reject non-exact backends)",
    )

    p_solve = sub.add_parser("solve", help="exact optimum of an instance file")
    p_solve.add_argument("instance", type=Path)

    for cmd, help_text in (
        ("run", "run a policy on an instance file"),
        ("schedule", "alias of `run` (historical name)"),
    ):
        p_sched = sub.add_parser(cmd, help=help_text)
        p_sched.add_argument("instance", type=Path)
        p_sched.add_argument(
            "--policy",
            default="greedy-balance",
            help=f"one of {available_policies()}",
        )
        p_sched.add_argument(
            "--backend",
            choices=available_backends(),
            default="exact",
            help="simulation engine: exact Fractions or vectorized float64",
        )
        _add_arrival_args(p_sched)
        _add_resource_args(p_sched)
        _add_objective_args(p_sched)
        _add_sequencer_args(p_sched)
        _add_telemetry_args(p_sched)
        p_sched.add_argument("--svg", type=Path, help="write a Gantt SVG")
        p_sched.add_argument("--json", type=Path, help="write the schedule as JSON")

    p_batch = sub.add_parser(
        "batch", help="run a campaign of random instances through a backend"
    )
    p_batch.add_argument("--policy", default="greedy-balance")
    p_batch.add_argument("--backend", choices=available_backends(), default="vector")
    p_batch.add_argument(
        "--family",
        default="uniform",
        choices=["uniform", "bimodal", "heavy-tail", "general", "bag"],
    )
    p_batch.add_argument("--count", type=int, default=100, help="instances to run")
    p_batch.add_argument("--m", type=int, default=16, help="processors per instance")
    p_batch.add_argument("--n", type=int, default=10, help="jobs per processor")
    p_batch.add_argument("--grid", type=int, default=100, help="requirement grid")
    p_batch.add_argument("--seed", type=int, default=0, help="base seed")
    p_batch.add_argument(
        "--workers", type=int, default=None, help="worker processes (1 = serial)"
    )
    p_batch.add_argument(
        "--execution",
        choices=["processes", "batched"],
        default="processes",
        help="campaign execution mode: shard across worker processes "
        "(the default) or step the whole campaign in-process through "
        "the batched vector engine (requires --backend vector)",
    )
    _add_arrival_args(p_batch)
    _add_resource_args(p_batch)
    _add_objective_args(p_batch)
    _add_sequencer_args(p_batch)
    _add_telemetry_args(p_batch)
    p_batch.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="sample release times from a Poisson process at this "
        "intensity instead of the uniform 0..MAX spread",
    )
    p_batch.add_argument("--json", type=Path, help="write the result store as JSON")
    p_batch.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help="content-addressed result cache: reuse rows computed by "
        "earlier campaigns with the same instances/policy/objective/"
        "sequencer, compute and cache only the misses",
    )

    p_cross = sub.add_parser(
        "crosscheck", help="audit vector-backend agreement with the exact backend"
    )
    p_cross.add_argument("--policy", default="greedy-balance")
    p_cross.add_argument("--count", type=int, default=50)
    p_cross.add_argument("--m", type=int, default=4)
    p_cross.add_argument("--n", type=int, default=6)
    p_cross.add_argument("--grid", type=int, default=100)
    p_cross.add_argument("--seed", type=int, default=0)
    p_cross.add_argument("--rtol", type=float, default=1e-9)
    p_cross.add_argument(
        "--certify",
        action="store_true",
        help="also certify each instance's optimal queue order and "
        "assert neither backend finishes below the proved optimum",
    )
    p_cross.add_argument(
        "--certify-max-nodes",
        type=int,
        default=100_000,
        help="branch-and-bound node budget for --certify",
    )
    _add_arrival_args(p_cross)
    _add_resource_args(p_cross)
    _add_objective_args(p_cross)
    _add_sequencer_args(p_cross)
    _add_telemetry_args(p_cross)

    p_certify = sub.add_parser(
        "certify",
        help="certify the optimal queue order of an instance "
        "(branch-and-bound over all per-queue permutations)",
    )
    p_certify.add_argument(
        "instance",
        nargs="?",
        type=Path,
        default=None,
        help="instance file to certify (default: a seeded random "
        "instance shaped by --m/--n/--grid/--seed)",
    )
    p_certify.add_argument(
        "--policy",
        default=None,
        help="certify the best order FOR THIS POLICY (epsilon mode, "
        "simulated through --backend) instead of the offline optimum",
    )
    p_certify.add_argument(
        "--backend",
        choices=available_backends(),
        default="vector",
        help="simulation backend for --policy certification",
    )
    p_certify.add_argument(
        "--oracle",
        choices=["auto", "opt-two", "opt-general", "brute-force", "milp"],
        default="auto",
        help="per-order exact oracle for offline-optimum certification",
    )
    p_certify.add_argument(
        "--max-nodes",
        type=int,
        default=100_000,
        help="branch-and-bound node budget (exhausting it returns an "
        "unproved upper bound)",
    )
    p_certify.add_argument(
        "--m", type=int, default=2, help="processors (generated instance)"
    )
    p_certify.add_argument(
        "--n", type=int, default=4, help="jobs per processor (generated)"
    )
    p_certify.add_argument(
        "--grid", type=int, default=100, help="requirement grid (generated)"
    )
    p_certify.add_argument(
        "--seed", type=int, default=0, help="instance seed (generated)"
    )
    p_certify.add_argument(
        "--json", type=Path, help="write the certificate as JSON"
    )
    _add_telemetry_args(p_certify)

    p_verify = sub.add_parser(
        "verify", help="validate a schedule file and report its properties"
    )
    p_verify.add_argument("schedule", type=Path)

    p_bench = sub.add_parser(
        "bench-report",
        help="summarize the timestamped BENCH_*.json benchmark stores",
    )
    p_bench.add_argument(
        "--results",
        type=Path,
        default=Path("benchmarks") / "results",
        help="results directory (default: benchmarks/results)",
    )
    p_bench.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless every store parses, carries rows, "
        "and at least one renders non-empty highlights (the CI gate "
        "against silently-empty benchmark artifacts)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the always-on scheduling service over an arrival "
        "stream (JSONL trace or Poisson) and print the steady-state "
        "report",
    )
    # dest must not collide with the telemetry --trace option below,
    # or the trace exporter would clobber the input file on exit.
    p_serve.add_argument(
        "arrivals_trace",
        nargs="?",
        type=Path,
        default=None,
        metavar="trace",
        help="JSONL arrival trace to replay (default: a seeded "
        "Poisson stream shaped by --rate/--count/--stream-seed)",
    )
    p_serve.add_argument(
        "--policy",
        default="greedy-balance",
        help=f"one of {available_policies()}",
    )
    p_serve.add_argument(
        "--backend",
        choices=["exact", "vector"],
        default="vector",
        help="kernel backend for the service runtime",
    )
    p_serve.add_argument(
        "--admission",
        default="accept-all",
        help="admission policy (see `crsharing list`): accept-all, "
        "utilization-cap, deadline-feasibility",
    )
    p_serve.add_argument(
        "--cap",
        type=float,
        default=0.9,
        help="utilization-cap: target utilization in (0, 1]",
    )
    p_serve.add_argument(
        "--window",
        type=int,
        default=64,
        help="utilization-cap: work-buffer size in steps",
    )
    p_serve.add_argument(
        "--max-queues",
        type=int,
        default=8,
        help="logical queue cap (the service's core count)",
    )
    p_serve.add_argument(
        "--rate",
        type=float,
        default=1.0,
        help="Poisson stream: arrival intensity per step",
    )
    p_serve.add_argument(
        "--count",
        type=int,
        default=100,
        help="Poisson stream: number of arrivals",
    )
    p_serve.add_argument(
        "--stream-seed",
        type=int,
        default=0,
        help="Poisson stream: RNG seed (same seed, same stream)",
    )
    p_serve.add_argument(
        "--event-log",
        type=Path,
        default=None,
        metavar="FILE",
        help="record the replayable event log (JSONL) to FILE",
    )
    p_serve.add_argument(
        "--json", type=Path, help="write the service report as JSON"
    )
    _add_telemetry_args(p_serve)

    p_replay = sub.add_parser(
        "replay",
        help="deterministically re-run a recorded service event log "
        "and verify every admission decision",
    )
    p_replay.add_argument("log", type=Path, help="event log from serve --event-log")
    p_replay.add_argument(
        "--json", type=Path, help="write the replayed report as JSON"
    )
    _add_telemetry_args(p_replay)

    p_prof = sub.add_parser(
        "profile",
        help="profile a policy run and print the kernel hot-spot table",
    )
    p_prof.add_argument(
        "instance",
        nargs="?",
        type=Path,
        default=None,
        help="instance file to profile (default: a seeded random "
        "instance shaped by --m/--n/--grid/--seed)",
    )
    p_prof.add_argument(
        "--policy",
        default="greedy-balance",
        help=f"one of {available_policies()}",
    )
    p_prof.add_argument(
        "--backend", choices=available_backends(), default="exact"
    )
    p_prof.add_argument(
        "--m", type=int, default=8, help="processors (generated instance)"
    )
    p_prof.add_argument(
        "--n", type=int, default=12, help="jobs per processor (generated)"
    )
    p_prof.add_argument(
        "--grid", type=int, default=100, help="requirement grid (generated)"
    )
    p_prof.add_argument(
        "--seed", type=int, default=0, help="instance seed (generated)"
    )
    p_prof.add_argument(
        "--repeat",
        type=int,
        default=3,
        metavar="N",
        help="profiled runs to aggregate (default 3)",
    )

    sub.add_parser("demo", help="quick tour on the Figure 1 example")
    return parser


def _cmd_list() -> int:
    from .objectives import available_objectives
    from .sequencing import available_sequencers
    from .service import available_admission

    experiments = list(EXPERIMENTS.values())
    policies = available_policies()
    backends = available_backends()
    objectives = available_objectives()
    sequencers = available_sequencers()
    print(f"experiments ({len(experiments)}):  run with `crsharing experiment <ID>`")
    for exp in experiments:
        print(f"  {exp.id:<9} {exp.title}")
    print()
    print(f"policies ({len(policies)}):  select with `--policy <name>`")
    for name in policies:
        print(f"  {name}")
    print()
    print(f"backends ({len(backends)}):  select with `--backend <name>`")
    for name in backends:
        print(f"  {name}")
    print()
    print(f"objectives ({len(objectives)}):  select with `--objective <name>`")
    for name in objectives:
        print(f"  {name}")
    print()
    print(f"sequencers ({len(sequencers)}):  select with `--sequencer <name>`")
    for name in sequencers:
        print(f"  {name}")
    print()
    admission = available_admission()
    print(
        f"admission policies ({len(admission)}):  select with "
        "`serve --admission <name>`"
    )
    for name in admission:
        print(f"  {name}")
    print()
    print(
        "scenario axes on run/schedule, batch, crosscheck:\n"
        "  --arrivals MAX   staggered per-processor release times "
        "(0 = the paper's static model)\n"
        "  --resources K    K shared resources with per-job requirement "
        "vectors (1 = the paper's model)\n"
        "  --objective NAME    evaluate a registered objective "
        "(makespan = the paper's objective)\n"
        "  --weights-profile / --deadline-profile    seeded objective "
        "annotations (weights, due steps)\n"
        "  --sequencer NAME    re-derive per-processor queue orders "
        "(omit = the paper's fixed-order model;\n"
        "      local-search takes --search-budget / --sequencer-seed)"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    exp = get_experiment(args.id)
    result = run_experiment(exp, backend=args.backend)
    print(result.to_text())
    if args.csv:
        result.to_csv(args.csv)
        print(f"rows written to {args.csv}")
    return 0 if result.verdict in (True, None) else 1


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    print(render_instance(instance))
    if instance.num_processors == 2:
        result = opt_res_assignment(instance)
    else:
        result = opt_res_assignment_general(instance)
    print(f"optimal makespan: {result.makespan}")
    print(render_schedule(result.schedule))
    return 0


def _annotate_objective_axes(args: argparse.Namespace, instance):
    """Apply --weights-profile / --deadline-profile lifts (run/schedule)."""
    from .generators import with_deadlines, with_weights

    if args.weights_profile != "unit":
        weight_seed = 0 if args.weight_seed is None else args.weight_seed
        instance = with_weights(
            instance, profile=args.weights_profile, seed=weight_seed
        )
        print(
            f"weights: {args.weights_profile} profile (seed {weight_seed})"
        )
    if args.deadline_profile is not None:
        deadline_seed = 0 if args.deadline_seed is None else args.deadline_seed
        instance = with_deadlines(
            instance, profile=args.deadline_profile, seed=deadline_seed
        )
        print(
            f"deadlines: {args.deadline_profile} profile "
            f"(seed {deadline_seed})"
        )
    return instance


def _cmd_schedule(args: argparse.Namespace) -> int:
    from .generators import with_arrivals, with_resources

    instance = load_instance(args.instance)
    if args.resources > 1 and instance.num_resources == 1:
        resource_seed = 0 if args.resource_seed is None else args.resource_seed
        instance = with_resources(
            instance,
            args.resources,
            profile=args.resource_profile,
            seed=resource_seed,
        )
        print(
            f"resources: lifted to k={args.resources} "
            f"({args.resource_profile} profile, seed {resource_seed})"
        )
    if args.arrivals:
        arrival_seed = 0 if args.arrival_seed is None else args.arrival_seed
        instance = with_arrivals(
            instance, max_release=args.arrivals, seed=arrival_seed
        )
        print(
            f"arrivals: releases={list(instance.releases)} "
            f"(max {args.arrivals}, seed {arrival_seed})"
        )
    instance = _annotate_objective_axes(args, instance)
    sequencer = _resolve_sequencer_arg(args)
    if sequencer is not None:
        instance = sequencer.sequence(instance)
        print(f"sequencer: {args.sequencer} (queue orders re-derived)")
    policy = get_policy(args.policy)
    if args.backend != "exact" or instance.num_resources > 1:
        # Multi-resource runs have no exact Schedule artifact either;
        # they report through the backend-result path.
        return _cmd_schedule_backend(args, instance, policy)
    schedule = policy.run(instance)
    print(render_instance(instance))
    print()
    print(render_schedule(schedule))
    extra = () if args.objective == "makespan" else (args.objective,)
    metrics = compute_metrics(schedule, objectives=extra)
    print(f"metrics: {metrics.as_row()}")
    if extra:
        report = metrics.objectives[args.objective]
        print(
            f"objective {args.objective}: value={float(report['value']):g} "
            f"lower_bound={float(report['lower_bound']):g} "
            f"ratio={report['ratio']:g}"
        )
    if args.svg:
        # Label the Gantt with the full decision triple; the sequencer
        # changed the executed order, so the title must say so.
        title = args.policy
        if args.sequencer is not None:
            title = f"{args.policy} · order: {args.sequencer}"
        args.svg.write_text(schedule_svg(schedule, title=title))
        print(f"SVG written to {args.svg}")
    if args.json:
        save_schedule(schedule, args.json)
        print(f"JSON written to {args.json}")
    return 0


def _cmd_schedule_backend(args: argparse.Namespace, instance, policy) -> int:
    """Non-exact schedule run: report makespan + tolerant audit (the
    float backends produce no exact Schedule artifact to render)."""
    from .analysis import verify_share_rows
    from .core.simulator import run_policy
    from .objectives import get_objective

    objectives = () if args.objective == "makespan" else (args.objective,)
    result = run_policy(
        instance, policy, backend=args.backend, objectives=objectives
    )
    print(render_instance(instance))
    print()
    print(f"backend: {result.backend}")
    print(f"makespan: {result.makespan}")
    for name, value in result.objective_values.items():
        objective = get_objective(name)
        bound = objective.lower_bound(instance)
        print(
            f"objective {name}: value={float(value):g} "
            f"lower_bound={float(bound):g} "
            f"ratio={objective.ratio(value, bound):g}"
        )
    report = verify_share_rows(instance, result.shares)
    print(f"feasible (tolerance 1e-9): {report.ok}")
    for problem in report.problems:
        print(f"  problem: {problem}")
    if args.svg or args.json:
        print(
            "note: --svg/--json need the exact schedule artifact; "
            "re-run with --backend exact"
        )
    return 0 if report.ok else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    from .backends import BatchRunner, make_campaign_instances

    instances = make_campaign_instances(
        args.count,
        args.m,
        args.n,
        family=args.family,
        grid=args.grid,
        seed=args.seed,
        max_release=args.arrivals,
        arrival_seed=args.arrival_seed,
        arrival_rate=args.arrival_rate,
        resources=args.resources,
        resource_profile=args.resource_profile,
        resource_seed=args.resource_seed,
        weights_profile=args.weights_profile,
        weight_seed=args.weight_seed,
        deadline_profile=args.deadline_profile,
        deadline_seed=args.deadline_seed,
    )
    objectives = () if args.objective == "makespan" else (args.objective,)
    runner = BatchRunner(
        policy=args.policy,
        backend=args.backend,
        workers=args.workers,
        objectives=objectives,
        sequencer=args.sequencer,
        sequencer_options=_sequencer_options(args),
        execution=args.execution,
    )
    if args.store is not None:
        import time as _time

        from .backends.batch import BatchResult
        from .service import ResultStore, run_cached_campaign

        store = ResultStore(args.store)
        t0 = _time.perf_counter()
        rows = run_cached_campaign(instances, runner, store)
        result = BatchResult(
            policy=runner.policy,
            backend=runner.backend,
            workers=runner.workers,
            rows=rows,
            wall_seconds=_time.perf_counter() - t0,
            objectives=runner.objectives,
            sequencer=runner.sequencer,
            execution=runner.execution,
        )
    else:
        result = runner.run(instances)
    summary = result.summary()
    arrivals = (
        f"poisson(rate={args.arrival_rate:g})"
        if args.arrival_rate is not None
        else args.arrivals
    )
    print(
        f"campaign: {args.count} x {args.family}(m={args.m}, n={args.n}, "
        f"grid={args.grid}) seed={args.seed} arrivals={arrivals} "
        f"resources={args.resources} objective={args.objective} "
        f"sequencer={args.sequencer or 'fixed (as built)'}"
    )
    for key in (
        "policy",
        "backend",
        "workers",
        "sequencer",
        "execution",
        "mean_makespan",
        "mean_ratio",
        "max_ratio",
        "total_steps",
        "wall_seconds",
        "steps_per_second",
    ):
        if key not in summary:
            continue
        value = summary[key]
        if isinstance(value, float):
            value = f"{value:.6g}"
        print(f"  {key}: {value}")
    for name, report in summary.get("objectives", {}).items():
        mean_ratio = report["mean_ratio"]
        ratio_text = (
            f"{mean_ratio:.6g}" if mean_ratio is not None else "n/a (bound 0)"
        )
        print(
            f"  objective {name}: mean_value={report['mean_value']:.6g} "
            f"max_value={report['max_value']:.6g} "
            f"mean_ratio={ratio_text}"
        )
    if args.store is not None:
        print(
            f"  result cache: {store.hits} hits, {store.misses} misses "
            f"({args.store})"
        )
    if args.json:
        result.to_json(args.json)
        print(f"result store written to {args.json}")
    return 0


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    from .backends import cross_validate
    from .backends.batch import make_campaign_instances

    policy = get_policy(args.policy)
    instances = make_campaign_instances(
        args.count,
        args.m,
        args.n,
        grid=args.grid,
        seed=args.seed,
        max_release=args.arrivals,
        arrival_seed=args.arrival_seed,
        resources=args.resources,
        resource_profile=args.resource_profile,
        resource_seed=args.resource_seed,
        weights_profile=args.weights_profile,
        weight_seed=args.weight_seed,
        deadline_profile=args.deadline_profile,
        deadline_seed=args.deadline_seed,
    )
    objectives = () if args.objective == "makespan" else (args.objective,)
    sequencer = _resolve_sequencer_arg(args)
    worst_rel = 0.0
    worst_dev = 0.0
    worst_obj = 0.0
    failures = 0
    certified = 0
    worst_gap = 0.0
    for k, instance in enumerate(instances):
        check = cross_validate(
            instance,
            policy,
            rtol=args.rtol,
            objectives=objectives,
            sequencer=sequencer,
            certify=args.certify,
            certify_max_nodes=args.certify_max_nodes,
        )
        if check.certificate is not None and check.certificate.proved:
            certified += 1
            worst_gap = max(worst_gap, check.opt_gap)
        worst_rel = max(worst_rel, check.makespan_rel_error)
        if check.max_share_deviation is not None:
            worst_dev = max(worst_dev, check.max_share_deviation)
        if check.max_objective_error is not None:
            worst_obj = max(worst_obj, check.max_objective_error)
        if not check.ok:
            failures += 1
            print(
                f"  MISMATCH seed={args.seed + k}: exact={check.exact_makespan} "
                f"vector={check.vector_makespan}"
                + (
                    f" objective_values={check.objective_values}"
                    if check.objective_values
                    else ""
                )
            )
    print(
        f"crosscheck: {args.count} instances, policy={args.policy}, "
        f"m={args.m}, n={args.n}, arrivals={args.arrivals}, "
        f"resources={args.resources}, objective={args.objective}, "
        f"sequencer={args.sequencer or 'fixed (as built)'}"
    )
    print(f"  max relative makespan error: {worst_rel:.3g} (rtol {args.rtol:.3g})")
    print(f"  max per-step share deviation: {worst_dev:.3g}")
    if objectives:
        print(f"  max relative objective error: {worst_obj:.3g}")
    if args.certify:
        print(
            f"  certified: {certified}/{args.count} proved, worst "
            f"optimality gap {worst_gap:.3g} (no backend undercut OPT)"
        )
    print(f"  result: {'OK' if failures == 0 else f'{failures} FAILURES'}")
    return 0 if failures == 0 else 1


def _cmd_certify(args: argparse.Namespace) -> int:
    from .analysis import certify_opt
    from .generators.random_instances import uniform_instance

    if args.instance is not None:
        instance = load_instance(args.instance)
        source = str(args.instance)
    else:
        instance = uniform_instance(
            args.m, args.n, grid=args.grid, seed=args.seed
        )
        source = f"uniform(m={args.m}, n={args.n}, seed={args.seed})"
    cert = certify_opt(
        instance,
        oracle=args.oracle,
        policy=args.policy,
        backend=args.backend,
        max_nodes=args.max_nodes,
    )
    target = (
        "offline optimum (exact oracles)"
        if args.policy is None
        else f"best order for policy {args.policy!r} ({cert.mode} mode)"
    )
    print(f"certify: {source}")
    print(f"  target: {target}")
    status = (
        "PROVED optimal"
        if cert.proved
        else "upper bound only -- node budget exhausted, raise --max-nodes"
    )
    print(f"  certified value: {cert.value} ({status})")
    print(f"  witness order: {[list(row) for row in cert.order]}")
    print(
        f"  search: {cert.nodes} nodes, {cert.pruned} pruned, "
        f"{cert.bound_calls} bound calls, {cert.leaf_evaluations} leaf "
        f"evaluations over an order space of {cert.order_space}"
    )
    print(
        f"  global lower bound: {cert.lower_bound}; "
        f"wall time: {cert.seconds:.3f}s"
    )
    if args.json is not None:
        import json as _json

        args.json.write_text(_json.dumps(cert.summary(), indent=2) + "\n")
        print(f"  certificate written to {args.json}")
    return 0 if cert.proved else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from .analysis import verify_schedule
    from .core.properties import is_balanced, is_nested, is_non_wasting, is_progressive
    from .io import load_schedule

    schedule = load_schedule(args.schedule)
    report = verify_schedule(schedule)
    print(f"makespan: {schedule.makespan}")
    print(f"feasible: {report.ok}")
    for problem in report.problems:
        print(f"  problem: {problem}")
    if report.ok:
        print(f"non-wasting: {is_non_wasting(schedule)}")
        print(f"progressive: {is_progressive(schedule)}")
        print(f"nested:      {is_nested(schedule)}")
        print(f"balanced:    {is_balanced(schedule)}")
        print(f"metrics: {compute_metrics(schedule).as_row()}")
    return 0 if report.ok else 1


def _cmd_bench_report(args: argparse.Namespace) -> int:
    """Summarize the timestamped BENCH_*.json stores in one table."""
    import json as _json

    from .experiments.runner import format_table

    results: Path = args.results
    check: bool = getattr(args, "check", False)
    paths = sorted(results.glob("BENCH_*.json"))
    if not paths:
        print(f"no BENCH_*.json stores under {results}")
        return 1
    rows = []
    problems: list[str] = []
    nonempty_highlights = 0
    for path in paths:
        try:
            data = _json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"{path.name}: unreadable ({exc})")
            rows.append(
                {"benchmark": path.stem, "generated_at": f"unreadable: {exc}"}
            )
            continue
        bench_rows = data.get("rows", [])
        highlights = []
        # Surface whichever headline figures the store carries; bench
        # schemas differ, so pick known keys from the last row (the
        # largest configuration by convention).
        if bench_rows:
            last = bench_rows[-1]
            for key in (
                "speedup",
                "overhead_pct",
                "overhead_disabled_pct",
                "overhead_enabled_pct",
                "vector_steps_per_s",
                "mean_ratio",
                "eval_speedup",
                "evals_per_second",
                "node_fraction",
                "proved",
                "verdict",
            ):
                if key in last:
                    highlights.append(f"{key}={last[key]}")
        if data.get("verdict") is not None:
            highlights.append(f"verdict={data['verdict']}")
        if not bench_rows:
            problems.append(f"{path.name}: empty rows")
        if highlights:
            nonempty_highlights += 1
        rows.append(
            {
                "benchmark": data.get("benchmark", path.stem),
                "generated_at": data.get("generated_at", "-"),
                "rows": len(bench_rows),
                "highlights": ", ".join(highlights) or "-",
            }
        )
    print(f"benchmark stores under {results} ({len(rows)}):")
    print(
        format_table(
            ["benchmark", "generated_at", "rows", "highlights"], rows
        )
    )
    _print_search_throughput(results)
    if check:
        if nonempty_highlights == 0:
            problems.append("no store renders any highlights")
        if problems:
            print("\nbench-report --check FAILED:")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(
            f"\nbench-report --check OK: {len(paths)} stores, "
            f"{nonempty_highlights} with highlights"
        )
    return 0


def _print_search_throughput(results: Path) -> None:
    """Cross-store search-throughput digest for ``bench-report``.

    Collects the local-search evaluation-loop figures from
    ``BENCH_sequencing.json`` (single-instance vector loop vs exact)
    and ``BENCH_batched_evals.json`` (batched engine vs single-
    instance loop, plus the raw batched-steps/s series), so the
    search-speed trajectory reads off one block instead of three
    stores.  Silently prints nothing when neither store exists.
    """
    import json as _json

    lines = []
    try:
        data = _json.loads((results / "BENCH_sequencing.json").read_text())
        last = data["rows"][-1]
        lines.append(
            f"single-instance vector loop: "
            f"{last['evals_per_second']} evals/s at m={last['m']} "
            f"({last['eval_speedup']}x over exact re-evaluation)"
        )
    except (OSError, ValueError, LookupError):
        pass
    try:
        data = _json.loads((results / "BENCH_batched_evals.json").read_text())
        last = data["rows"][-1]
        lines.append(
            f"batched engine ({last['batch_lanes']} lanes): "
            f"{last['batched_evals_per_second']} evals/s at m={last['m']} "
            f"({last['eval_speedup']}x over the single-instance loop)"
        )
        for row in data.get("steps_series", []):
            lines.append(
                f"batched steps/s at m={row['m']}: "
                f"{row['batched_steps_per_second']} vs "
                f"{row['vector_steps_per_second']} single-instance"
            )
    except (OSError, ValueError, LookupError):
        pass
    if lines:
        print()
        print("search throughput (local-search evaluation loop):")
        for line in lines:
            print(f"  {line}")


def _cmd_serve(args: argparse.Namespace) -> int:
    """Drive the scheduling service over a trace or Poisson stream."""
    import json as _json

    from .service import (
        PoissonStream,
        SchedulingService,
        TraceStream,
        get_admission,
        write_event_log,
    )

    if args.admission == "utilization-cap":
        admission = get_admission(
            "utilization-cap", cap=args.cap, window=args.window
        )
    else:
        admission = get_admission(args.admission)
    if args.arrivals_trace is not None:
        stream = TraceStream.from_path(args.arrivals_trace)
        source = str(args.arrivals_trace)
    else:
        stream = PoissonStream(
            rate=args.rate, count=args.count, seed=args.stream_seed
        )
        source = (
            f"poisson(rate={args.rate:g}, count={args.count}, "
            f"seed={args.stream_seed})"
        )
    service = SchedulingService(
        policy=args.policy,
        backend=args.backend,
        admission=admission,
        max_queues=args.max_queues,
    )
    report = service.run_stream(stream)
    print(f"serve: {source} ({len(stream)} arrivals)")
    print(report.render())
    if args.event_log is not None:
        count = write_event_log(
            service.config(), service.event_log, args.event_log
        )
        print(f"event log: {count} lines written to {args.event_log}")
    if args.json is not None:
        args.json.write_text(_json.dumps(report.to_dict(), indent=2))
        print(f"report written to {args.json}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Re-run a recorded event log and verify it is deterministic."""
    import json as _json

    from .exceptions import ServiceError
    from .service import read_event_log, replay_log

    config, records = read_event_log(args.log)
    arrivals = sum(1 for r in records if r.get("type") == "arrival")
    try:
        report, _service = replay_log(config, records)
    except ServiceError as exc:
        print(f"replay FAILED: {exc}")
        return 1
    print(f"replay: {args.log} ({arrivals} arrivals, {len(records)} events)")
    print(report.render())
    print("deterministic: every recorded admission decision re-derived")
    if args.json is not None:
        args.json.write_text(_json.dumps(report.to_dict(), indent=2))
        print(f"report written to {args.json}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run a policy under a metrics-only telemetry session and print
    where the kernel's wall time goes (the hot-spot table)."""
    from .core.simulator import run_policy
    from .experiments.runner import format_table
    from .telemetry import TelemetrySession, phase_report, use_session

    if args.instance is not None:
        instance = load_instance(args.instance)
        source = str(args.instance)
    else:
        from .generators import random_instances as gen

        instance = gen.uniform_instance(
            args.m, args.n, grid=args.grid, seed=args.seed
        )
        source = (
            f"uniform(m={args.m}, n={args.n}, grid={args.grid}, "
            f"seed={args.seed})"
        )
    session = TelemetrySession(tracing=False)
    with use_session(session):
        for _ in range(max(1, args.repeat)):
            result = run_policy(
                instance, args.policy, backend=args.backend,
                record_shares=False,
            )
    report = phase_report(session.metrics)
    print(
        f"profile: {source} policy={args.policy} backend={args.backend} "
        f"runs={report['runs']} makespan={result.makespan}"
    )
    print(
        format_table(
            ["phase", "calls", "total_s", "mean_us", "share"],
            report["rows"],
        )
    )
    print(
        f"kernel wall time: {report['wall_seconds']:.6f}s  "
        f"attributed to phases: {report['attributed'] * 100:.1f}%"
    )
    return 0


def _cmd_demo() -> int:
    from .algorithms import GreedyBalance
    from .generators import fig1_instance

    instance = fig1_instance()
    print("Figure 1 instance:")
    print(render_instance(instance))
    schedule = GreedyBalance().run(instance)
    print("\nGreedyBalance schedule:")
    print(render_schedule(schedule))
    graph = SchedulingGraph(schedule)
    print("\nScheduling hypergraph:")
    print(render_components(graph))
    print(f"\nmetrics: {compute_metrics(schedule).as_row()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; its exit status.

    A library error or an unreadable file escaping the subcommand is
    printed as one ``crsharing: error: ...`` line on stderr and exits
    with status 2, like an argparse usage error.
    """
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ReproError, OSError) as exc:
        message = " ".join(str(exc).split())
        print(f"crsharing: error: {message}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command in ("run", "schedule"):
        with _telemetry(args):
            return _cmd_schedule(args)
    if args.command == "batch":
        with _telemetry(args):
            return _cmd_batch(args)
    if args.command == "crosscheck":
        with _telemetry(args):
            return _cmd_crosscheck(args)
    if args.command == "certify":
        with _telemetry(args):
            return _cmd_certify(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "bench-report":
        return _cmd_bench_report(args)
    if args.command == "serve":
        with _telemetry(args):
            return _cmd_serve(args)
    if args.command == "replay":
        with _telemetry(args):
            return _cmd_replay(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "demo":
        return _cmd_demo()
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
