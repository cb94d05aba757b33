"""Schedule quality metrics.

Everything the experiment harness reports about a schedule, in exact
arithmetic: objective values (makespan by default, any registered
objective on request), utilization/waste, ratios against lower bounds
and optima, and per-step traces for visualization.

Since the objective-layer refactor the makespan-specific numbers are
computed *through* the :class:`~repro.objectives.base.Objective`
protocol (``Makespan`` is pinned bit-identical to
``Schedule.makespan``), and :func:`compute_metrics` can evaluate any
set of registered objectives into an objective-keyed report.  The
module also ships independent closed-form evaluators
(:func:`weighted_flow_time`, :func:`total_tardiness`,
:func:`max_lateness`, :func:`deadline_misses`) that recompute the
flow/tardiness objectives directly from a schedule's completion
records -- the defense-in-depth cross-check the tests hold each
objective's :meth:`~repro.objectives.base.Objective.value_from_completions`
reduction against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable, Mapping

from ..core.lower_bounds import best_lower_bound
from ..core.numerics import as_float
from ..core.schedule import Schedule
from ..objectives import get_objective
from ..objectives.base import Objective

__all__ = [
    "ScheduleMetrics",
    "compute_metrics",
    "approximation_ratio",
    "total_completion_time",
    "mean_completion_time",
    "weighted_flow_time",
    "total_tardiness",
    "max_lateness",
    "deadline_misses",
]


@dataclass(frozen=True, slots=True)
class ScheduleMetrics:
    """Aggregate quality numbers for one schedule.

    Attributes:
        makespan: number of steps.
        total_work: the instance's total work (Observation 1 quantity).
        utilization: average fraction of capacity converted to work.
        waste: total capacity left unconverted, summed over steps.
        lower_bound: the strongest certificate lower bound available
            (Observation 1, length, and -- when the schedule is
            unit-size -- the Lemma 5/6 bounds derived from it).
        ratio_vs_lower_bound: ``makespan / lower_bound`` -- an upper
            bound on the true approximation ratio.
        objectives: objective-keyed report, one entry per evaluated
            objective: ``{"value", "lower_bound", "ratio"}``.  Always
            contains ``"makespan"``; more appear when
            :func:`compute_metrics` is asked for them.
    """

    makespan: int
    total_work: Fraction
    utilization: Fraction
    waste: Fraction
    lower_bound: int
    ratio_vs_lower_bound: Fraction
    objectives: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    def as_row(self) -> dict[str, object]:
        """Flat dict for table/CSV rendering (floats for readability).

        The legacy makespan columns keep their exact names and values;
        every additionally evaluated objective contributes
        ``<name>`` and ``<name>_ratio`` columns.
        """
        row: dict[str, object] = {
            "makespan": self.makespan,
            "total_work": round(as_float(self.total_work), 4),
            "utilization": round(as_float(self.utilization), 4),
            "waste": round(as_float(self.waste), 4),
            "lower_bound": self.lower_bound,
            "ratio_vs_lb": round(as_float(self.ratio_vs_lower_bound), 4),
        }
        for name, report in self.objectives.items():
            if name == "makespan":
                continue
            row[name] = round(float(report["value"]), 4)
            row[f"{name}_ratio"] = round(float(report["ratio"]), 4)
        return row


def compute_metrics(
    schedule: Schedule,
    *,
    objectives: Iterable[Objective | str] = (),
) -> ScheduleMetrics:
    """Compute :class:`ScheduleMetrics` for a validated schedule.

    Args:
        schedule: the schedule to grade.
        objectives: extra objectives (registry names or instances) to
            evaluate alongside the makespan; their reports land in
            :attr:`ScheduleMetrics.objectives`.

    The makespan entry uses :func:`repro.core.lower_bounds.best_lower_bound`
    (the schedule-certificate bound, stronger than the instance-only
    :meth:`~repro.objectives.makespan.Makespan.lower_bound`), keeping
    the legacy columns bit-identical to the pre-objective-layer output.
    """
    instance = schedule.instance
    makespan_obj = get_objective("makespan")
    makespan = makespan_obj.value(schedule)
    lb = best_lower_bound(instance, schedule if instance.is_unit_size else None)
    report: dict[str, dict[str, Any]] = {
        "makespan": {
            "value": makespan,
            "lower_bound": lb,
            "ratio": makespan_obj.ratio(makespan, lb),
        }
    }
    for entry in objectives:
        objective = get_objective(entry) if isinstance(entry, str) else entry
        if objective.name == "makespan":
            continue
        value = objective.value(schedule)
        bound = objective.lower_bound(instance)
        report[objective.name] = {
            "value": value,
            "lower_bound": bound,
            "ratio": objective.ratio(value, bound),
        }
    return ScheduleMetrics(
        makespan=makespan,
        total_work=instance.total_work(),
        utilization=schedule.utilization(),
        waste=schedule.total_waste(),
        lower_bound=lb,
        ratio_vs_lower_bound=Fraction(makespan, max(lb, 1)),
        objectives=report,
    )


def approximation_ratio(schedule: Schedule, optimal_makespan: int) -> Fraction:
    """Exact ``S / OPT`` (the paper's abuse of notation ``S/OPT``)."""
    if optimal_makespan <= 0:
        raise ValueError("optimal makespan must be positive")
    return Fraction(schedule.makespan, optimal_makespan)


def total_completion_time(schedule: Schedule) -> int:
    """Sum of (1-based) job completion steps.

    The discrete-continuous literature the paper builds on also studies
    mean completion/flow time (Józefowska & Weglarz 1996, cited as [10]);
    exposing the objective lets the ratio studies compare policies under
    it even though the paper's analysis targets the makespan.
    """
    return sum(t + 1 for t in schedule.completion_steps.values())


def mean_completion_time(schedule: Schedule) -> Fraction:
    """Average (1-based) completion step over all jobs."""
    total = total_completion_time(schedule)
    return Fraction(total, schedule.instance.total_jobs)


def weighted_flow_time(schedule: Schedule) -> Fraction:
    """:math:`F_w = \\sum w_{ij} (C_{ij} - r_i)`, computed directly.

    Independent of the reduction in :mod:`repro.objectives.flow`
    (a plain ``Fraction`` loop over the schedule's completion
    records); the tests assert the two agree.
    """
    instance = schedule.instance
    total = Fraction(0)
    for (i, j), t in schedule.completion_steps.items():
        total += instance.job(i, j).weight * (t + 1 - instance.release(i))
    return total


def total_tardiness(schedule: Schedule) -> Fraction:
    """:math:`\\sum w_{ij} \\max(0, C_{ij} - d_{ij})`, computed directly.

    Jobs without a deadline contribute nothing; the independent
    counterpart of the ``"tardiness"`` objective.
    """
    instance = schedule.instance
    total = Fraction(0)
    for (i, j), t in schedule.completion_steps.items():
        job = instance.job(i, j)
        if job.deadline is not None and t + 1 > job.deadline:
            total += job.weight * (t + 1 - job.deadline)
    return total


def max_lateness(schedule: Schedule) -> int:
    """:math:`L_{max} = \\max (C_{ij} - d_{ij})` over deadline jobs.

    0 when no job carries a deadline (matching the ``"max-lateness"``
    objective's convention); may be negative when every deadline is
    met with slack.
    """
    lateness = [
        t + 1 - job.deadline
        for (i, j), t in schedule.completion_steps.items()
        if (job := schedule.instance.job(i, j)).deadline is not None
    ]
    return max(lateness) if lateness else 0


def deadline_misses(schedule: Schedule) -> int:
    """Number of jobs completing after their due step.

    The independent counterpart of the ``"deadline-misses"``
    (feasibility-count) objective; 0 iff the schedule meets every
    deadline.
    """
    return len(schedule.lateness_by_job())
