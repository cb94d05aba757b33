"""Objective-aware policies: deadline (EDF) and weighted flow (SRPT).

The water-filling mechanism (:func:`repro.algorithms.base.water_fill`)
separates *what order* from *how to grant*: every policy here is a
:class:`~repro.algorithms.base.WaterFillPolicy` that only declares a
priority ``key``, so both inherit non-wasting, progressive grants, the
multi-resource (``k > 1``) generalization, and the vector and batched
float paths from that one declaration.

:class:`EDFWaterfill`
    Earliest-deadline-first water-filling for the tardiness/lateness
    objectives (the slack-priority policy the deadline literature
    suggests): among active jobs, the one whose due step is nearest --
    equivalently the one with the least slack ``d - t``, since ``t``
    is common to all jobs within a step -- drinks first.  Jobs without
    a deadline queue behind all deadline-carrying jobs.

:class:`WeightedSRPT`
    Weighted shortest-remaining-processing-time water-filling for the
    weighted flow objective, generalizing
    :class:`~repro.algorithms.heuristics.GreedyFinishJobs`: priority by
    smallest ``remaining work / weight``, so with unit weights the
    order (and therefore the schedule) is exactly GreedyFinishJobs'.
    Classic flow-time scheduling (SRPT and its weighted variants, cf.
    the mean response time literature) motivates the rule.
"""

from __future__ import annotations

from .base import WaterFillPolicy, register_policy

__all__ = ["EDFWaterfill", "WeightedSRPT"]


@register_policy
class EDFWaterfill(WaterFillPolicy):
    """Earliest-deadline-first water-filling (tardiness-tuned).

    Priority: ascending due step of the active job (``inf`` for jobs
    without one), ties broken by smaller remaining work (finish the
    cheaper of two equally urgent jobs, maximizing completions), then
    processor index.  On instances without any deadlines every job
    ties at ``inf`` and the policy degenerates to remaining-work
    water-filling (= :class:`~repro.algorithms.heuristics.GreedyFinishJobs`).

    Example:
        >>> from repro.core import Instance
        >>> inst = Instance.from_percent([[60, 60], [60, 60]])
        >>> late_first = inst.with_deadlines([[4, 4], [1, 4]])
        >>> EDFWaterfill().run(late_first).completion_step(1, 0)
        0
    """

    name = "edf-waterfill"
    key = ("deadline", "remaining")


@register_policy
class WeightedSRPT(WaterFillPolicy):
    """Weighted shortest-remaining-work-first water-filling (flow-tuned).

    Priority: ascending ``remaining work / weight`` of the active job
    -- the highest-weight-density work drains first -- with ties broken
    by smaller remaining work, then processor index.  Unit weights
    reproduce :class:`~repro.algorithms.heuristics.GreedyFinishJobs`
    exactly (same order, same schedule).

    Example:
        >>> from repro.core import Instance
        >>> inst = Instance.from_percent([[60, 60], [60, 60]])
        >>> heavy_p1 = inst.with_weights([[1, 1], [9, 1]])
        >>> WeightedSRPT().run(heavy_p1).completion_step(1, 0)
        0
    """

    name = "weighted-srpt"
    key = ("density", "remaining")
