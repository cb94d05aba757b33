"""Weighted flow time :math:`F_w = \\sum_{i,j} w_{ij} (C_{ij} - r_i)`.

Flow (response) time measures how long work lingers in the system:
job ``(i, j)`` arrives with its processor at release ``r_i`` and
completes at the 1-based step :math:`C_{ij}`; its flow is the
difference, scaled by the job's weight.  With unit weights and the
static model (:math:`r_i = 0`) the objective degenerates to the total
completion time already exposed by
:func:`repro.analysis.metrics.total_completion_time` -- the property
tests pin that equality.

Centering the objective follows *Towards Optimality in Parallel
Scheduling* (Berg et al.) and the mean response/flow time tradition;
the :class:`~repro.algorithms.flowdeadline.WeightedSRPT` policy is
tuned for it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from ..core.instance import Instance
from ..core.job import JobId
from ..core.lower_bounds import weighted_flow_bound
from ..core.numerics import sum_by_denominator
from .base import Objective, register_objective

__all__ = ["WeightedFlowTime"]


@register_objective
class WeightedFlowTime(Objective):
    """Weighted flow time (see the module docstring).

    Example:
        >>> from repro.core import Instance
        >>> from repro.algorithms import GreedyBalance
        >>> inst = Instance.from_percent([[100], [100]])
        >>> WeightedFlowTime().value(GreedyBalance().run(inst))
        Fraction(3, 1)
    """

    name = "weighted-flow"

    def value_from_completions(
        self, instance: Instance, completion_steps: Mapping[JobId, int], makespan: int | None = None
    ) -> Fraction:
        """``sum w * (C - release)`` over the 1-based completion steps.

        One pass folds the weight numerators by denominator (see
        :func:`~repro.core.numerics.product_sum`).
        """
        queues = instance.queues
        releases = instance.releases
        by_den: dict[int, int] = {}
        for (i, j), t in completion_steps.items():
            p, q = queues[i][j].weight.as_integer_ratio()
            by_den[q] = by_den.get(q, 0) + p * (t + 1 - releases[i])
        return sum_by_denominator(by_den)

    def batch_values(self, selection, finish, makespans) -> list:
        """One int64 fold of the weight numerators over one denominator.

        Falls back to the per-lane fold when a lane's sum could reach
        ``2**63``.
        """
        num, d = selection.bag.weight_grid()
        _, release, ids = selection.row_ids()
        horizon = int(makespans.max()) + 1 + int(release.max())
        if num is None or int(num.max()) * ids[0].size * horizon >= 2**63:
            return super().batch_values(selection, finish, makespans)
        totals = (num.take(ids) * (finish + 1 - release[..., None])).sum(axis=(1, 2))
        return [Fraction(t, d) for t in totals.tolist()]

    def lower_bound(self, instance: Instance) -> Fraction:
        """Per-job earliest-completion certificates, weight-summed."""
        return weighted_flow_bound(instance)
