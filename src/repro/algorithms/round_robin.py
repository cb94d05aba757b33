"""The RoundRobin algorithm (Section 4.2, Theorem 3).

RoundRobin processes the workload in *phases*: during phase ``j`` it
works only on the ``j``-th job of every processor that has one,
assigning the resource arbitrarily among the processors whose ``j``-th
job is unfinished.  Phase ``j+1`` starts only when phase ``j`` is
completely done -- even if that wastes most of the resource at the end
of a phase, which is exactly how the lower-bound family of Figure 3
drives it to its worst-case ratio of 2.

Theorem 3: the worst-case approximation ratio of RoundRobin for unit
size jobs is exactly 2 (upper bound via
``makespan <= n + sum_j sum_{i in M_j} r_ij`` and Observation 1; lower
bound via :func:`repro.generators.worst_case.round_robin_adversarial`).

The phase index is recoverable from the execution state (the smallest
``j`` such that some processor with at least ``j`` jobs has not
finished its ``j``-th job), so the policy stays stateless.  As a
:class:`~repro.algorithms.base.WaterFillPolicy` it declares the empty
priority key (processor-index order) plus the phase as an eligibility
mask; only its exact :meth:`RoundRobin.shares` is written out.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from ..core.numerics import frac_ceil, frac_sum
from ..core.state import ExecState
from .base import WaterFillPolicy, register_policy, water_fill

__all__ = ["RoundRobin", "round_robin_phase", "round_robin_makespan_formula"]


def round_robin_phase(state: ExecState) -> int:
    """The current RoundRobin phase (1-based).

    The smallest ``j`` such that some processor with ``n_i >= j`` has
    completed fewer than ``j`` jobs.  All processors with completed
    count ``>= j`` wait (their ``j``-th job is done or they have none).
    That is ``1 + min(done_i)`` over the *pending* processors (those
    with unfinished jobs, released or not): a pending ``i`` witnesses
    ``j = done_i + 1``, and no smaller ``j`` has a witness.
    """
    inst = state.instance
    done = state.done
    return 1 + min(
        (done[i] for i in range(inst.num_processors) if done[i] < inst.num_jobs(i)),
        default=inst.max_jobs - 1,
    )


#: A finished lane's minimum completed count: no processor matches it.
_NO_PHASE = np.iinfo(np.int64).max


@register_policy
class RoundRobin(WaterFillPolicy):
    """Phase-synchronized round robin (Section 4.2).

    Within a phase the resource is assigned by water-filling in
    processor-index order ("in an arbitrary way", as the paper puts
    it); processors that already finished the phase's job idle, so the
    policy may waste resource between phases and is in general neither
    non-wasting nor progressive.

    Example:
        >>> from repro.generators import fig1_instance
        >>> RoundRobin().run(fig1_instance()).makespan
        8
    """

    name = "round-robin"

    def shares(self, state: ExecState) -> Sequence[Fraction]:
        phase = round_robin_phase(state)
        done = state.done
        num_jobs = state.instance.num_jobs
        eligible = [
            i
            for i in range(state.num_processors)
            if done[i] == phase - 1 < num_jobs(i)
        ]
        return water_fill(state, eligible)

    def eligible(self, state) -> np.ndarray:
        # The phase rule of `round_robin_phase` along the last axis.
        # Pending -- not merely active -- so that, as in the exact path,
        # a phase held open by a not-yet-released processor blocks later
        # phases; unreleased eligibles have zero useful share, so the
        # water-fill skips them.  A finished lane parks its minimum at
        # `_NO_PHASE`, so nothing is eligible and its row is all zero.
        pending = state.pending_mask
        done = state.done
        phase = np.where(pending, done, _NO_PHASE).min(axis=-1, keepdims=True)
        return pending & (done == phase)


def round_robin_makespan_formula(instance) -> int:
    """The closed-form RoundRobin makespan
    :math:`\\sum_{j=1}^{n} \\lceil \\sum_{i \\in M_j} r_{ij} \\rceil`
    (proof of Theorem 3).

    Valid for unit-size jobs in the static model; the simulated policy
    must match this exactly, which the test-suite asserts.
    """
    instance.require_single_resource("round_robin_makespan_formula")
    instance.require_unit_size("round_robin_makespan_formula")
    instance.require_static("round_robin_makespan_formula")
    total = 0
    for j in range(1, instance.max_jobs + 1):
        phase_work = frac_sum(
            instance.requirement(i, j - 1)
            for i in instance.processors_with_at_least(j)
        )
        total += max(1, frac_ceil(phase_work))
    return total
