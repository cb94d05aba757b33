"""The exact-arithmetic backend (the reference implementation).

Water-fill policies on a k=1 instance whose works lie on its
requirement grid run in integer units of ``1/D``
(:class:`~repro.core.kernel.GridRuntime`); other k=1 runs go through
:func:`repro.core.simulator.simulate` in ``Fraction`` arithmetic, and
``k > 1`` through :class:`~repro.core.kernel.ExactRuntime`.  Every
comparison is exact.  This backend is the source of truth the float
backend is cross-validated against.
"""

from __future__ import annotations

from fractions import Fraction

from ..algorithms.base import WaterFillPolicy
from ..core.instance import Instance
from ..core.kernel import ExactRuntime, GridRuntime, ShareRecorder, run_kernel
from ..core.schedule import Schedule
from ..core.simulator import simulate
from ..exceptions import InvalidScheduleError
from .base import Backend, BackendResult, backend_run_span, resolve_objectives

__all__ = ["ExactBackend"]


class ExactBackend(Backend):
    """Exact execution: integer grid units where possible, else ``Fraction``.

    Single-resource runs that record shares return the validated
    :class:`~repro.core.schedule.Schedule` artifact, in ``Fraction``
    units whichever arithmetic ran; a grid run that records none is
    validated by an integer replay instead.  Multi-resource runs
    (``k > 1``) drive :class:`ExactRuntime` through the kernel and
    report exact share-matrix rows without a Schedule (the artifact
    models the paper's single-resource analysis).
    """

    name = "exact"

    def make_runtime(self, instance: Instance, policy) -> ExactRuntime:
        """The exact kernel runtime this backend contributes."""
        return ExactRuntime(instance)

    def run(
        self,
        instance: Instance,
        policy,
        *,
        max_steps: int | None = None,
        record_shares: bool = True,
        objectives=(),
    ) -> BackendResult:
        """Run *policy* on *instance* in exact arithmetic.

        *policy* may be a registry name; see
        :func:`repro.algorithms.resolve_policy`.
        """
        policy = self._resolve_policy(policy)
        objectives = resolve_objectives(objectives)
        with backend_run_span(self.name, instance, policy) as span:
            if _runs_on_grid(instance, policy):
                result = self._run_grid(instance, policy, max_steps, record_shares)
            elif instance.num_resources == 1:
                schedule = simulate(instance, policy, max_steps=max_steps)
                result = self._result(instance, schedule, record_shares)
            else:
                result = self._run_multi(instance, policy, max_steps, record_shares)
            if span is not None:
                span.note(makespan=result.makespan)
        result.objective_values = self._objective_values(
            instance, objectives, result.completion_steps, result.makespan
        )
        return result

    def _result(
        self, instance: Instance, schedule: Schedule, record_shares: bool
    ) -> BackendResult:
        """The result of a single-resource run, read off its Schedule."""
        return BackendResult(
            backend=self.name,
            makespan=schedule.makespan,
            shares=schedule.share_rows() if record_shares else None,
            processed=[list(s.processed) for s in schedule.steps] if record_shares else None,
            completion_steps=dict(schedule.completion_steps),
            schedule=schedule,
            instance=instance,
        )

    def _run_grid(
        self, instance: Instance, policy, max_steps, record_shares: bool
    ) -> BackendResult:
        """A water-fill run on the integer grid, validated like a Schedule."""
        runtime = GridRuntime(instance)
        makespan = run_kernel(runtime, policy, max_steps=max_steps)
        if record_shares:
            d = runtime.state.capacity
            rows = [[Fraction(x, d) for x in row] for row in runtime.rows]
            return self._result(instance, Schedule(instance, rows), True)
        completion_steps = runtime.state.completion_steps()
        _replay(instance, runtime.rows, makespan, completion_steps)
        return BackendResult(
            backend=self.name,
            makespan=makespan,
            completion_steps=completion_steps,
            instance=instance,
        )

    def _run_multi(
        self, instance: Instance, policy, max_steps, record_shares: bool
    ) -> BackendResult:
        """A ``k > 1`` run through :class:`ExactRuntime`."""
        runtime = ExactRuntime(instance)
        recorder = ShareRecorder() if record_shares else None
        observers = () if recorder is None else (recorder,)
        makespan = run_kernel(runtime, policy, observers, max_steps=max_steps)
        return BackendResult(
            backend=self.name,
            makespan=makespan,
            shares=recorder.shares if record_shares else None,
            processed=recorder.processed if record_shares else None,
            completion_steps=runtime.state.completion_steps(),
            instance=instance,
        )


def _runs_on_grid(instance: Instance, policy) -> bool:
    """True iff *policy* runs on the integer grid: a k=1 water-fill run
    whose job table is on the grid."""
    return (
        instance.num_resources == 1
        and isinstance(policy, WaterFillPolicy)
        and instance.job_table().on_grid
    )


def _replay(instance: Instance, rows, makespan: int, completions: dict) -> None:
    """Validate a grid run as ``Schedule`` would: re-execute *rows*, each checked.

    Every job must finish at the run's own makespan and completion steps.
    """
    replay = GridRuntime(instance)
    state = replay.state
    for row in rows:
        replay.check(row)
        state.execute(row)
    if not state.all_done or state.t != makespan or state.completion_steps() != completions:
        raise InvalidScheduleError(
            f"grid rows replay to {state.t} steps with done={state.done}; "
            f"the run reported makespan {makespan}"
        )
