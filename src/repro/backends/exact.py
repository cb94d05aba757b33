"""The exact-arithmetic backend (the reference implementation).

Wraps :func:`repro.core.simulator.simulate` unchanged: every share is
a :class:`fractions.Fraction`, every comparison is exact, and the
result carries the fully validated :class:`~repro.core.schedule.Schedule`
artifact.  This backend is the source of truth the fast float backend
is cross-validated against -- it is never bypassed for correctness
claims, only for bulk throughput.
"""

from __future__ import annotations

from ..core.instance import Instance
from ..core.kernel import (
    CompletionRecorder,
    ExactRuntime,
    ShareRecorder,
    run_kernel,
)
from ..core.simulator import simulate
from .base import Backend, BackendResult, backend_run_span, resolve_objectives

__all__ = ["ExactBackend"]


class ExactBackend(Backend):
    """Exact ``Fraction`` execution via the canonical simulator.

    The simulator is itself a thin configuration of the unified
    stepping kernel.

    Single-resource runs return the fully validated
    :class:`~repro.core.schedule.Schedule` artifact; multi-resource
    runs (``k > 1``) drive the same :class:`ExactRuntime` through the
    kernel directly and report exact share-matrix rows without a
    Schedule (the artifact models the paper's single-resource
    analysis).
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
        """Run *policy* on *instance* in exact Fraction arithmetic.

        *policy* may be a registry name; see
        :func:`repro.algorithms.resolve_policy`.
        """
        policy = self._resolve_policy(policy)
        objectives = resolve_objectives(objectives)
        with backend_run_span(self.name, instance, policy) as span:
            if instance.num_resources != 1:
                result = self._run_multi(
                    instance,
                    policy,
                    max_steps=max_steps,
                    record_shares=record_shares,
                )
            else:
                schedule = simulate(instance, policy, max_steps=max_steps)
                shares = None
                processed = None
                if record_shares:
                    shares = schedule.share_rows()
                    processed = [
                        list(step.processed) for step in schedule.steps
                    ]
                result = BackendResult(
                    backend=self.name,
                    makespan=schedule.makespan,
                    shares=shares,
                    processed=processed,
                    completion_steps=dict(schedule.completion_steps),
                    schedule=schedule,
                    instance=instance,
                )
            if span is not None:
                span.note(makespan=result.makespan)
        result.objective_values = self._objective_values(
            instance, objectives, result.completion_steps, result.makespan
        )
        return result

    def _run_multi(
        self,
        instance: Instance,
        policy,
        *,
        max_steps: int | None,
        record_shares: bool,
    ) -> BackendResult:
        """Kernel-direct multi-resource run (no Schedule artifact)."""
        runtime = ExactRuntime(instance)
        completions = CompletionRecorder()
        observers: list = [completions]
        recorder: ShareRecorder | None = None
        if record_shares:
            recorder = ShareRecorder()
            observers.append(recorder)
        makespan = run_kernel(
            runtime, policy, observers, max_steps=max_steps
        )
        return BackendResult(
            backend=self.name,
            makespan=makespan,
            shares=list(recorder.shares) if recorder is not None else None,
            processed=(
                list(recorder.processed) if recorder is not None else None
            ),
            completion_steps=completions.completion_steps,
            instance=instance,
        )
