"""Frozen copy of the online objective accumulators (test oracle only).

Each objective used to be defined a second time as an accumulator fed
one completion at a time in completion order.  The library now defines
every objective once, as
:meth:`~repro.objectives.base.Objective.value_from_completions`; this
module keeps the old folds verbatim so the differential tests can
hold the reductions to the values the accumulators produced.
"""

from fractions import Fraction


class _MakespanAccumulator:
    """Trivial accumulator: the value is the step count itself."""

    def complete(self, job, t):
        pass

    def finish(self, makespan):
        return makespan


class _FlowAccumulator:
    """Sum ``w * (C - release)`` over the completion stream."""

    def __init__(self, instance):
        self._weights = {jid: job.weight for jid, job in instance.jobs()}
        self._releases = instance.releases
        self.total = Fraction(0)

    def complete(self, job, t):
        self.total += self._weights[job] * (t + 1 - self._releases[job[0]])

    def finish(self, makespan):
        return self.total


class _TardinessAccumulator:
    """Accumulate lateness statistics over the completion stream."""

    def __init__(self, instance, mode):
        self._jobs = {
            jid: (job.deadline, job.weight) for jid, job in instance.jobs()
        }
        self.mode = mode
        self.total = Fraction(0)
        self.max_lateness = None
        self.misses = 0

    def complete(self, job, t):
        deadline, weight = self._jobs[job]
        if deadline is None:
            return
        lateness = t + 1 - deadline
        if self.max_lateness is None or lateness > self.max_lateness:
            self.max_lateness = lateness
        if lateness > 0:
            self.total += weight * lateness
            self.misses += 1

    def finish(self, makespan):
        if self.mode == "total":
            return self.total
        if self.mode == "max-lateness":
            return 0 if self.max_lateness is None else self.max_lateness
        return self.misses


_FACTORIES = {
    "makespan": lambda inst: _MakespanAccumulator(),
    "weighted-flow": _FlowAccumulator,
    "tardiness": lambda inst: _TardinessAccumulator(inst, "total"),
    "max-lateness": lambda inst: _TardinessAccumulator(inst, "max-lateness"),
    "deadline-misses": lambda inst: _TardinessAccumulator(inst, "misses"),
}


def frozen_fold(name, instance, completion_steps, makespan):
    """Fold *completion_steps* through the frozen accumulator of *name*."""
    accumulator = _FACTORIES[name](instance)
    for job, t in completion_steps.items():
        accumulator.complete(job, t)
    return accumulator.finish(makespan)
