"""Differential tests for the objective reductions.

Every objective is one exact reduction over a completion-step record
(:meth:`~repro.objectives.base.Objective.value_from_completions`).
These property tests hold each registered objective, on arbitrary
completion records, to two independent definitions:

* the frozen online accumulators (:mod:`.frozen_accumulators`), folded
  one completion at a time in completion order;
* the closed forms in :mod:`repro.analysis.metrics`.

The axes: ``k in {1, 2}``, release times, fractional weights with
mixed and prime denominators, and deadlines that are absent, tight
around the completion steps, or mixed.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    deadline_misses,
    max_lateness,
    total_tardiness,
    weighted_flow_time,
)
from repro.core import Instance, Job
from repro.core.schedule import Schedule
from repro.objectives import available_objectives, get_objective

from .frozen_accumulators import frozen_fold

#: Mixed and prime denominators, so the reductions must find a true
#: least common denominator.
DENOMINATORS = (1, 2, 3, 4, 6, 7, 10, 11, 12, 13, 97)

weights = st.builds(
    Fraction, st.integers(1, 40), st.sampled_from(DENOMINATORS)
)


@st.composite
def completion_records(draw):
    """An annotated instance plus a completion step for every job."""
    k = draw(st.sampled_from((1, 2)))
    m = draw(st.integers(1, 3))
    releases = draw(st.lists(st.integers(0, 5), min_size=m, max_size=m))
    lengths = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    steps = {
        (i, j): draw(st.integers(releases[i], releases[i] + 9))
        for i in range(m)
        for j in range(lengths[i])
    }
    mode = draw(st.sampled_from(("absent", "tight", "mixed")))
    queues = []
    for i in range(m):
        queue = []
        for j in range(lengths[i]):
            if mode == "absent":
                deadline = None
            elif mode == "tight":
                deadline = max(1, steps[(i, j)] + 1 + draw(st.integers(-2, 1)))
            else:
                deadline = draw(st.none() | st.integers(1, 12))
            req = [Fraction(1, 2)] * k if k > 1 else Fraction(1, 2)
            queue.append(Job(req, weight=draw(weights), deadline=deadline))
        queues.append(queue)
    return Instance(queues, releases=releases), steps


class _Record:
    """A completion record shaped like the ``Schedule`` fields the
    closed forms read; valid for any ``k`` (the ``Schedule`` artifact
    itself models ``k == 1`` only)."""

    lateness_by_job = Schedule.lateness_by_job

    def __init__(self, instance, steps):
        self.instance = self._instance = instance
        self.completion_steps = self._completion = steps


CLOSED_FORMS = {
    "makespan": lambda record: max(record.completion_steps.values()) + 1,
    "weighted-flow": weighted_flow_time,
    "tardiness": total_tardiness,
    "max-lateness": max_lateness,
    "deadline-misses": deadline_misses,
}


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(completion_records())
def test_reductions_match_frozen_folds_and_closed_forms(record):
    instance, steps = record
    makespan = max(steps.values()) + 1
    for name in available_objectives():
        objective = get_objective(name)
        value = objective.value_from_completions(instance, steps, makespan)
        frozen = frozen_fold(name, instance, steps, makespan)
        assert value == frozen and type(value) is type(frozen), name
        assert value == CLOSED_FORMS[name](_Record(instance, steps)), name
        # The default makespan is the last completion step + 1.
        assert objective.value_from_completions(instance, steps) == value


def test_empty_record_is_zero_everywhere():
    instance = Instance.from_percent([[50]])
    for name in available_objectives():
        assert get_objective(name).value_from_completions(instance, {}) == 0
        assert frozen_fold(name, instance, {}, 0) == 0
