"""Differential test: the in-place service against the checkpoint oracle.

Hypothesis draws arrival sequences over every axis the service growth
path branches on: requirements 0 and 1, non-unit sizes, deadlines,
``k`` in {1, 2}, same-step bursts, idle gaps long enough to drain every
queue, 1/4/16 queues, every admission policy and both backends.  The
service that grows its runtime in place must produce the same
completions, event log and report (latencies aside) as
:class:`CheckpointRestoreService`, and its running step limit must
equal :func:`default_step_limit` of the live instance at every event.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Job
from repro.core.simulator import default_step_limit
from repro.service import ArrivalEvent, SchedulingService, UtilizationCap

from .checkpoint_oracle import CheckpointRestoreService

REQUIREMENTS = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
SIZES = [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(3)]
#: Longer than any drawn workload takes to drain on any queue layout.
DRAIN_GAP = 120


def _jobs(k: int):
    requirement = st.sampled_from(REQUIREMENTS)
    if k > 1:
        requirement = st.tuples(*[requirement] * k)
    return st.builds(
        Job,
        requirement,
        st.sampled_from(SIZES),
        deadline=st.one_of(st.none(), st.integers(1, 30)),
    )


@st.composite
def arrivals(draw):
    k = draw(st.sampled_from([1, 2]))
    gaps = st.one_of(
        st.just(0), st.integers(1, 3), st.just(DRAIN_GAP)
    )
    events = []
    t = draw(st.integers(0, 2))
    for job in draw(st.lists(_jobs(k), min_size=1, max_size=10)):
        events.append(ArrivalEvent(t, job))
        t += draw(gaps)
    return events


ADMISSIONS = {
    "accept-all": lambda: "accept-all",
    "utilization-cap": lambda: UtilizationCap(cap=0.5, window=4),
    "deadline-feasibility": lambda: "deadline-feasibility",
}


def _outcome(service):
    report = service.report().to_dict()
    report.pop("latency_percentiles")
    return service.completion_steps, service.event_log, report


@pytest.mark.parametrize("backend", ["exact", "vector"])
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    events=arrivals(),
    max_queues=st.sampled_from([1, 4, 16]),
    admission=st.sampled_from(sorted(ADMISSIONS)),
)
def test_in_place_growth_matches_checkpoint_restore(
    backend, events, max_queues, admission
):
    services = [
        cls(
            backend=backend,
            max_queues=max_queues,
            admission=ADMISSIONS[admission](),
        )
        for cls in (SchedulingService, CheckpointRestoreService)
    ]
    live, oracle = services
    for event in events:
        assert live.submit(event) == oracle.submit(event)
        if live.admitted:
            assert live._step_limit() == default_step_limit(
                live._runtime.instance
            )
    for service in services:
        service.drain()
    assert _outcome(live) == _outcome(oracle)
