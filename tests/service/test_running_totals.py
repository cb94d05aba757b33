"""The service's running totals against frozen rescans of the history.

Hypothesis draws arrival sequences (the strategy of
``test_differential.py``: requirements 0 and 1, non-unit sizes,
deadlines, ``k`` in {1, 2}, same-step bursts and idle gaps that drain
every queue, so later arrivals append to drained queues) over both
backends, every admission policy and 1/4/16 queues.  At every
admission call, the context's placement, ``queue_backlog`` and
``total_backlog`` must be bitwise the values the frozen per-event
rescans (:mod:`.frozen_backlogs`) give on the same state; after every
submit, the running step limit must equal :func:`default_step_limit`
of the live instance.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.simulator import default_step_limit
from repro.service import SchedulingService

from .frozen_backlogs import queue_backlogs, total_backlog
from .test_differential import ADMISSIONS, arrivals


def _watch(service, seen):
    """Check every admission context *service* builds against the rescans."""
    decide = service.admission.admit

    def admit(ctx):
        backlogs = queue_backlogs(service._runtime)
        m = len(backlogs)
        if m < service.max_queues:
            expected = (m, 0.0)
        else:
            index = min(range(m), key=lambda i: (backlogs[i], i))
            expected = (index, backlogs[index])
        assert (ctx.queue_index, ctx.queue_backlog.hex()) == (
            expected[0],
            expected[1].hex(),
        )
        assert ctx.num_processors == m
        assert ctx.total_backlog.hex() == total_backlog(service._runtime).hex()
        seen.append(ctx.queue_index)
        return decide(ctx)

    service.admission.admit = admit


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
def test_running_totals_match_frozen_rescans(backend, events, max_queues, admission):
    service = SchedulingService(
        backend=backend, max_queues=max_queues, admission=ADMISSIONS[admission]()
    )
    seen: list[int] = []
    _watch(service, seen)
    for event in events:
        service.submit(event)
        if service.admitted:
            assert service._step_limit() == default_step_limit(
                service._runtime.instance
            )
    assert len(seen) == len(events)
    service.drain()
    assert service.completed == service.admitted
