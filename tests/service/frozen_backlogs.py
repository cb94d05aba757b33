"""Frozen copies of the service's per-event backlog rescans.

These are the two backlog sums :class:`~repro.service.SchedulingService`
recomputed from every unfinished job on every arrival before it kept
running totals (``_queue_backlogs`` and ``_total_backlog``), kept as
*test oracles only*.  ``test_running_totals.py`` asserts that every
admission context the live service builds carries bitwise-equal
backlogs.  Nothing in ``src/`` imports this module.

The copies take the live runtime as an argument instead of reading
``self._runtime``; their bodies are otherwise unchanged.
"""

from __future__ import annotations


def queue_backlogs(runtime) -> list[float]:
    """Full-speed steps of unfinished work per queue."""
    if runtime is None:
        return []
    state = runtime.state
    backlogs: list[float] = []
    for i, queue in enumerate(runtime.instance.queues):
        done = int(state.done[i])
        steps = 0.0
        if done < len(queue):
            active = queue[done]
            bottleneck = float(active.requirement)
            if bottleneck > 0:
                steps += float(state.remaining[i]) / bottleneck
            steps += sum(
                job.steps_at_full_speed() for job in queue[done + 1 :]
            )
        backlogs.append(steps)
    return backlogs


def total_backlog(runtime) -> float:
    """Unfinished processing volume across all queues."""
    if runtime is None:
        return 0.0
    state = runtime.state
    total = 0.0
    for i, queue in enumerate(runtime.instance.queues):
        done = int(state.done[i])
        if done < len(queue):
            total += float(state.remaining[i])
            total += sum(float(job.work) for job in queue[done + 1 :])
    return total
