"""Arrival streams: trace replay and seeded Poisson generation.

A *stream* is simply an iterable of
:class:`~repro.service.events.ArrivalEvent` in non-decreasing time
order.  Two sources ship:

* :class:`TraceStream` -- replays a JSONL trace file (or in-memory
  lines), the deterministic workload path;
* :class:`PoissonStream` -- samples a seeded Poisson arrival process
  with uniform-requirement jobs, the stochastic workload path used by
  the soak tests and ``crsharing serve --rate/--count``.

Both are re-iterable: each ``iter()`` yields the same events, so one
stream object can drive several service runs (a run and its replay,
or repeated benchmark rounds).
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ..core.job import Job
from ..exceptions import ServiceError
from .events import ArrivalEvent, read_trace

__all__ = ["PoissonStream", "TraceStream"]


class TraceStream:
    """Replays a fixed arrival sequence (from a file or from memory).

    Args:
        events: parsed arrivals, already in non-decreasing time order.

    Use :meth:`from_path` / :meth:`from_lines` to parse the JSONL
    trace format (validation included).
    """

    def __init__(self, events: Sequence[ArrivalEvent]) -> None:
        events = tuple(events)
        for earlier, later in zip(events, events[1:]):
            if later.time < earlier.time:
                raise ServiceError(
                    "trace events must be in non-decreasing time order "
                    f"({earlier.time} then {later.time})"
                )
        self.events = events

    @classmethod
    def from_path(cls, path: str | Path) -> "TraceStream":
        """Parse a JSONL trace file (see :func:`repro.service.events.read_trace`)."""
        return cls(read_trace(path))

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "TraceStream":
        """Parse in-memory JSONL trace lines."""
        return cls(read_trace(lines))

    def __iter__(self) -> Iterator[ArrivalEvent]:
        """Yield the trace's arrivals in order (re-iterable)."""
        return iter(self.events)

    def __len__(self) -> int:
        """Number of arrivals in the trace."""
        return len(self.events)


class PoissonStream:
    """A seeded Poisson arrival process with uniform-requirement jobs.

    Inter-arrival gaps are exponential with intensity *rate* (expected
    ``rate`` arrivals per step), accumulated and floored to integer
    steps, so several jobs may share one step -- exactly the shape of
    :func:`repro.generators.poisson_arrivals`, but producing an
    unbounded *stream* of jobs instead of release times for a fixed
    instance.  Requirements are uniform on ``{low/grid .. high/grid}``,
    sizes are unit.  Identical seeds yield identical streams, so
    stochastic soak runs are still replayable.

    Args:
        rate: arrival intensity per step (> 0).
        count: number of arrivals to generate (>= 0).
        seed: RNG seed (streams with the same seed are identical).
        grid: requirement denominator (default percent grid).
        low: minimum requirement numerator (>= 0).
        high: maximum requirement numerator (defaults to *grid*).
    """

    def __init__(
        self,
        *,
        rate: float,
        count: int,
        seed: int | None = None,
        grid: int = 100,
        low: int = 1,
        high: int | None = None,
    ) -> None:
        if rate <= 0:
            raise ServiceError(f"rate must be > 0, got {rate}")
        if count < 0:
            raise ServiceError(f"count must be >= 0, got {count}")
        if high is None:
            high = grid
        if not 0 <= low <= high <= grid:
            raise ServiceError(
                f"need 0 <= low <= high <= grid, got {low}, {high}, {grid}"
            )
        self.rate = float(rate)
        self.count = int(count)
        self.seed = seed
        self.grid = int(grid)
        self.low = int(low)
        self.high = int(high)

    def __iter__(self) -> Iterator[ArrivalEvent]:
        """Sample the stream afresh (same seed, same events)."""
        rng = random.Random(self.seed)
        clock = 0.0
        for _ in range(self.count):
            clock += rng.expovariate(self.rate)
            requirement = Fraction(rng.randint(self.low, self.high), self.grid)
            yield ArrivalEvent(time=int(clock), job=Job(requirement))

    def __len__(self) -> int:
        """Number of arrivals the stream will generate."""
        return self.count
