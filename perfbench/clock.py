"""Op timing with a host-speed probe.

A shared 2-vCPU VM changes speed by up to 1.6x for seconds to minutes
at a time (other tenants), far more than the changes the benchmark has
to resolve.  So :class:`OpTimer` interleaves a fixed probe -- a snippet
of NumPy work that calls nothing in the library -- between ops, at
least every :data:`PROBE_INTERVAL_S`.  Every timed call is reported twice: as
measured (``raw``) and scaled to a host on which the probe takes
:data:`PROBE_REFERENCE_S` (``scaled``), using the probes just before
and just after the call.  A change to the library moves the scaled
time and leaves the probe alone; a slow host phase moves both.
"""

from __future__ import annotations

import bisect
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: Minimum seconds between two probes.
PROBE_INTERVAL_S = 0.1

#: Probe time (fastest of :data:`PROBE_RUNS` snippets) on the
#: reference host, a 2-vCPU Xeon VM in a fast phase.
PROBE_REFERENCE_S = 0.65e-3

#: Snippet runs per probe; the probe reads their minimum.
PROBE_RUNS = 3

#: Probes on each side of a call that scale it.
PROBE_WINDOW = 4


_PROBE_ROWS = np.random.default_rng(0).random((64, 16))


def _snippet() -> None:
    """Fixed NumPy work on a 64 x 16 float table: sort, gather, prefix sums.

    Of the probes tried, this one slows down the most like the four
    workloads do when the host slows (2-vCPU Xeon VM): their
    slow-phase log latency moves 0.85-1.1x as far as the probe's, where
    plain interpreter, ``Fraction`` or 16-element NumPy loops move
    only 0.6-0.8x as far and over-correct.
    """
    rows = _PROBE_ROWS
    for _ in range(24):
        order = np.argsort(rows, axis=1)
        prefix = np.cumsum(np.take_along_axis(rows, order, axis=1), axis=1)
        rows = np.minimum(prefix * 0.5, 1.0)


@dataclass(frozen=True)
class Call:
    """One timed call: perf-counter start and end, and whether it is an op."""

    t0: float
    t1: float
    op: bool

    @property
    def raw(self) -> float:
        return self.t1 - self.t0


class HostClock:
    """Probe samples over time and the host-speed scaling they give."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.probes: list[float] = []
        self.probe_s = 0.0
        self._last = float("-inf")

    def probe(self) -> None:
        """Run one probe now and record it."""
        t0 = perf_counter()
        best = float("inf")
        for _ in range(PROBE_RUNS):
            s0 = perf_counter()
            _snippet()
            best = min(best, perf_counter() - s0)
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.probes.append(best)
        self.probe_s += t1 - t0
        self._last = t1

    def maybe_probe(self) -> None:
        """Probe if :data:`PROBE_INTERVAL_S` has passed since the last one."""
        if perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.probe()

    def factor(self, t0: float, t1: float) -> float:
        """Host slowness over ``[t0, t1]``: local probe time / reference.

        The median over the probes inside the interval and the
        :data:`PROBE_WINDOW` nearest on each side of it.
        """
        lo = max(0, bisect.bisect_left(self.times, t0) - PROBE_WINDOW)
        hi = bisect.bisect_right(self.times, t1) + PROBE_WINDOW
        return statistics.median(self.probes[lo:hi]) / PROBE_REFERENCE_S

    def scaled(self, call: Call) -> float:
        """*call*'s duration on the reference host."""
        return call.raw / self.factor(call.t0, call.t1)


class OpTimer:
    """Times ops, probes the host between them, and marks them for the tracer.

    Attributes:
        calls: every timed call, in order.
        ops: number of ops timed so far.
    """

    def __init__(self, clock: HostClock, tracer=None) -> None:
        self.clock = clock
        self.tracer = tracer
        self.calls: list[Call] = []
        self.ops = 0

    def call(self, fn, *args, **kwargs):
        """Run one op, ``fn(*args, **kwargs)``, and time it."""
        return self._timed(True, fn, args, kwargs)

    def call_extra(self, fn, *args, **kwargs):
        """Run and time work an item needs besides its ops (a stream's drain)."""
        return self._timed(False, fn, args, kwargs)

    def _timed(self, op: bool, fn, args, kwargs):
        self.clock.maybe_probe()
        tracer = self.tracer
        if tracer is not None and op:
            tracer.op = self.ops
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.calls.append(Call(t0, perf_counter(), op))
            if op:
                self.ops += 1
                if tracer is not None:
                    tracer.op = -1
