"""Calibrated time: program time scaled by the machine's speed while it ran.

On a shared machine the speed of one core drifts by tens of percent within
seconds, so raw wall times of the same work spread too widely to compare
two commits.  A timer signal interrupts the process every PERIOD_S seconds
and runs a short fixed reference loop, which touches nothing of the
program.  For an interval of work, the reference durations sampled inside
it give the machine's speed during that interval; the interval's program
time (its wall time minus the time spent in the samples) is reported in
calibrated seconds: scaled as if every reference loop had taken REF_S.

Signal handlers run between bytecodes of the main thread, so the samples
never split one of the program's numpy or scipy calls.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
#: Nominal duration of one reference loop (typical on a 2-core x86-64 VM
#: with Python 3.11 and numpy 2.4, where it ranges 0.6-1.1 ms).
REF_S = 8e-4


def reference_loop() -> float:
    """Fixed work independent of the program: half interpreter arithmetic,
    half small-array numpy calls, the two kinds of work the program's hot
    loops are made of.  (On the screen workload, calibrating by either half
    alone left 1.5-1.8x the round-to-round spread of calibrating by both.)"""
    s = 0.0
    for i in range(2000):
        s = math.sin(s + i * 1e-3) + math.sqrt(i + 1.0)
    x = np.ones(6)
    for _ in range(60):
        y = np.array([x[0], x[1] * 0.5, 2.0])
        x = np.cos(x) * 0.5 + y.sum()
        x = np.where(x > 10.0, 0.0, x)
    return s + float(x[0])


class CalibratedClock:
    """``with CalibratedClock() as clock:``, then ``m = clock.mark()``
    before and ``clock.since(m)`` after each interval of work."""

    def __init__(self):
        self.samples = []      # (end time, duration) of each reference loop
        self._previous = None

    def _tick(self, _signum, _frame):
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.samples.append((t1, t1 - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        """An opaque start mark for :meth:`since`."""
        return perf_counter(), len(self.samples)

    def since(self, mark) -> tuple[float, float]:
        """(program seconds, calibrated seconds) from ``mark`` until now.

        Program seconds are the wall time minus the samples taken in the
        interval.  An interval too short to hold a sample is calibrated by
        the latest sample before it ends.
        """
        t1 = perf_counter()
        t0, first = mark
        inside = [d for end, d in self.samples[first:] if end <= t1]
        program_s = (t1 - t0) - sum(inside)
        if not inside:
            inside = [d for _, d in self.samples[-1:]] or [REF_S]
        return program_s, program_s * REF_S / statistics.fmean(inside)
