"""A speed gauge for a shared, noisy machine.

On a small shared host the same pure-Python work can take twice as long a
minute later: the processor is slower, not preempted, so CPU time swings
with wall time.  Medians over one run cannot cancel a swing that lasts the
whole run.  The gauge therefore runs a fixed burst of exact ``Fraction``
arithmetic -- the kind of work the library does, written here so that no
library change can alter it -- between solves, and every reported time is
divided by the speed factor measured around it:

    factor = burst time / REF_BURST_S,   reported = measured / factor.

A reported time is thus the time the work would take on a machine where the
burst takes ``REF_BURST_S``; on a steady machine the factor is constant and
every ratio between runs is the ratio of wall times.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

REF_BURST_S = 0.004   # burst time on an unloaded core of the reference host
BURST_REPS = 20
PERIOD_S = 0.1        # sample at most this often between solves


def _kernel():
    row = [Fraction(i * i - 7, 3 + i) for i in range(12)]
    seen = {}
    for r in range(11):
        row = [(a + b) / 2 for a, b in zip(row, row[1:])]
        seen[tuple(range(r))] = row[0]
    return row[0]


class Gauge:
    """Speed samples (time, factor) taken between pieces of measured work."""

    def __init__(self):
        self.times = []
        self.factors = []

    def sample(self) -> float:
        t0 = perf_counter()
        for _ in range(BURST_REPS):
            _kernel()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.factors.append((t1 - t0) / REF_BURST_S)
        return self.factors[-1]

    def tick(self) -> None:
        """Sample when the last sample is older than PERIOD_S."""
        if not self.times or perf_counter() - self.times[-1] >= PERIOD_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """Median factor of the samples inside [t0, t1] and the nearest
        sample on each side of it."""
        lo = max(0, bisect.bisect_left(self.times, t0) - 1)
        hi = min(len(self.times), bisect.bisect_right(self.times, t1) + 1)
        return statistics.median(self.factors[lo:hi])

    def scale(self, seconds: float, t0: float, t1: float) -> float:
        """A duration measured within [t0, t1], at reference speed."""
        return seconds / self.factor(t0, t1)
