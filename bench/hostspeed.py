"""Correction of measured times for the host's clock speed.

The machine this benchmark was written on changes speed by itself: a fixed
pure-Python loop takes about 21 ms in some phases and about 30 ms in
others, phases that last seconds (measured on a 2-vCPU x86-64 guest with
nothing else running).  That alone moved the raw median round time of a
30-second run by 16-20% between runs of the same code.

So every timed interval is paired with a calibration kernel run right
before and right after it, and reported at the nominal speed:
``corrected = raw * KERNEL_NOMINAL_S / kernel_time``.  A faster program
still reads faster by the same ratio; a faster host does not.  Memory-
bound numpy work follows the host's long phases as the kernel does, but
not its short bursts, so its corrected times keep more noise.
"""

from __future__ import annotations

import statistics
import time

# Median time of ``kernel`` on the reference machine (2-vCPU x86-64,
# Python 3.11).  Only the ratio to it matters, never its absolute value.
KERNEL_NOMINAL_S = 0.010
# Intervals shorter than this reuse the previous kernel time.
RESAMPLE_AFTER_S = 0.02


def kernel() -> float:
    """Seconds taken by a fixed loop of dict, tuple and integer work."""
    start = time.perf_counter()
    table: dict = {}
    tup: tuple = ()
    for i in range(40000):
        table[i & 1023] = (i, tup)
        tup = (i,) if len(tup) > 8 else tup + (i,)
    return time.perf_counter() - start


class HostSpeed:
    """Tracks the host's speed between timed intervals.

    Each kernel time is the median of ``samples`` kernel runs: one suits
    intervals that come back to back by the hundred, more suit a few
    short intervals such as process start-ups.
    """

    def __init__(self, samples: int = 1) -> None:
        self.samples = samples
        self.last = self._kernel()

    def _kernel(self) -> float:
        return statistics.median(kernel() for _ in range(self.samples))

    def factor(self, seconds: float) -> float:
        """Slowdown against nominal for an interval of this length that just ended."""
        before = self.last
        if seconds >= RESAMPLE_AFTER_S:
            self.last = self._kernel()
        return (before + self.last) / 2 / KERNEL_NOMINAL_S
