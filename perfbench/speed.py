"""Timings scaled to a reference speed, for hosts whose speed drifts.

On a shared virtual machine the speed of a core can drift by a quarter
within seconds, and by as much between runs a minute apart; repeating the
work does not average that out. So while the benchmark runs, a timer
signal interrupts it every ``INTERVAL_S`` and times a fixed pure-Python
kernel. A query's time, minus the kernel time spent inside it, is scaled by
``REFERENCE_S`` over the mean kernel time in a window around the query.
The kernel takes about ``REFERENCE_S`` on the 2.0 GHz Xeon the benchmark
was developed on, so scaled times read roughly as times on that core.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

CLOCK = time.perf_counter
INTERVAL_S = 0.01
WINDOW_S = 0.05
REFERENCE_S = 0.3e-3


def _kernel() -> int:
    # dict updates, integer arithmetic and loop overhead, as in the package
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    return len(counts)


class SpeedProbe:
    """Samples the kernel's time on a timer signal while it is active."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = CLOCK()
        _kernel()
        self.durations.append(CLOCK() - start)
        self.starts.append(start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Seconds of [start, end] without probe time, at the reference speed."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        window = self.durations[lo:hi]
        if not window:
            return end - start
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.starts, end)
        own = end - start - sum(self.durations[first:last])
        return own * REFERENCE_S / statistics.fmean(window)
