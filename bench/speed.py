"""A CPU speed probe, sampled while the benchmark runs.

The 2-vCPU virtual machines this benchmark was built on alternate between
a fast and a slow state: pure-Python code runs about 1.7 times slower in
the slow one, the state changes over fractions of a second to minutes, and
raw timings of the same code spread by 30% from run to run.  So every time
the benchmark reports is rescaled to a reference speed.

Every PROBE_INTERVAL_S of CPU time a SIGPROF handler runs a fixed probe
(dict updates with tuple keys and Fraction sums, the kind of work the
library does) and records its duration.  An interval measured with
``mark``/``rescale`` loses the probe time spent inside it and is
multiplied by the mean of REFERENCE_PROBE_S over the probe durations
during it (or over the last RECENT probes, for shorter intervals).  The
probe is the benchmark's own code, so a change to the library moves the
measured interval and leaves the probe alone.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.02
RECENT = 5
# about the probe's duration on the reference machine in its fast state,
# so that rescaled times read close to that state's wall-clock times
REFERENCE_PROBE_S = 100e-6


def _probe():
    table: dict = {}
    total = Fraction(0)
    for i in range(120):
        key = (("a", i & 7), ("b", i % 5))
        table[key] = table.get(key, 0) + i * 7919
        if i % 8 == 0:
            total += Fraction(i + 1, 7)
    return table, total


class Speedometer:
    """Context manager that samples the probe on SIGPROF while active."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        _probe()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.busy_s += elapsed

    def __enter__(self):
        for _ in range(RECENT):
            self._sample()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.busy_s

    def rescale(self, mark: tuple[int, float], elapsed: float) -> tuple[float, float]:
        """(raw, rescaled) seconds of an interval of ``elapsed`` wall-clock
        seconds that started at ``mark``, both without the probe time."""
        count, busy = mark
        raw = elapsed - (self.busy_s - busy)
        inside = self.samples[count:]
        window = inside if len(inside) >= RECENT else self.samples[-RECENT:]
        # probes fall at equal steps of CPU time, so the interval's work at
        # reference speed is its time times the mean reference-to-probe ratio
        return raw, raw * statistics.fmean(REFERENCE_PROBE_S / p for p in window)
