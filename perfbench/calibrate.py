"""Host-speed calibration of the host timings.

The benchmark runs on shared machines whose speed drifts by 20% and
more within minutes, enough to swamp a single pass's wall time.  While
a run measures, a ``SIGALRM`` interval timer interrupts the program
every ``PERIOD_S`` seconds and times a fixed pure-Python burst, so the
host's speed is sampled throughout the very interval being timed.
Calibrated seconds are host seconds net of the bursts, rescaled by
``REFERENCE_BURST_S`` over the run's mean burst time: what the interval
would have taken on a host running the burst in the reference time
(about its time on a 2-vCPU Intel Xeon VM, so calibrated and raw
seconds are close there).  The burst is independent of ``repro``, so a
faster simulator still reads faster.  The bursts touch no simulator
state; the benchmark's own test checks the simulated outcome is
unchanged with the timer running.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

PERIOD_S = 0.2
REFERENCE_BURST_S = 0.003


def burst() -> int:
    """A few milliseconds of dict, arithmetic and loop work."""
    table: dict[int, int] = {}
    x = 0
    for i in range(20_000):
        table[i & 255] = x
        x = (x * 31 + i) % 1_000_003
    return x


class SpeedSampler:
    """Times ``burst`` every ``PERIOD_S`` host seconds while running."""

    def __init__(self):
        #: (host start, seconds) of every burst.
        self.bursts: list[tuple[float, float]] = []

    def _on_alarm(self, _signum, _frame) -> None:
        start = time.perf_counter()
        burst()
        self.bursts.append((start, time.perf_counter() - start))

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def calibrated(self, start: float, end: float) -> float:
        """Calibrated seconds of the host interval ``[start, end)``."""
        if not self.bursts:
            raise RuntimeError("no calibration burst ran")
        inside = sum(s for t, s in self.bursts if start <= t < end)
        mean = statistics.fmean(s for _t, s in self.bursts)
        return (end - start - inside) * REFERENCE_BURST_S / mean
