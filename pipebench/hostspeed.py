"""A clock that runs at the host's measured speed.

The benchmark host is a shared virtual machine: a fixed piece of pure-Python
work takes anywhere from 1x to 2x its best time, and the slow spells come and
go within milliseconds and last up to tens of seconds.  Wall-clock timings of
the same pass vary by tens of percent from run to run, so no run length here
gives steady wall-clock figures.

``SpeedClock`` samples the host's speed every ``INTERVAL_S`` seconds with a
fixed probe (timed by a SIGALRM handler, in the same thread) and advances by
elapsed wall time multiplied by that speed, with the probe's own time left
out.  A span on this clock is the wall time the same work would take on the
reference host, where the probe takes ``REFERENCE_PROBE_S``.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.025
# Best time of probe() on the reference host (2-vCPU Xeon KVM guest,
# CPython 3.11); a fixed constant, so spans stay comparable across commits.
REFERENCE_PROBE_S = 0.0006


def probe() -> float:
    """Seconds taken by a fixed piece of interpreter work (~0.6 ms at best)."""
    start = perf_counter()
    table: dict = {}
    for i in range(1500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + len(f"{i}:{key[0]}")
    return perf_counter() - start


class SpeedClock:
    """Reference-host seconds, advanced at the host speed sampled every tick."""

    def __init__(self):
        # (reference seconds, perf_counter at that reading, current speed,
        # probe seconds so far); replaced as a whole so that now() can read a
        # consistent snapshot while a tick may interrupt it.
        self._state = (0.0, perf_counter(), 1.0, 0.0)
        self.probes = 0

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        speed = REFERENCE_PROBE_S / probe()
        work, mark, last, paused = self._state
        end = perf_counter()
        self._state = (work + (start - mark) * (last + speed) / 2, end, speed, paused + end - start)
        self.probes += 1

    def start(self) -> None:
        """Sample the speed now and then every INTERVAL_S seconds."""
        work, _, _, paused = self._state
        self._state = (work, perf_counter(), REFERENCE_PROBE_S / probe(), paused)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> tuple[float, float]:
        """(reference seconds, wall seconds without probe time) so far."""
        while True:
            state = self._state
            t = perf_counter()
            if state is self._state:
                work, mark, speed, paused = state
                return work + (t - mark) * speed, t - paused
