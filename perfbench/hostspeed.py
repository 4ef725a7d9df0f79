"""The reference host's speed, sampled between and beside commands.

The reference host (a 2-vCPU VM) runs the same code up to 2x slower for
seconds at a time, and process CPU time slows with it, so neither wall nor
CPU time alone is steady (see NOTES.md). The benchmark times a fixed
pure-Python loop outside the timed regions and scales each command's time by
how slow the loop ran around it. The loop is benchmark code, so a change to
the program moves the scaled times fully, while the host's drift cancels.
"""

from __future__ import annotations

import time

# The loop's time on the reference host (2 vCPU Xeon, Python 3.11.7) at full
# speed: scaled times are times at that speed.
REFERENCE_SPEED_S = 0.0015
SPEED_GAP_S = 0.05  # a sample younger than this is reused


def loop_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class SpeedLog:
    """Loop times taken by one invoker, oldest first."""

    def __init__(self):
        self.samples = []
        self._at = float("-inf")

    def sample(self) -> float:
        """A fresh loop time, or the latest one if it is under SPEED_GAP_S old."""
        if time.perf_counter() - self._at >= SPEED_GAP_S:
            self.samples.append(loop_seconds())
            self._at = time.perf_counter()
        return self.samples[-1]
