"""Machine-speed calibration for the end-to-end timings.

On a shared 2-vCPU VM the same pure-Python loop runs up to 1.65x
slower for tens of seconds at a time, which swamps any regression
bound.  So each timed sample is scaled by how fast a fixed loop ran
just before and just after it: ``elapsed * NOMINAL_S / loop time``.
The result is in calibrated seconds (seconds on a machine where the
loop takes ``NOMINAL_S``); a slow phase slows the loop and the sample
alike and cancels.  The loop is the benchmark's own code, so a change
to the program cannot move it.
"""

import statistics
import time

perf_counter = time.perf_counter

#: What the calibration loop takes on the reference machine at its
#: usual speed; calibrated seconds are seconds at that speed.
NOMINAL_S = 0.03


def _loop() -> int:
    total = 0
    for i in range(400_000):
        total += i * i % 7
    return total


def probe() -> float:
    """Median of three timed runs of the calibration loop."""
    samples = []
    for _ in range(3):
        started = perf_counter()
        _loop()
        samples.append(perf_counter() - started)
    return statistics.median(samples)


class Clock:
    """Probes right before and right after each timed sample."""

    def __init__(self) -> None:
        self._before = NOMINAL_S
        self.factor = 1.0

    def start(self) -> None:
        """Call just before a timed sample starts."""
        self._before = probe()

    def scale(self, elapsed: float) -> float:
        """Calibrated seconds for the sample that just ended."""
        after = probe()
        self.factor = NOMINAL_S / ((self._before + after) / 2)
        return elapsed * self.factor
