"""Probe-calibrated timing.

On a shared two-core box the same pure-Python loop swings by half its
time and more, in phases of a tenth of a second to several seconds, and
process CPU time moves with wall time, so neither clock alone is steady.
Timing each section between two runs of a fixed reference loop follows
the phases that last seconds but not the shorter ones.  So while a
section runs, ``Probe`` samples the box's speed every ``PROBE_EVERY_S``
seconds: a SIGALRM handler runs a fixed pure-Python loop and records its
time.  A section's figure is

    calibrated = (raw - probe time) * (NOMINAL_PROBE_S / mean probe) ** k

that is, its time on a box where the probe takes its nominal time.  The
commands slow down more than the probe when the box is busy: pooled
over runs of every command, their time went as the probe's to the power
1.4 (``SLOWDOWN_EXPONENT``).
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_EVERY_S = 0.01
PROBE_LOOPS = 2000
# median probe time on the two-core box the benchmark was tuned on; a
# constant, so calibrated figures compare across runs
NOMINAL_PROBE_S = 0.00018
SLOWDOWN_EXPONENT = 1.4


def probe_seconds() -> float:
    """Run the probe loop once and return its wall time."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
    elapsed = time.perf_counter() - t0
    if acc < 0:  # keeps the result live
        raise AssertionError("probe loop went wrong")
    return elapsed


def calibrate(net: float, mean_probe: float) -> float:
    """Seconds on a box where the probe takes NOMINAL_PROBE_S."""
    return net * (NOMINAL_PROBE_S / mean_probe) ** SLOWDOWN_EXPONENT


class Probe:
    """Times a section and samples the box's speed while it runs.

    One probe runs just before and one just after the section, so even
    a section shorter than the sampling interval is calibrated.  Not
    reentrant; the section must run in the main thread.
    """

    def __enter__(self):
        self.samples = [probe_seconds()]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.raw = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.net = self.raw - sum(self.samples[1:])
        self.samples.append(probe_seconds())
        return False

    def _sample(self, signum, frame):
        self.samples.append(probe_seconds())

    @property
    def mean_probe(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def seconds(self) -> float:
        return calibrate(self.net, self.mean_probe)
