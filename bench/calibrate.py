"""A fixed reference kernel that gauges how fast the host runs Python now.

The benchmark runs on shared hosts whose speed changes by tens of
percent, within a second and from one minute to the next, and process
CPU time changes with it. Raw times from two sets of runs of the same
code therefore disagree by more than any useful bound. So the benchmark
runs slices of this kernel interleaved with what it measures and reports
times in reference seconds: the measured time scaled by
SLICE_REFERENCE_S / (mean time of the slices run beside it). On a host
that runs a slice in SLICE_REFERENCE_S, a reference second is a second.

The kernel (kernel.py) does what lifelens does most, in plain Python
that no change to lifelens can touch.
"""

from __future__ import annotations

import contextlib
import signal
import time

from kernel import kernel_slice

SLICE_REFERENCE_S = 0.004
"""Wall time of one slice interleaved with lifelens on the host the
baselines were taken on (2 vCPUs, Python 3.11.7): 3.5 to 4 ms, rounded
up. It fixes the scale of a reference second, and it never changes."""
PERIOD_S = 0.04
"""Wall time between the starts of two slices while a Gauge is running."""


class Gauge:
    """Runs one slice every PERIOD_S of wall time while `running()`,
    from a SIGALRM handler in the main thread, and adds up their time."""

    def __init__(self) -> None:
        self.slices = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _tick(self, signum, frame) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        kernel_slice()
        self.slices += 1
        self.wall_s += time.perf_counter() - wall
        self.cpu_s += time.process_time() - cpu

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def to_reference(seconds: float, slice_seconds: float, slices: int) -> float:
    """`seconds` measured where `slices` slices took `slice_seconds`, in
    reference seconds."""
    return seconds * SLICE_REFERENCE_S * slices / slice_seconds
