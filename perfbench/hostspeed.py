"""The host's speed, sampled while a batch runs, to correct times for its drift.

The benchmark runs on a VM whose vCPUs share a host with other tenants.  The
same fixed work takes up to 30% longer in one minute than in the next, in
CPU time as much as in wall time, so raw times of runs made minutes apart
differ by more than a regression worth catching.  A fixed kernel that uses
no part of ``telegraph`` is timed alongside the program, and each time the
benchmark reports is scaled by how much slower or faster than
``REFERENCE_KERNEL_S`` that kernel ran:

    corrected = raw * REFERENCE_KERNEL_S / median kernel time

A change to the program leaves the kernel's time as it was, so it shows in
the corrected time in full; a change of the host's speed moves both and
cancels.  The kernel is pure-Python arithmetic, like most of the program's
time, and samples are taken every ``PERIOD_S`` of wall time while the batch
runs, so they follow the drift through a batch's long ops.
"""

import signal
import statistics
from time import perf_counter

#: median kernel time on the 2-vCPU VM the benchmark was defined on
REFERENCE_KERNEL_S = 0.00058
PERIOD_S = 0.05
CALIBRATION_SAMPLES = 25


def kernel():
    """Fixed work of about half a millisecond that touches no part of ``telegraph``."""
    acc = 0.0
    for i in range(3000):
        x = (i % 97) * 0.01
        acc += x * x / (1.0 + x)
    return acc


def sample():
    """One kernel time; a first run warms the caches the kernel uses."""
    kernel()
    start = perf_counter()
    kernel()
    return perf_counter() - start


def calibrate():
    """Median kernel time over ``CALIBRATION_SAMPLES`` samples taken now."""
    return statistics.median(sample() for _ in range(CALIBRATION_SAMPLES))


class Sampler:
    """Samples the kernel every ``PERIOD_S`` while the ``with`` block runs.

    A ``SIGALRM`` handler takes the samples in the main thread, between the
    program's bytecodes.  ``overhead_s`` is the time the handler ran, which
    the caller subtracts from the block's wall time.
    """

    def __init__(self):
        self.samples = []
        self.overhead_s = 0.0
        self._previous = None

    def _tick(self, signum=None, frame=None):
        start = perf_counter()
        self.samples.append(sample())
        self.overhead_s += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def kernel_s(self):
        """Median kernel time over the block."""
        return statistics.median(self.samples)
