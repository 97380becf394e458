"""Express measured times at a fixed machine speed.

On a shared 2-vCPU Xeon virtual machine the same code runs up to 1.5
times faster or slower from one minute to the next, for reasons outside
the process (other tenants, clock changes). A fixed kernel that uses
nothing from the package, a pure-Python loop plus small numpy calls like
the package's own inner loops, is timed every tenth of a second of a run.
Each measured time is multiplied by KERNEL_S over the median of the
NEAREST kernel times closest to it, which reads it in seconds of a machine
on which the kernel takes KERNEL_S. On that machine this cut the spread of
three-second medians of an operation from about 22% to about 5%. The
uncalibrated times are kept in the full record.
"""

import math
import statistics
import time

import numpy as np

KERNEL_S = 0.004
INTERVAL_S = 0.1
NEAREST = 3


def kernel():
    total = 0
    for i in range(25_000):
        total += i * i % 7
    v = np.arange(12.0)
    M = np.eye(12)
    acc = 0.0
    for i in range(700):
        c = float(v[3:] @ M[3, 3:])
        acc += math.floor(c + 0.5) + float(np.linalg.norm(v[:6]))
        v[i % 12] = c % 3
    return total + acc


class SpeedClock:
    """Samples of the kernel time, and the scale that calibrates a measurement."""

    def __init__(self):
        self.samples = []  # (start, kernel seconds)

    def sample(self):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def tick(self):
        """Sample if the last sample is older than INTERVAL_S."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            self.sample()

    def scale(self, at):
        """Factor that turns a time measured at perf_counter() == at into calibrated seconds."""
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - at))[:NEAREST]
        return KERNEL_S / statistics.median(k for _, k in nearest)
