"""Machine-speed reference for the benchmark's timings.

The benchmark was written on a 2-core share of a busy host whose speed for
one thread swings between a fast and a slow state, up to 1.8x apart, each
lasting seconds, and drifts by up to 1.5x over minutes.  A fixed reference
kernel, run between jobs, slows with it: over 15 s windows in which the
median latency of `liewedge example 2` moved from 104 to 117 ms, its ratio
to the kernel's median stayed within 47-50.

`Speedometer` times that kernel before a job whenever EVERY_S seconds have
passed since the last time, and scales a time measured between two moments
to a machine on which the kernel's median is `NOMINAL_S`, using the kernel
samples nearest those moments.  The kernel does the kinds of work the
workloads do: 3x3 `expm`, small `eigh`, 60x60 SVDs and an interpreter-bound
loop.  It does not call liewedge, so a change to the package moves the
scaled times and not the scale.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
import scipy.linalg

# Median time of one kernel call on the 2-core x86 virtual machine the
# benchmark was written on.
NOMINAL_S = 2.0e-3
# Kernel samples taken on each side of a timed interval to scale it.
NEAREST = 8
# Least time between two kernel samples taken by `tick`.
EVERY_S = 0.05


class Speedometer:
    def __init__(self):
        rng = np.random.default_rng(20110314)
        self._small = [rng.normal(size=(3, 3)) for _ in range(24)]
        self._sym = [(lambda m: m + m.T)(rng.normal(size=(9, 9)))
                     for _ in range(12)]
        self._big = rng.normal(size=(60, 60))
        self.starts, self.ends, self.samples = [], [], []

    def _kernel(self) -> float:
        acc = 0.0
        for a in self._small:
            acc += float(scipy.linalg.expm(a)[0, 0])
        for s in self._sym:
            acc += float(np.linalg.eigh(s)[0][0])
        for _ in range(2):
            acc += float(np.linalg.svd(self._big, compute_uv=False)[0])
        counts = {}
        for i in range(3000):
            counts[i % 61] = counts.get(i % 61, 0) + i
        return acc + counts[0]

    def sample(self, count: int = 1):
        """Time the kernel `count` times."""
        for _ in range(count):
            t0 = time.perf_counter()
            self._kernel()
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.ends.append(t1)
            self.samples.append(t1 - t0)

    def tick(self):
        """Time the kernel once if EVERY_S has passed since the last time."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= EVERY_S:
            self.sample()

    def settle(self):
        """Take the samples that scale the interval that just ended."""
        self.sample(NEAREST)

    def scale(self, start: float, end: float) -> float:
        """Factor that scales a time measured from `start` to `end`: NOMINAL_S
        over the median of the NEAREST kernel samples that ended before
        `start` and the NEAREST that began after `end`."""
        i = bisect.bisect_right(self.ends, start)
        j = bisect.bisect_left(self.starts, end)
        near = self.samples[max(0, i - NEAREST):i] + self.samples[j:j + NEAREST]
        return NOMINAL_S / statistics.median(near)
