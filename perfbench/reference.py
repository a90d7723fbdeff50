"""Host-speed reference: a fixed kernel timed between requests.

On a shared machine the same run can take a fifth to a half longer from
one minute to the next, because neighbours contend for the cores, the
caches and the memory bus.  The benchmark therefore times this kernel,
which does not touch the program, every quarter second of a run, and
reports its end-to-end times scaled to the speed at which the kernel
takes :data:`NOMINAL_S`.  The kernel mixes interpreter work with numpy masks
over an array larger than a core's private caches, like a query does,
so it slows down with the same contention the program does.

A change to the program does not change the kernel's time, so the
scaled times move exactly as the wall times would on a quiet machine.
The raw wall times and the kernel's median are printed beside them.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Kernel time the scaled figures assume (close to its median on a
#: 2-core VM with no neighbour load).
NOMINAL_S = 2e-3
#: Seconds between samples during a timed phase (about 1 % overhead).
EVERY_S = 0.25


class HostReference:
    """Samples the reference kernel at most every :data:`EVERY_S` seconds."""

    def __init__(self) -> None:
        self._a = np.random.default_rng(0).gamma(2.0, 0.7, 1 << 19).astype(np.float32)
        self.samples: List[float] = []
        self._due = 0.0

    def sample(self) -> float:
        """Time one run of the kernel; returns and records its seconds."""
        t0 = time.perf_counter()
        counts = {}
        for i in range(1000):
            counts[i & 63] = counts.get(i & 63, 0) + i
        a = self._a
        hits = np.flatnonzero((a > 2.0) & (a < 2.5))
        float(a[hits].sum())
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def tick(self) -> float:
        """Sample when due; returns the seconds spent sampling."""
        now = time.perf_counter()
        if now < self._due:
            return 0.0
        dt = self.sample()
        self._due = now + EVERY_S
        return dt

    def mark(self) -> int:
        return len(self.samples)

    def median(self, since: int = 0) -> float:
        return statistics.median(self.samples[since:])

    def scale(self, since: int = 0) -> float:
        """Factor turning a wall time measured since ``since`` into a time
        at the nominal host speed."""
        return NOMINAL_S / self.median(since)
