"""A fixed unit of work that measures how fast the machine runs right now.

On a shared two-core machine the speed of the same code drifts by up to 2x
within seconds (other tenants, frequency), while CPU time tracks wall time,
so waiting for a quiet machine does not help.  The benchmark therefore
times this unit next to every query and every bundle load and reports the
program's times rescaled to a machine on which one unit takes
``REFERENCE_UNIT_S``.  The unit mixes the operations the search spends its
time in (interpreted loops, heap operations, small matrix products, sorts
and ``np.unique``) and never calls the program, so a change to the program
cannot change it.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

# Median time of one unit on the reference machine (see README).
REFERENCE_UNIT_S = 0.75e-3


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(20251107)
        self._a = rng.standard_normal((16, 32))
        self._b = rng.standard_normal((256, 32))
        self._ids = rng.integers(0, 200, 300)
        self._order = np.arange(256)
        self._vals = [float(v) for v in rng.random(60)]

    def unit(self) -> float:
        """Run one unit of work; returns its wall time in seconds."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += i * i
        for _ in range(6):
            sims = self._a @ self._b.T
            np.lexsort((self._order, -sims[0]))
            np.unique(self._ids, return_counts=True)
            heap: list[tuple[float, int]] = []
            for v in self._vals:
                heapq.heappush(heap, (v, acc & 1))
            while heap:
                heapq.heappop(heap)
        return time.perf_counter() - t0

    def units(self, n: int) -> float:
        """Mean wall time of ``n`` units."""
        return sum(self.unit() for _ in range(n)) / n


def rescale(seconds: float, unit_before: float, unit_after: float) -> float:
    """``seconds`` measured between two unit timings, at reference speed."""
    return seconds * REFERENCE_UNIT_S / ((unit_before + unit_after) / 2.0)
