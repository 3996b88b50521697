"""Exact top-k oracle, written apart from ``tusearch.matching`` and
``tusearch.evaluation`` so that it can check them.

A set's exact score against a query is the maximum-cardinality matching of
query columns to set columns over pairs with similarity >= tau, and among
those the one of largest total similarity.  Adding a constant larger than
every possible total to each valid pair turns that lexicographic objective
into a plain maximum-weight assignment.  All sets are scored from one
query-by-repository similarity product.

``QueryOracle.top_k`` scores sets in descending order of a cheap upper
bound on their weight and stops once no unscored set can reach the k-th
weight, which returns exactly the ranking that scoring every set would
(``score_all``, kept as the reference the tests compare against).
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy.optimize import linear_sum_assignment

BOUND_SLACK = 1e-9  # summation-order rounding between a bound and a weight


def exact_pair(sims: np.ndarray, tau: float) -> tuple[int, float]:
    """(cardinality, weight) of the best thresholded matching in ``sims``."""
    valid = sims >= tau
    if not valid.any():
        return 0, 0.0
    big = 1.0 + float(np.abs(sims[valid]).sum())
    gain = np.where(valid, sims + big, 0.0)
    rows, cols = linear_sum_assignment(gain, maximize=True)
    keep = valid[rows, cols]
    return int(keep.sum()), float(sims[rows[keep], cols[keep]].sum())


def rank(scored: dict[int, tuple[int, float]], k: int) -> list[tuple[int, float, int]]:
    """(set id, weight, cardinality), best k by weight, then cardinality, then id."""
    order = sorted(scored.items(), key=lambda e: (-e[1][1], -e[1][0], e[0]))[:k]
    return [(sid, weight, card) for sid, (card, weight) in order]


def score_all(query: np.ndarray, matrix: np.ndarray, offsets: np.ndarray, tau: float):
    """Every set's (cardinality, weight), as a dict keyed by set id."""
    product = query.astype(np.float64) @ matrix.astype(np.float64).T
    return {
        sid: exact_pair(product[:, offsets[sid] : offsets[sid + 1]], tau)
        for sid in range(len(offsets) - 1)
    }


class QueryOracle:
    """Exact scores of one query against a repository stored as one row
    matrix split by ``offsets``; scores are computed on demand and kept."""

    def __init__(self, query: np.ndarray, matrix64: np.ndarray, offsets: np.ndarray, tau: float):
        self.product = query.astype(np.float64) @ matrix64.T
        self.offsets = offsets
        self.tau = tau
        self.scored: dict[int, tuple[int, float]] = {}

    def score(self, sid: int) -> tuple[int, float]:
        hit = self.scored.get(sid)
        if hit is None:
            lo, hi = self.offsets[sid], self.offsets[sid + 1]
            hit = self.scored[sid] = exact_pair(self.product[:, lo:hi], self.tau)
        return hit

    def upper_bounds(self) -> np.ndarray:
        """Per set, the smaller of the sums of per-row and per-column best
        valid similarity; no thresholded matching weighs more."""
        valid = np.where(self.product >= self.tau, self.product, 0.0)
        starts = self.offsets[:-1]
        by_row = np.maximum.reduceat(valid, starts, axis=1).sum(axis=0)
        by_col = np.add.reduceat(valid.max(axis=0), starts)
        return np.minimum(by_row, by_col)

    def top_k(self, k: int) -> list[tuple[int, float, int]]:
        bounds = self.upper_bounds()
        best: list[float] = []  # min-heap of the k largest weights so far
        for sid in np.lexsort((np.arange(len(bounds)), -bounds)):
            if len(best) == k and bounds[sid] < best[0] - BOUND_SLACK:
                break
            weight = self.score(int(sid))[1]
            if len(best) < k:
                heapq.heappush(best, weight)
            elif weight > best[0]:
                heapq.heapreplace(best, weight)
        return rank(self.scored, k)
