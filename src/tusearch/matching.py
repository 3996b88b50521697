"""Exact thresholded bipartite matching between two vector sets.

The score maximized here is lexicographic: first the number of matched
pairs whose similarity clears the threshold, then the total similarity of
those pairs.  The reduction to a single assignment problem shifts every
valid edge weight by a constant W larger than the sum of all edge weights,
so one extra matched pair always outweighs any possible weight change;
the solver then only has to maximize the shifted total.

``brute_force_unionability`` recomputes the same objective by exhaustive
enumeration over injective partial mappings (memoized over a bitmask of
the smaller side) and is deliberately independent of the assignment-solver
path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import UsageError

BRUTE_FORCE_MAX_SIDE = 8


@dataclass(frozen=True)
class ThresholdBipartiteGraph:
    """Edges between query columns and candidate columns with similarity >= tau."""

    left_size: int
    right_size: int
    edges: list[tuple[int, int, float]]  # (left index, right index, weight)


@dataclass(frozen=True)
class MatchingResult:
    cardinality: int
    weight: float
    assignment: list[tuple[int, int]]  # matched (left, right) pairs


def _sim_matrix(q_mat: np.ndarray, v_mat: np.ndarray) -> np.ndarray:
    return q_mat.astype(np.float64) @ v_mat.astype(np.float64).T


def build_threshold_graph(q_mat: np.ndarray, v_mat: np.ndarray, tau: float) -> ThresholdBipartiteGraph:
    """Materialize all pairs with inner product >= tau.  Requires tau > 0."""
    if tau <= 0:
        raise UsageError(f"tau must be > 0, got {tau}")
    sims = _sim_matrix(q_mat, v_mat)
    li, ri = np.nonzero(sims >= tau)
    edges = [(int(i), int(j), float(sims[i, j])) for i, j in zip(li, ri)]
    return ThresholdBipartiteGraph(q_mat.shape[0], v_mat.shape[0], edges)


def solve_shifted_assignment(sims: np.ndarray, valid: np.ndarray) -> MatchingResult:
    """Maximum-cardinality-then-maximum-weight matching over ``valid`` cells.

    ``sims`` is the full similarity matrix; ``valid`` marks threshold edges.
    Invalid cells enter the assignment problem with profit exactly 0, valid
    cells with ``sims + W``; selecting an invalid cell is therefore never
    worth anything and the optimum over full assignments coincides with the
    optimum over partial matchings.
    """
    if not valid.any():
        return MatchingResult(0, 0.0, [])
    shift = 1.0 + float(sims[valid].sum())
    profit = np.where(valid, sims + shift, 0.0)
    rows, cols = linear_sum_assignment(profit, maximize=True)
    keep = valid[rows, cols]
    rows, cols = rows[keep], cols[keep]
    weight = float(sum(sims[rows, cols].tolist()))  # added left to right in row order
    return MatchingResult(len(rows), weight, list(zip(rows.tolist(), cols.tolist())))


def unionability(q_mat: np.ndarray, v_mat: np.ndarray, tau: float) -> MatchingResult:
    """Exact thresholded matching score between two column-vector blocks.

    Returns a matching of maximum cardinality whose weight is maximal among
    all maximum-cardinality matchings.  Symmetric in its two arguments up to
    the orientation of the returned pairs.
    """
    if tau <= 0:
        raise UsageError(f"tau must be > 0, got {tau}")
    sims = _sim_matrix(q_mat, v_mat)
    return solve_shifted_assignment(sims, sims >= tau)


def brute_force_unionability(q_mat: np.ndarray, v_mat: np.ndarray, tau: float) -> MatchingResult:
    """Exhaustive (cardinality, weight)-lexicographic maximum over all
    injective partial mappings restricted to threshold edges.

    Guard: the smaller side must have at most ``BRUTE_FORCE_MAX_SIDE``
    vectors.  Enumeration state is memoized on (next row, used-column mask)
    with columns taken on the smaller side.
    """
    if tau <= 0:
        raise UsageError(f"tau must be > 0, got {tau}")
    sims = _sim_matrix(q_mat, v_mat)
    transposed = False
    if sims.shape[1] > sims.shape[0]:
        sims = sims.T
        transposed = True
    n_rows, n_cols = sims.shape
    if n_cols > BRUTE_FORCE_MAX_SIDE:
        raise UsageError(
            f"brute force guard: min side {n_cols} exceeds {BRUTE_FORCE_MAX_SIDE}"
        )
    valid = sims >= tau
    memo: dict[tuple[int, int], tuple[int, float]] = {}

    def best(row: int, mask: int) -> tuple[int, float]:
        if row == n_rows:
            return (0, 0.0)
        key = (row, mask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = best(row + 1, mask)  # leave this row unmatched
        for col in range(n_cols):
            if valid[row, col] and not mask & (1 << col):
                card, weight = best(row + 1, mask | (1 << col))
                cand = (card + 1, weight + float(sims[row, col]))
                if cand > out:
                    out = cand
        memo[key] = out
        return out

    card, weight = best(0, 0)

    # Reconstruct one optimal assignment by replaying the DP decisions.
    pairs: list[tuple[int, int]] = []
    mask = 0
    row = 0
    remaining = (card, weight)
    while row < n_rows and remaining[0] > 0:
        skip = best(row + 1, mask)
        took = False
        for col in range(n_cols):
            if valid[row, col] and not mask & (1 << col):
                card2, weight2 = best(row + 1, mask | (1 << col))
                cand = (card2 + 1, weight2 + float(sims[row, col]))
                if abs(cand[1] - remaining[1]) < 1e-12 and cand[0] == remaining[0] and cand >= skip:
                    pairs.append((row, col))
                    mask |= 1 << col
                    remaining = (card2, weight2)
                    took = True
                    break
        if not took:
            remaining = skip
        row += 1
    if transposed:
        pairs = [(c, r) for r, c in pairs]
    return MatchingResult(card, weight, pairs)
