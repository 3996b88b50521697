"""Exact thresholded bipartite matching between two vector sets.

The score maximized here is lexicographic: first the number of matched
pairs whose similarity clears the threshold, then the total similarity of
those pairs.  The reduction to a single assignment problem shifts every
valid edge weight by a constant W larger than the sum of all edge weights,
so one extra matched pair always outweighs any possible weight change;
the solver then only has to maximize the shifted total.

``set_bounds`` brackets the exact score of a query against many sets of a
repository at once, from one product over the sets' gathered rows, and
``exact_topk`` verifies sets in descending upper bound until no unverified
set can reach the k-th weight: the exact scan that ground truth is made of.

``brute_force_unionability`` recomputes the same objective by exhaustive
enumeration over injective partial mappings (memoized over a bitmask of
the smaller side) and is deliberately independent of the assignment-solver
path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DataError, UsageError
from .pruning import BOUND_SLACK

BRUTE_FORCE_MAX_SIDE = 8


@dataclass(frozen=True)
class MatchingResult:
    cardinality: int
    weight: float
    assignment: list[tuple[int, int]]  # matched (left, right) pairs


def _sim_matrix(q_mat: np.ndarray, v_mat: np.ndarray) -> np.ndarray:
    return q_mat.astype(np.float64) @ v_mat.astype(np.float64).T


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


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``range(s, s + n)`` over ``zip(starts, lengths)``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - (ends - lengths), lengths)


def matching_floors(sims: np.ndarray, valid: np.ndarray, capacities, starts):
    """For tables laid side by side in ``sims`` (0 below tau), table t from
    column ``starts[t]``, each column usable ``capacities`` times: an
    ``n_rows x n_tables`` array whose row c sums the c + 1 smallest per-row
    minimum valid entries (infinite where fewer rows have one), which any
    matching of more than c rows outweighs; and per table the most rows a
    matching can take, min(rows with a valid entry, sum of min(capacity,
    reach))."""
    row_min = np.minimum.reduceat(np.where(valid, sims, np.inf), starts, axis=1)
    reach = np.add.reduceat(np.minimum(capacities, valid.sum(axis=0)), starts)
    most = np.minimum(np.isfinite(row_min).sum(axis=0), reach)
    return np.sort(row_min, axis=0).cumsum(axis=0), most


def _bounded_product(q_mat: np.ndarray, repo, sids: np.ndarray, tau: float):
    """The query's product with the listed sets' gathered rows, 0 below tau;
    its valid mask; each set's first column in it; and each set's upper
    bound, the smaller of the row-max and column-max sums."""
    if tau <= 0:
        raise UsageError(f"tau must be > 0, got {tau}")
    start = repo.offsets[sids]
    sizes = repo.offsets[sids + 1] - start
    seg = np.cumsum(sizes) - sizes
    sims = _sim_matrix(np.asarray(q_mat), repo.matrix[ranges(start, sizes)])
    valid = sims >= tau
    sims[~valid] = 0.0
    ub = np.minimum(
        np.maximum.reduceat(sims, seg, axis=1).sum(axis=0),
        np.add.reduceat(sims.max(axis=0), seg),
    )
    return sims, valid, seg, ub


def set_bounds(q_mat: np.ndarray, repo, set_ids, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on ``unionability`` of the query against each
    listed set of ``repo``, from one product over the sets' gathered rows.

    The upper bound is the smaller of the row-max and column-max sums over
    the entries that clear tau.  The lower bound is the weight of a greedy
    matching (each query column in input order takes its most similar free
    set column, ties to the lower column), capped by ``matching_floors``
    when it matches fewer columns than the exact, largest matching does.
    """
    sids = np.asarray(set_ids, dtype=np.int64)
    if len(sids) == 0:
        return np.zeros(0), np.zeros(0)
    if sids.min() < 0 or sids.max() >= repo.n_sets:
        raise DataError(f"unknown set_id in {sids.tolist()} (repository has {repo.n_sets} sets)")
    sims, valid, seg, ub = _bounded_product(q_mat, repo, sids, tau)
    owner = np.repeat(np.arange(len(sids)), np.diff(seg, append=sims.shape[1]))
    floors, most = matching_floors(sims, valid, 1, seg)

    weight = np.zeros(len(sids))
    card = np.zeros(len(sids), dtype=np.int64)
    for i in np.flatnonzero(valid.any(axis=1)).tolist():
        row = sims[i]  # a taken column reads 0 in every row
        best = np.maximum.reduceat(row, seg)
        hits = np.flatnonzero((row == best[owner]) & (row > 0.0))
        sets = owner[hits]
        first = np.ones(len(sets), dtype=bool)  # keep a set's lowest tied column
        first[1:] = sets[1:] != sets[:-1]
        taken, sets = hits[first], sets[first]
        weight[sets] += row[taken]
        card[sets] += 1
        sims[:, taken] = 0.0

    floor = floors[np.minimum(card, len(sims) - 1), np.arange(len(sids))]
    lb = np.where(card == most, weight, np.minimum(weight, floor))
    return np.minimum(lb, ub), ub


def exact_topk(q_mat: np.ndarray, repo, tau: float, k: int) -> list[tuple[int, float, int]]:
    """The ``min(k, n_sets)`` best sets of ``repo`` by exact score, as
    (set id, weight, cardinality) sorted by (weight desc, cardinality desc,
    set id asc).  Sets are verified with ``unionability`` in descending
    upper bound until none left can reach the k-th weight found (less
    ``BOUND_SLACK``), so the result is that of scoring every set."""
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    *_, ub = _bounded_product(q_mat, repo, np.arange(repo.n_sets), tau)
    k = min(k, repo.n_sets)
    scored = []
    best: list[float] = []  # min-heap of the k largest weights so far
    for sid in np.lexsort((np.arange(len(ub)), -ub)).tolist():
        if len(best) == k and ub[sid] + BOUND_SLACK < best[0]:
            break
        res = unionability(q_mat, repo.vectors_of(sid), tau)
        scored.append((sid, res.weight, res.cardinality))
        if len(best) < k:
            heapq.heappush(best, res.weight)
        else:
            heapq.heappushpop(best, res.weight)
    scored.sort(key=lambda t: (-t[1], -t[2], t[0]))
    return scored[:k]


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
