"""Exact thresholded bipartite matching between two vector sets.

The score maximized here is lexicographic: first the number of matched
pairs whose similarity clears the threshold, then the total similarity of
those pairs.  The reduction to a single assignment problem shifts every
valid edge weight by a constant W larger than any matching can weigh, so
one extra matched pair always outweighs any possible weight change; the
solver then only has to maximize the shifted total.

``row_best`` forms, for many tables laid side by side and with no loop
per row or per table, the matching in which every row proposes its best
column and each column keeps its best proposers while it has room: a
lower bound on the exact score of each table, and the exact optimum of
each ``settled`` table, where every row a column turned away could use no
other column.  Both search stages read their lower bounds from it.
``set_bounds`` brackets the exact score of a query against many sets of a
repository at once, from one product over the sets' gathered rows; its
upper bound also weighs a vertex cover of each set's threshold graph.
``exact_topk`` verifies sets in descending upper bound until no unverified
set can reach the k-th weight: the exact scan that ground truth is made of.

``brute_force_unionability`` recomputes the same objective by exhaustive
enumeration over injective partial mappings (memoized over a bitmask of
the smaller side) and is deliberately independent of the assignment-solver
path.

An exact score is a ``MatchingResult``: the cardinality and the weight
only, since no caller reads which columns were paired.  ``check_tau`` is
the one rule for a threshold, applied wherever one is taken.
"""

from __future__ import annotations

import heapq
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, UsageError
from .pruning import BOUND_SLACK

BRUTE_FORCE_MAX_SIDE = 8


class MatchingResult(NamedTuple):
    """An exact score: how many pairs the matching takes and what they weigh."""

    cardinality: int
    weight: float


def check_tau(tau) -> None:
    """A threshold must be a real number in (0, 1] and not a bool; anything
    else, NaN included, is a usage error."""
    if isinstance(tau, bool) or not isinstance(tau, numbers.Real):
        raise UsageError(f"tau must be a real number, got {tau!r}")
    if not 0 < tau <= 1:
        raise UsageError(f"tau must be in (0, 1], got {tau}")


def _sim_matrix(q_mat: np.ndarray, v_mat: np.ndarray) -> np.ndarray:
    """The float64 product; a float64 argument is used as it is."""
    return np.asarray(q_mat, dtype=np.float64) @ np.asarray(v_mat, dtype=np.float64).T


def assignment_shift(n_rows, n_cols, top):
    """W for a table of ``n_rows x n_cols`` whose valid entries are positive
    and at most ``top``: a matching weighs at most ``min(n_rows, n_cols) *
    top``, so W exceeds it and one more matched pair outweighs any change
    of weight.  Works elementwise on arrays, with the same rounding."""
    return 1.0 + np.minimum(n_rows, n_cols) * top


def solve_shifted_assignment(sims: np.ndarray, valid: np.ndarray) -> MatchingResult:
    """Maximum-cardinality-then-maximum-weight matching over ``valid`` cells.

    ``sims`` is the full similarity matrix; ``valid`` marks threshold edges,
    whose entries are positive.  Invalid cells enter the assignment problem
    with profit exactly 0, valid cells with ``sims + W``
    (``assignment_shift``); selecting an invalid cell is therefore never
    worth anything and the optimum over full assignments coincides with the
    optimum over partial matchings.
    """
    if not valid.any():
        return MatchingResult(0, 0.0)
    shift = assignment_shift(*sims.shape, sims[valid].max())
    return solve_profit(np.where(valid, sims + shift, 0.0), sims, valid)


def solve_profit(profit: np.ndarray, sims: np.ndarray, valid: np.ndarray, column_of=None) -> MatchingResult:
    """``solve_shifted_assignment`` once its ``profit`` matrix is built;
    ``column_of`` maps each profit column to its column of ``sims`` and
    ``valid`` (by default the same one), which decide whether each of the
    solver's pairs counts and what it weighs."""
    # imported here: scipy.optimize is most of the package's import time,
    # and build, inspect and synth never solve an assignment
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(profit, maximize=True)
    if column_of is not None:
        cols = column_of[cols]
    keep = valid[rows, cols]
    rows, cols = rows[keep], cols[keep]
    weight = float(sum(sims[rows, cols].tolist()))  # added left to right in row order
    return MatchingResult(len(rows), weight)


def unionability(q_mat: np.ndarray, v_mat: np.ndarray, tau: float) -> MatchingResult:
    """Exact thresholded matching score between two column-vector blocks.

    Returns the cardinality of a maximum matching and the largest weight
    among all maximum-cardinality matchings.  Symmetric in its two
    arguments.
    """
    check_tau(tau)
    sims = _sim_matrix(q_mat, v_mat)
    return solve_shifted_assignment(sims, sims >= tau)


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``range(s, s + n)`` over ``zip(starts, lengths)``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - (ends - lengths), lengths)


def matching_floors(row_min: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per table, a column of ``row_min`` (each row's smallest valid entry,
    infinite where it has none): the sum of its ``counts + 1`` smallest row
    minima, which any matching of more than ``counts`` rows weighs at
    least."""
    return np.sort(row_min, axis=0).cumsum(axis=0)[counts, np.arange(row_min.shape[1])]


@dataclass(frozen=True)
class RowBest:
    """``row_best``'s matching, per table of its layout (per row and table
    for the two matrices)."""

    row_max: np.ndarray  # n_rows x n_tables, each row's largest valid entry, 0 where it has none
    choice: np.ndarray  # n_rows x n_tables, the column a row keeps within its table, -1 if none
    weight: np.ndarray  # the kept entries summed in row order
    count: np.ndarray  # the rows kept
    settled: np.ndarray  # the matching is the exact optimum (see ``row_best``)
    lb: np.ndarray  # lower bound on the exact score
    copies: np.ndarray  # per column, the most a matching can use it: min(capacity, rows reaching it)
    cover: np.ndarray | None  # a vertex cover's weight, an upper bound on the exact score, if asked for


def row_best(sims: np.ndarray, valid: np.ndarray, capacities, starts, cover: bool = False) -> RowBest:
    """The row-best matching of tables laid side by side in ``sims``, table
    t from column ``starts[t]``, each column usable ``capacities`` times.

    In each table every row proposes its first-best valid column, and each
    column keeps its ``capacities`` best proposers, ties to the lower row.
    One pass lists the valid entries; everything after it works on those
    entries, with no loop per row or per table.  The result is feasible, so
    its weight W of cardinality c bounds the exact score from below once c
    is ``most``, the most rows a matching can take: min(rows with a valid
    entry, sum of min(capacity, reach)).  Below ``most`` the exact score's
    larger matching weighs at least ``matching_floors``, and the bound is
    the smaller of the two.

    A table is ``settled`` when every column that turned a proposal away
    had proposals only from rows with no other valid entry in the table.
    Such a row can use no other column, so no matching takes more rows than
    the row-best one, and none weighs more: every other row has its
    maximum, and each full column its best proposers.  The row-best
    matching is then the exact optimum and its lower bound is W.  W is
    summed in row order, as the assignment solver sums its weight, so the
    two are equal wherever the solver's shifted profits (``sims + W``)
    still tell the entries apart.

    With ``cover``, each table also gets the weight of a vertex cover of
    its valid entries, a row weighing its maximum and a column its maximum
    times its ``copies``.  A row pays when some column it reaches is
    reached by fewer rows than the row reaches columns, and each column
    reached by a row that does not pay pays too.  Every valid entry then
    has a paying end that weighs at least as much, so by LP duality
    (König–Egerváry) no matching weighs more than the cover.
    """
    n_rows, n_cols = sims.shape
    starts = np.asarray(starts, dtype=np.int64)
    n_tables = len(starts)
    owner = np.repeat(np.arange(n_tables), np.diff(starts, append=n_cols))
    # The valid entries in row-major order: those of one (row, table) pair
    # are consecutive and in column order.
    flat = np.flatnonzero(valid)
    vals = sims.ravel()[flat]
    rows, cols = np.divmod(flat, n_cols)
    tables = owner[cols]
    new_pair = np.ones(len(flat), dtype=bool)
    new_pair[1:] = (rows[1:] != rows[:-1]) | (tables[1:] != tables[:-1])
    pair_of = np.cumsum(new_pair) - 1
    head = np.flatnonzero(new_pair)
    pair_max = np.maximum.reduceat(vals, head)
    pair_row, pair_table = rows[head], tables[head]
    row_max = np.zeros((n_rows, n_tables))
    row_max[pair_row, pair_table] = pair_max

    # each pair proposes its first column at the maximum
    at_max = np.flatnonzero(vals == pair_max[pair_of])
    proposed = cols[at_max[np.diff(pair_of[at_max], prepend=-1) > 0]]
    # each proposal's rank among its column's proposals, best first and
    # ties to the lower row.  numpy's stable sorts take several times as
    # long as its default one, so the default one sorts keys with no ties:
    # value rank (equal values share one), then pair order, gives each
    # pair its place by value; column, then that place, gives the order.
    # The keys stay below n_pairs**2 and n_cols * n_pairs, far from int64's
    # limit for any product that fits in memory.
    n_pairs = len(head)
    by_value = np.argsort(-pair_max)
    value_rank = np.empty(n_pairs, dtype=np.int64)
    value_rank[by_value] = np.cumsum(np.diff(pair_max[by_value], prepend=np.inf) != 0)
    place = np.empty(n_pairs, dtype=np.int64)
    place[np.argsort(value_rank * n_pairs + np.arange(n_pairs))] = np.arange(n_pairs)
    order = np.argsort(proposed * n_pairs + place)
    by_col = proposed[order]
    pos = np.arange(len(order))
    run = np.ones(len(order), dtype=bool)
    run[1:] = by_col[1:] != by_col[:-1]
    rank = pos - np.maximum.accumulate(np.where(run, pos, 0))
    caps = np.broadcast_to(capacities, n_cols)
    kept = np.empty(len(order), dtype=bool)
    kept[order] = rank < caps[by_col]

    kept_row, kept_table = pair_row[kept], pair_table[kept]
    choice = np.full((n_rows, n_tables), -1, dtype=np.int64)
    choice[kept_row, kept_table] = proposed[kept] - starts[kept_table]
    taken = np.zeros((n_rows, n_tables))
    taken[kept_row, kept_table] = pair_max[kept]
    # cumsum adds down each column in row order; a column sum may not
    weight = np.cumsum(taken, axis=0)[-1] if n_rows else np.zeros(n_tables)
    count = np.bincount(kept_table, minlength=n_tables)
    turned_away = np.zeros(n_cols, dtype=bool)
    turned_away[proposed[~kept]] = True
    pair_size = np.diff(head, append=len(flat))  # columns each pair's row reaches in its table
    settled = np.bincount(pair_table[(pair_size > 1) & turned_away[proposed]], minlength=n_tables) == 0

    reach = np.bincount(cols, minlength=n_cols)
    copies = np.minimum(caps, reach)
    most = np.minimum(np.bincount(pair_table, minlength=n_tables), np.add.reduceat(copies, starts))
    lb = weight.copy()
    short = np.flatnonzero((count < most) & ~settled)
    if len(short):
        row_min = np.full((n_rows, n_tables), np.inf)
        row_min[pair_row, pair_table] = np.minimum.reduceat(vals, head)
        lb[short] = np.minimum(weight[short], matching_floors(row_min[:, short], count[short]))
    cover_weight = None
    if cover:
        pays = np.minimum.reduceat(reach[cols], head) < pair_size
        col_pays = np.zeros(n_cols, dtype=bool)
        col_pays[cols[np.repeat(~pays, pair_size)]] = True
        col_max = np.zeros(n_cols)
        np.maximum.at(col_max, cols, vals)
        cover_weight = (np.bincount(pair_table[pays], pair_max[pays], n_tables)
                        + np.bincount(owner[col_pays], (copies * col_max)[col_pays], n_tables))
    return RowBest(row_max, choice, weight, count, settled, lb, copies, cover_weight)


def _bounded_product(q_mat: np.ndarray, repo, sids: np.ndarray, tau: float):
    """The query's product with the listed sets' gathered rows, 0 below tau;
    its valid mask; and each set's first column in it.  A query of another
    dimension than the repository's is a data error."""
    check_tau(tau)
    q_mat = np.asarray(q_mat)
    if q_mat.shape[-1] != repo.dimension:
        raise DataError(f"dimension mismatch: {q_mat.shape[-1]} vs {repo.dimension}")
    start = repo.offsets[sids]
    sizes = repo.offsets[sids + 1] - start
    seg = np.cumsum(sizes) - sizes
    sims = _sim_matrix(q_mat, repo.matrix[ranges(start, sizes)])
    valid = sims >= tau
    sims[~valid] = 0.0
    return sims, valid, seg


def _upper_bounds(sims: np.ndarray, seg: np.ndarray, row_max: np.ndarray) -> np.ndarray:
    """Each set's smaller of the row-max and column-max sums."""
    return np.minimum(row_max.sum(axis=0), np.add.reduceat(sims.max(axis=0), seg))


def set_bounds(q_mat: np.ndarray, repo, set_ids, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on ``unionability`` of the query against each
    listed set of ``repo``, from one product over the sets' gathered rows.

    The upper bound is the smallest of the row-max and column-max sums over
    the entries that clear tau and the weight of ``row_best``'s vertex
    cover.  The lower bound is ``row_best``'s with every set column usable
    once.
    """
    sids = np.asarray(set_ids, dtype=np.int64)
    if len(sids) == 0:
        return np.zeros(0), np.zeros(0)
    if sids.min() < 0 or sids.max() >= repo.n_sets:
        raise DataError(f"unknown set_id in {sids.tolist()} (repository has {repo.n_sets} sets)")
    sims, valid, seg = _bounded_product(q_mat, repo, sids, tau)
    best = row_best(sims, valid, 1, seg, cover=True)
    ub = np.minimum(_upper_bounds(sims, seg, best.row_max), best.cover)
    return np.minimum(best.lb, ub), ub


def exact_topk(q_mat: np.ndarray, repo, tau: float, k: int) -> list[tuple[int, float, int]]:
    """The ``min(k, n_sets)`` best sets of ``repo`` by exact score, as
    (set id, weight, cardinality) sorted by (weight desc, cardinality desc,
    set id asc).  Sets are verified with ``unionability`` in descending
    upper bound until none left can reach the k-th weight found (less
    ``BOUND_SLACK``), so the result is that of scoring every set."""
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    sims, _, seg = _bounded_product(q_mat, repo, np.arange(repo.n_sets), tau)
    ub = _upper_bounds(sims, seg, np.maximum.reduceat(sims, seg, axis=1))
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
    with columns taken on the smaller side; the result is the memoized
    maximum itself, with no matching rebuilt from it.
    """
    check_tau(tau)
    sims = _sim_matrix(q_mat, v_mat)
    if sims.shape[1] > sims.shape[0]:
        sims = sims.T
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

    return MatchingResult(*best(0, 0))
