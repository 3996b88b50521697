"""Capacity-limited many-to-one matching of query vectors to a set's
partition groups, plus the cheap lower/upper estimates that sandwich it.

Each query vector may take at most one group; each group (G, S) may be
taken at most |S| times.  A query vector's similarity to a group is the
maximum inner product over the group's centroids, and only entries at or
above the threshold participate.

``partition_sims`` builds the tables of all of a search's candidates in
one batched pass over the ``PartitionIndex`` arrays as build writes them
and the bundle stores them; ``PartitionIndex.validate`` has checked them
on either path.  Codebook centroids take their similarities from one
query-by-codebook product, and only the candidates' cascade rows, widened
to float64, get a product of their own.  Every group takes its first
centroid's column, and groups of several centroids fold in the rest with
one ``np.maximum`` per position in the group.  ``matching.row_best`` then
runs once over all tables: every query vector proposes its best group,
and each group keeps its best ``capacity`` proposers.

The lower bound is that row-best matching's weight, capped by
``matching.matching_floors`` where it takes fewer query vectors than a
matching can; the upper bound sums the largest row maxima, as many as
the smaller of the query's and the set's vector counts.  A ``settled``
table, where every query vector a group turned away reaches no other
group, has the row-best matching as its exact optimum.  Every other
table's exact score is the shifted-weight assignment reduction from
``matching`` with each group expanded into identical columns, as many as
it can be used: its capacity, or the number of query vectors that reach
it if fewer.  The same pass builds those assignment problems for all
such tables with one gather, so ``mwmto_exact`` only solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvariantError
from .matching import assignment_shift, check_tau, ranges, row_best, solve_profit
from .partitions import PartitionIndex
from .quantizer import Codebook


@dataclass(frozen=True)
class BoundPair:
    lb: float
    ub: float

    def __post_init__(self):
        if self.lb > self.ub + 1e-9:
            raise InvariantError(f"bound pair out of order: lb={self.lb} > ub={self.ub}")


class PartitionSimTable:
    """Thresholded similarities of every query vector to every group of one
    set: ``sims`` is ``n_query x n_groups`` float64 holding 0 below tau,
    ``valid`` marks the entries that clear tau, and ``capacities`` holds
    each group's vector count.  ``choice`` (each query vector's group, -1
    for none), ``weight``, ``count`` and ``settled`` are the table's
    ``matching.row_best`` matching; ``lb`` and ``ub`` are the bounds
    ``bounds_for_mwmto`` returns.  A table that is not ``settled`` and can
    match anything carries its assignment problem: ``profit`` over its
    groups expanded into identical columns, ``groups`` naming the group of
    each column; every other table has None in both.

    The constructor takes per query vector the (group_id, similarity)
    entries clearing tau (> 0); ``partition_sims`` builds the dense form
    directly.
    """

    def __init__(self, rows: list[list[tuple[int, float]]], capacities):
        capacities = np.asarray(capacities, dtype=np.int64)
        sims = np.zeros((len(rows), len(capacities)))
        valid = np.zeros(sims.shape, dtype=bool)
        for qi, row in enumerate(rows):
            for gid, s in row:
                sims[qi, gid] = s
                valid[qi, gid] = True
        (table,) = _side_by_side(sims, valid, capacities, [0])
        vars(self).update(vars(table))


def _side_by_side(sims, valid, capacities, starts) -> list[PartitionSimTable]:
    """The tables laid side by side in ``sims``, table t from column
    ``starts[t]``, as views that carry their row-best matching, bounds and
    assignment problem."""
    starts = np.asarray(starts, dtype=np.int64)
    best = row_best(sims, valid, capacities, starts)
    # the largest min(query vectors, set vectors) row maxima, summed in
    # descending order
    pooled = np.zeros((len(sims) + 1, len(starts)))
    np.cumsum(np.sort(best.row_max, axis=0)[::-1], axis=0, out=pooled[1:])
    take = np.minimum(len(sims), np.add.reduceat(capacities, starts))
    ub = pooled[take, np.arange(len(starts))]
    ends = np.append(starts[1:], sims.shape[1])
    problems = _assignment_problems(sims, valid, starts, ends, best.copies, np.flatnonzero(~best.settled))
    tables = []
    for t, (a, b, weight, count, settled, low, high) in enumerate(zip(
        starts.tolist(), ends.tolist(), best.weight.tolist(), best.count.tolist(),
        best.settled.tolist(), best.lb.tolist(), ub.tolist(),
    )):
        table = PartitionSimTable.__new__(PartitionSimTable)
        table.sims, table.valid, table.capacities = sims[:, a:b], valid[:, a:b], capacities[a:b]
        table.choice = best.choice[:, t]
        table.weight, table.count, table.settled, table.lb, table.ub = weight, count, settled, low, high
        table.profit, table.groups = problems.get(t, (None, None))
        tables.append(table)
    return tables


def _assignment_problems(sims, valid, starts, ends, copies, todo) -> dict[int, tuple]:
    """Per listed table that can match anything, its ``(profit, groups)``
    from one gather over all of them: ``profit`` is the shifted profit
    matrix of the table with each group expanded into ``copies`` identical
    columns, and ``groups`` names the group of each column."""
    if len(todo) == 0:
        return {}
    cols = ranges(starts[todo], ends[todo] - starts[todo])
    used = np.flatnonzero(copies[cols])
    n_used = np.bincount(np.repeat(np.arange(len(todo)), ends[todo] - starts[todo])[used],
                         minlength=len(todo))
    todo, n_used = todo[n_used > 0], n_used[n_used > 0]
    cols = cols[used]
    head = np.cumsum(n_used) - n_used
    width = np.add.reduceat(copies[cols], head)
    # a used column has a valid entry, and those are positive while the
    # rest are 0, so its maximum is its largest valid entry
    sub = sims[:, cols]
    shift = assignment_shift(len(sims), width, np.maximum.reduceat(sub.max(axis=0), head))
    # (s + W) * 1 is s + W, and (s + W) * 0 is +0.0: the profit of
    # ``solve_shifted_assignment``
    profit = (sub + np.repeat(shift, n_used)) * valid[:, cols]
    expand = np.repeat(np.arange(len(cols)), copies[cols])
    profit, groups = profit[:, expand], (cols - np.repeat(starts[todo], n_used))[expand]
    first = np.cumsum(width) - width
    return {
        t: (profit[:, a:b], groups[a:b])
        for t, a, b in zip(todo.tolist(), first.tolist(), (first + width).tolist())
    }


class MwmtoResult(NamedTuple):
    """An exact score.  Every settled table's call makes one, so it is a
    named tuple, the cheapest record to make.  The matching behind it is
    the table's ``choice`` where ``row_best``; otherwise no one keeps it,
    and tests rebuild it by solving ``profit`` again."""

    score: float
    cardinality: int
    row_best: bool = False  # taken from the row-best matching, with no solver call


def partition_sims(
    q64: np.ndarray, pindex: PartitionIndex, codebook: Codebook, set_ids, tau: float
) -> dict[int, PartitionSimTable]:
    """Thresholded max-over-group-centroid similarities of every query
    vector to every group of each listed set of ``pindex``, with each
    table's row-best matching, bounds and, where it is not ``settled``,
    assignment problem, all from one batched pass."""
    check_tau(tau)
    sids = np.asarray(set_ids, dtype=np.int64)
    if len(sids) == 0:
        return {}
    q64 = np.asarray(q64, dtype=np.float64)
    group0 = pindex.group_ptr[sids]
    n_groups = pindex.group_ptr[sids + 1] - group0
    groups = ranges(group0, n_groups)
    # the int32 ids are gathered, then widened to the index type numpy
    # would otherwise convert them to on every use below
    start = pindex.cid_ptr[groups].astype(np.intp)
    size = pindex.cid_ptr[groups + 1] - start
    n_c = codebook.n_c
    product = q64 @ codebook.centroids64().T
    casc0 = pindex.cascade_ptr[sids]
    n_casc = pindex.cascade_ptr[sids + 1] - casc0
    lift = None
    if n_casc.any():
        # cascade id n_c + j of a listed set is product column n_c + j plus
        # the cascade rows of the sets listed before it
        rows = pindex.cascade[ranges(casc0, n_casc)].astype(np.float64)
        product = np.concatenate((product, q64 @ rows.T), axis=1)
        lift = np.repeat(np.cumsum(n_casc) - n_casc, n_groups)

    def column(g, j):
        ids = pindex.centroid_ids[start[g] + j].astype(np.intp)
        return ids if lift is None else np.where(ids >= n_c, ids + lift[g], ids)

    # take, unlike [:, ids], returns the row-major layout row_best reads
    sims = product.take(column(slice(None), 0), axis=1)
    for j in range(1, int(size.max(initial=1))):
        g = np.flatnonzero(size > j)
        sims[:, g] = np.maximum(sims[:, g], product[:, column(g, j)])
    valid = sims >= tau
    sims *= valid  # 0 below tau (-0.0 where the product is negative)
    capacities = pindex.member_ptr[groups + 1] - pindex.member_ptr[groups]
    tables = _side_by_side(sims, valid, capacities, np.cumsum(n_groups) - n_groups)
    return dict(zip(sids.tolist(), tables))


def mwmto_exact(table: PartitionSimTable) -> MwmtoResult:
    """The score of the maximum-cardinality-then-maximum-weight
    capacity-respecting assignment.

    A ``settled`` table returns its row-best matching's: no assignment
    beats it in cardinality or weight (``matching.row_best``).
    Otherwise the table's assignment problem, built with all others by
    ``partition_sims``, is solved: each group as ``min(capacity, reach)``
    identical columns, ``reach`` being the number of query vectors with a
    valid entry in it.  No assignment can use a group more often, so the
    optimum is that of the full expansion; groups that no query vector
    reaches drop out.
    """
    if table.settled:
        return MwmtoResult(table.weight, table.count, True)
    if table.profit is None:
        return MwmtoResult(0.0, 0)
    res = solve_profit(table.profit, table.sims, table.valid, table.groups)
    return MwmtoResult(res.weight, res.cardinality)


def bounds_for_mwmto(table: PartitionSimTable) -> BoundPair:
    """Sandwiching estimates around the exact capacitated score: the
    table's row-best lower bound and the sum of its largest row maxima, as
    many as the smaller of the query's vector count and the set's (all of
    its vectors, not the threshold-reachable capacity).  Both come from ``partition_sims``'s
    one pass over all tables (or the constructor's over one)."""
    return BoundPair(table.lb, table.ub)
