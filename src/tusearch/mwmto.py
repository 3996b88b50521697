"""Capacity-limited many-to-one matching of query vectors to a set's
partition groups, plus the cheap lower/upper estimates that sandwich it.

Each query vector may take at most one group; each group (G, S) may be
taken at most |S| times.  A query vector's similarity to a group is the
maximum inner product over the group's centroids, and only entries at or
above the threshold participate.

``PartitionLayout`` reads the flat partition index once into one float64
matrix with the codebook rows followed by every set's cascade rows, and
per set the span of its group-centroid row ids, its group starts and its
group capacities.  ``partition_sims`` then builds the tables of all of a
search's candidates from one product over their gathered rows and one
``np.maximum.reduceat`` over the group starts, and runs
``matching.row_best`` once over all of them: every query vector proposes
its best group, and each group keeps its first ``capacity`` proposers.

The lower bound is that row-best matching's weight, capped by
``matching.matching_floors`` where it takes fewer query vectors than a
matching can; the upper bound sums the largest ``min(n_query,
set_size)`` row maxima.  A table whose groups turned no proposal away
has the row-best matching as its exact optimum.  Any other table's exact
score reuses the shifted-weight assignment reduction from ``matching``
with each group expanded into identical columns, as many as it can be
used: its capacity, or the number of query vectors that reach it if
fewer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, UsageError
from .matching import MatchingResult, ranges, row_best, solve_shifted_assignment
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
    for none), ``weight``, ``count`` and ``fit`` are the table's
    ``matching.row_best`` matching; ``lb`` and ``ub`` are the bounds
    ``bounds_for_mwmto`` returns.

    The constructor takes per query vector the (group_id, similarity)
    entries clearing tau; ``partition_sims`` builds the dense form directly.
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

    @property
    def n_query(self) -> int:
        return self.sims.shape[0]

    @property
    def set_size(self) -> int:
        return int(self.capacities.sum())


def _side_by_side(sims, valid, capacities, starts) -> list[PartitionSimTable]:
    """The tables laid side by side in ``sims``, table t from column
    ``starts[t]``, as views that carry their row-best matching and bounds."""
    starts = np.asarray(starts, dtype=np.int64)
    best = row_best(sims, valid, capacities, starts)
    # the largest min(n_query, set_size) row maxima, summed in descending order
    pooled = np.zeros((len(sims) + 1, len(starts)))
    np.cumsum(np.sort(best.row_max, axis=0)[::-1], axis=0, out=pooled[1:])
    take = np.minimum(len(sims), np.add.reduceat(capacities, starts))
    ub = pooled[take, np.arange(len(starts))]
    ends = np.append(starts[1:], sims.shape[1])
    tables = []
    for t, (a, b, weight, count, fit, low, high) in enumerate(zip(
        starts.tolist(), ends.tolist(), best.weight.tolist(), best.count.tolist(),
        best.fit.tolist(), best.lb.tolist(), ub.tolist(),
    )):
        table = PartitionSimTable.__new__(PartitionSimTable)
        table.sims, table.valid, table.capacities = sims[:, a:b], valid[:, a:b], capacities[a:b]
        table.choice = best.choice[:, t]
        table.weight, table.count, table.fit, table.lb, table.ub = weight, count, fit, low, high
        tables.append(table)
    return tables


@dataclass(frozen=True)
class PartitionLayout:
    """Every set's partition groups, flattened for batched stage 2.

    ``matrix`` holds the codebook rows, then each set's cascade rows in set
    order.  ``row_ids`` lists, set after set and group after group, the
    matrix row of every group centroid: set ``s`` owns positions
    ``row_ptr[s]:row_ptr[s + 1]`` and groups ``group_ptr[s]:group_ptr[s + 1]``;
    group ``g`` starts at position ``group_start[g]`` and holds
    ``capacities[g]`` of the set's vectors.
    """

    matrix: np.ndarray
    row_ids: np.ndarray
    row_ptr: np.ndarray
    group_start: np.ndarray
    group_ptr: np.ndarray
    capacities: np.ndarray

    @classmethod
    def build(cls, pindex: PartitionIndex, cb: Codebook) -> "PartitionLayout":
        row_ptr = pindex.cid_ptr[pindex.group_ptr].astype(np.int64)
        # A cascade id n_c + j of set s is row n_c + j + (cascade rows of the
        # sets before s).
        shift = np.repeat(pindex.cascade_ptr[:-1].astype(np.int64), np.diff(row_ptr))
        row_ids = pindex.centroid_ids.astype(np.int64)
        return cls(
            matrix=np.concatenate([cb.centroids64(), pindex.cascade], dtype=np.float64),
            row_ids=np.where(row_ids >= cb.n_c, row_ids + shift, row_ids),
            row_ptr=row_ptr,
            group_start=pindex.cid_ptr[:-1].astype(np.int64),
            group_ptr=pindex.group_ptr.astype(np.int64),
            capacities=np.diff(pindex.member_ptr).astype(np.int64),
        )


@dataclass(frozen=True)
class MwmtoResult:
    score: float
    cardinality: int
    assignment: dict[int, int]  # query index -> group id
    row_best: bool = False  # taken from the row-best matching, with no solver call


def partition_sims(
    q64: np.ndarray, layout: PartitionLayout, set_ids, tau: float
) -> dict[int, PartitionSimTable]:
    """Thresholded max-over-group-centroid similarities of every query
    vector to every group of each listed set, from one product over the
    sets' gathered group-centroid rows, with each table's row-best matching
    and bounds from one pass over all of them."""
    if tau <= 0:
        raise UsageError(f"tau must be > 0, got {tau}")
    sids = np.asarray(set_ids, dtype=np.int64)
    if len(sids) == 0:
        return {}
    row0 = layout.row_ptr[sids]
    n_rows = layout.row_ptr[sids + 1] - row0
    group0 = layout.group_ptr[sids]
    n_groups = layout.group_ptr[sids + 1] - group0
    groups = ranges(group0, n_groups)
    # layout position minus gathered position, per set
    moved = np.repeat(row0 - (np.cumsum(n_rows) - n_rows), n_groups)
    rows = layout.matrix[layout.row_ids[ranges(row0, n_rows)]]
    sims = np.asarray(q64, dtype=np.float64) @ rows.T
    sims = np.maximum.reduceat(sims, layout.group_start[groups] - moved, axis=1)
    valid = sims >= tau
    sims[~valid] = 0.0
    tables = _side_by_side(sims, valid, layout.capacities[groups], np.cumsum(n_groups) - n_groups)
    return dict(zip(sids.tolist(), tables))


def mwmto_exact(table: PartitionSimTable) -> MwmtoResult:
    """Maximum-cardinality-then-maximum-weight capacity-respecting assignment.

    A table whose row-best matching is ``fit`` returns it: every query
    vector with a valid entry takes its best group, which no assignment
    beats in cardinality or weight.  Otherwise each group is expanded into
    ``min(capacity, reach)`` identical columns, ``reach`` being the number
    of query vectors with a valid entry in it, and the expanded problem is
    solved exactly.  No assignment can use a group more often, so the
    optimum is that of the full expansion; groups that no query vector
    reaches drop out.
    """
    if table.fit:
        rows = np.flatnonzero(table.choice >= 0)
        assignment = dict(zip(rows.tolist(), table.choice[rows].tolist()))
        return MwmtoResult(table.weight, table.count, assignment, row_best=True)
    copies = np.minimum(table.capacities, table.valid.sum(axis=0))
    col_group = np.repeat(np.arange(len(copies)), copies)
    if len(col_group) == 0:
        return MwmtoResult(0.0, 0, {})
    res: MatchingResult = solve_shifted_assignment(
        table.sims[:, col_group], table.valid[:, col_group]
    )
    assignment = {qi: int(col_group[col]) for qi, col in res.assignment}
    return MwmtoResult(res.weight, res.cardinality, assignment)


def bounds_for_mwmto(table: PartitionSimTable) -> BoundPair:
    """Sandwiching estimates around the exact capacitated score: the
    table's row-best lower bound and the sum of its largest ``min(n_query,
    set_size)`` row maxima, where set_size counts the set's vectors, not
    the threshold-reachable capacity.  Both come from ``partition_sims``'s
    one pass over all tables (or the constructor's over one)."""
    return BoundPair(table.lb, table.ub)
