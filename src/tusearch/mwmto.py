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
``np.maximum.reduceat`` over the group starts.

The exact score reuses the shifted-weight assignment reduction from
``matching`` with each group expanded into identical columns, as many as
it can be used: its capacity, or the number of query vectors that reach
it if fewer.  The lower bound is a greedy capacity-respecting assignment
(query vectors in input order, each taking its best group with remaining
capacity), capped where it matches fewer query vectors than the exact
score does; the upper bound pools every thresholded entry and sums the
largest ``min(n_query, set_size)`` of them, ignoring all pairing
constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, UsageError
from .matching import MatchingResult, matching_floors, ranges, solve_shifted_assignment
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
    each group's vector count.  ``floors`` and ``most`` are the table's
    ``matching.matching_floors``, which ``bounds_for_mwmto`` reads.

    The constructor takes per query vector the (group_id, similarity)
    entries clearing tau; ``partition_sims`` builds the dense form directly.
    """

    def __init__(self, rows: list[list[tuple[int, float]]], capacities):
        self.capacities = np.asarray(capacities, dtype=np.int64)
        self.sims = np.zeros((len(rows), len(self.capacities)))
        self.valid = np.zeros(self.sims.shape, dtype=bool)
        for qi, row in enumerate(rows):
            for gid, s in row:
                self.sims[qi, gid] = s
                self.valid[qi, gid] = True
        floors, most = matching_floors(self.sims, self.valid, self.capacities, [0])
        self.floors, self.most = floors[:, 0], int(most[0])

    @classmethod
    def dense(cls, sims, valid, capacities, floors, most: int) -> "PartitionSimTable":
        """Wrap the arrays as they are, without copying."""
        table = cls.__new__(cls)
        table.sims, table.valid, table.capacities = sims, valid, capacities
        table.floors, table.most = floors, most
        return table

    @property
    def n_query(self) -> int:
        return self.sims.shape[0]

    @property
    def set_size(self) -> int:
        return int(self.capacities.sum())


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


def partition_sims(
    q64: np.ndarray, layout: PartitionLayout, set_ids, tau: float
) -> dict[int, PartitionSimTable]:
    """Thresholded max-over-group-centroid similarities of every query
    vector to every group of each listed set, from one product over the
    sets' gathered group-centroid rows."""
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
    caps = layout.capacities[groups]
    ends = np.cumsum(n_groups).tolist()
    starts = [0] + ends[:-1]
    floors, most = matching_floors(sims, valid, caps, starts)
    return {
        sid: PartitionSimTable.dense(sims[:, a:b], valid[:, a:b], caps[a:b], floors[:, t], m)
        for t, (sid, a, b, m) in enumerate(zip(sids.tolist(), starts, ends, most.tolist()))
    }


def mwmto_exact(table: PartitionSimTable) -> MwmtoResult:
    """Maximum-cardinality-then-maximum-weight capacity-respecting assignment.

    Each group is expanded into ``min(capacity, reach)`` identical columns,
    ``reach`` being the number of query vectors with a valid entry in it,
    and the expanded problem is solved exactly.  No assignment can use a
    group more often, so the optimum is that of the full expansion; groups
    that no query vector reaches drop out.
    """
    copies = np.minimum(table.capacities, table.valid.sum(axis=0))
    col_group = np.repeat(np.arange(len(copies)), copies)
    if len(col_group) == 0:
        return MwmtoResult(0.0, 0, {})
    res: MatchingResult = solve_shifted_assignment(
        table.sims[:, col_group], table.valid[:, col_group]
    )
    assignment = {qi: int(col_group[col]) for qi, col in res.assignment}
    return MwmtoResult(res.weight, res.cardinality, assignment)


def greedy_lower_bound(table: PartitionSimTable) -> tuple[float, dict[int, int]]:
    """Greedy capacity-respecting assignment: query vectors in input order,
    each takes its highest-similarity group with remaining capacity
    (similarity ties go to the lower group id).  The valid entries are
    ordered once by (query, -similarity, group) and walked once."""
    qi, gid = np.nonzero(table.valid)
    sim = table.sims[qi, gid]
    order = np.lexsort((gid, -sim, qi))
    remaining = table.capacities.tolist()
    lb = 0.0
    taken: dict[int, int] = {}
    last = -1  # the last query that took a group
    for q, g, s in zip(qi[order].tolist(), gid[order].tolist(), sim[order].tolist()):
        if q != last and remaining[g] > 0:
            lb += s
            remaining[g] -= 1
            taken[q] = g
            last = q
    return lb, taken


def bounds_for_mwmto(table: PartitionSimTable) -> BoundPair:
    """Sandwiching estimates around the exact capacitated score.

    The lower bound is the greedy weight, capped by the table's ``floors``
    when the greedy assignment takes fewer query vectors than ``most``, as
    the exact score's assignment of the largest cardinality then does.  The
    upper bound caps the number of summed entries at
    ``min(n_query, set_size)`` where set_size counts the set's vectors, not
    the threshold-reachable capacity.
    """
    lb, taken = greedy_lower_bound(table)
    if len(taken) < table.most:
        lb = min(lb, float(table.floors[len(taken)]))
    pool = np.sort(table.sims[table.valid])[::-1]
    take = min(table.n_query, table.set_size)
    ub = float(sum(pool[:take].tolist()))
    return BoundPair(lb, ub)
