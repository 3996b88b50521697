"""Per-set partitioning of vectors into centroid groups.

Each repository set starts as singleton groups, one per owning centroid.
Sets whose vectors spread over too many centroids (dispersion at or above
the upper threshold) get their groups merged pairwise by maximum
centroid-to-centroid similarity until the group count drops below the
threshold.  Sets concentrated in too few centroids (dispersion at or below
the lower threshold) are re-clustered locally; the local centroids become
set-private "cascade" centroids that never enter the global indexes.

Group centroid ids below ``n_c`` reference the global codebook; ids at or
above ``n_c`` index the owning set's cascade centroid matrix at
``id - n_c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError
from .quantizer import Codebook, ClusterAssignment, train_kmeans
from .repository import VectorSetRepository


@dataclass
class PartitionGroup:
    group_id: int
    centroid_ids: tuple[int, ...]  # sorted, non-empty
    member_indices: np.ndarray  # indices within the owning set, sorted

    @property
    def capacity(self) -> int:
        return len(self.member_indices)


@dataclass
class PartitionSet:
    set_id: int
    groups: list[PartitionGroup]
    cascade_centroids: np.ndarray  # (r, d) float32; empty for most sets

    def validate(self, set_size: int) -> None:
        seen = np.concatenate([g.member_indices for g in self.groups]) if self.groups else np.array([], dtype=np.int64)
        if len(seen) != set_size or len(np.unique(seen)) != set_size:
            raise DataError(f"groups of set {self.set_id} do not partition its vectors")
        for g in self.groups:
            if g.capacity < 1 or not g.centroid_ids:
                raise DataError(f"empty group in set {self.set_id}")


@dataclass(frozen=True)
class PartitionIndex:
    """Every set's partition groups in flat int32 arrays, in set order and,
    within a set, in group order.  Set ``s`` owns groups
    ``group_ptr[s]:group_ptr[s + 1]`` and cascade rows
    ``cascade_ptr[s]:cascade_ptr[s + 1]``; group ``g`` owns centroid ids
    ``cid_ptr[g]:cid_ptr[g + 1]`` and member indices
    ``member_ptr[g]:member_ptr[g + 1]``, so its capacity is the length of
    that range.  A centroid id ``n_c + j`` names row ``j`` of its own set's
    cascade rows."""

    group_ptr: np.ndarray  # (n_sets + 1,)
    cascade_ptr: np.ndarray  # (n_sets + 1,)
    cid_ptr: np.ndarray  # (n_groups + 1,)
    member_ptr: np.ndarray  # (n_groups + 1,)
    centroid_ids: np.ndarray  # (cid_ptr[-1],)
    members: np.ndarray  # (member_ptr[-1],) indices within the owning set
    cascade: np.ndarray  # (cascade_ptr[-1], d) float32
    rho_low: float
    rho_high: float

    @classmethod
    def pack(cls, psets: list[PartitionSet], rho_low: float, rho_high: float) -> "PartitionIndex":
        """Flatten per-set partitions, given in set order."""
        groups = [g for pset in psets for g in pset.groups]
        return cls(
            group_ptr=_offsets([len(pset.groups) for pset in psets]),
            cascade_ptr=_offsets([len(pset.cascade_centroids) for pset in psets]),
            cid_ptr=_offsets([len(g.centroid_ids) for g in groups]),
            member_ptr=_offsets([g.capacity for g in groups]),
            centroid_ids=np.array([c for g in groups for c in g.centroid_ids], dtype=np.int32),
            members=np.concatenate([g.member_indices for g in groups], dtype=np.int32),
            cascade=np.concatenate([pset.cascade_centroids for pset in psets], dtype=np.float32),
            rho_low=rho_low,
            rho_high=rho_high,
        )

    @property
    def n_sets(self) -> int:
        return len(self.group_ptr) - 1

    def of(self, set_id: int) -> PartitionSet:
        """One set's groups and cascade rows as objects."""
        if not 0 <= set_id < self.n_sets:
            raise DataError(f"unknown set_id {set_id}")
        first = self.group_ptr[set_id]
        groups = [
            PartitionGroup(
                gid,
                tuple(self.centroid_ids[self.cid_ptr[g] : self.cid_ptr[g + 1]].tolist()),
                self.members[self.member_ptr[g] : self.member_ptr[g + 1]],
            )
            for gid, g in enumerate(range(first, self.group_ptr[set_id + 1]))
        ]
        cascade = self.cascade[self.cascade_ptr[set_id] : self.cascade_ptr[set_id + 1]]
        return PartitionSet(set_id, groups, cascade)


def _offsets(counts: list[int]) -> np.ndarray:
    return np.r_[0, np.cumsum(counts, dtype=np.int64)].astype(np.int32)


def dispersion(set_owners: np.ndarray) -> float:
    """Distinct owning centroids over set size; in (0, 1] for non-empty sets."""
    if len(set_owners) == 0:
        raise UsageError("dispersion of an empty set is undefined")
    return len(np.unique(set_owners)) / len(set_owners)


def resolve_centroid(cid: int, cb: Codebook, cascade: np.ndarray | None) -> np.ndarray:
    if cid < cb.n_c:
        return cb.centroids64()[cid]
    if cascade is None or cid - cb.n_c >= len(cascade):
        raise DataError(f"centroid id {cid} has no backing matrix")
    return cascade[cid - cb.n_c].astype(np.float64)


def group_similarity(
    a: PartitionGroup,
    b: PartitionGroup,
    cb: Codebook,
    cascade: np.ndarray | None = None,
) -> float:
    """Maximum inner product over cross pairs of the two groups' centroids."""
    mat_a = np.stack([resolve_centroid(c, cb, cascade) for c in a.centroid_ids])
    mat_b = np.stack([resolve_centroid(c, cb, cascade) for c in b.centroid_ids])
    return float((mat_a @ mat_b.T).max())


def default_cascade_k(rho_low: float, rho_high: float):
    """Local cluster count targeting the middle of the dispersion band."""
    target = (rho_low + rho_high) / 2.0

    def policy(set_size: int) -> int:
        return min(set_size, max(2, math.ceil(target * set_size)))

    return policy


def _singleton_groups(owners: np.ndarray) -> list[PartitionGroup]:
    groups = []
    for gid, cid in enumerate(np.unique(owners)):
        members = np.flatnonzero(owners == cid).astype(np.int32)
        groups.append(PartitionGroup(gid, (int(cid),), members))
    return groups


def _merge_high_dispersion(groups: list[PartitionGroup], set_size: int, rho_high: float, cb: Codebook) -> list[PartitionGroup]:
    # Pairwise gsim cache keyed by group_id; ids stay stable across merges
    # (the merged group keeps the smaller id) so ties resolve deterministically
    # by the lowest (id, id) pair.
    alive = {g.group_id: g for g in groups}
    gsim: dict[tuple[int, int], float] = {}
    ids = sorted(alive)
    for i, p in enumerate(ids):
        for q in ids[i + 1 :]:
            gsim[(p, q)] = group_similarity(alive[p], alive[q], cb)
    while len(alive) / set_size >= rho_high and len(alive) > 1:
        best_pair = None
        best_sim = -np.inf
        for pair in sorted(gsim):
            if pair[0] not in alive or pair[1] not in alive:
                continue
            s = gsim[pair]
            if s > best_sim:
                best_sim = s
                best_pair = pair
        p, q = best_pair
        merged = PartitionGroup(
            p,
            tuple(sorted(set(alive[p].centroid_ids) | set(alive[q].centroid_ids))),
            np.sort(np.concatenate([alive[p].member_indices, alive[q].member_indices])),
        )
        del alive[q]
        alive[p] = merged
        for other in alive:
            if other == p:
                continue
            key = (min(other, p), max(other, p))
            gsim[key] = group_similarity(merged, alive[other], cb)
    return [alive[i] for i in sorted(alive)]


def _cascade_split(
    vectors: np.ndarray,
    k: int,
    n_c: int,
    seed: int,
    max_iters: int,
) -> tuple[list[PartitionGroup], np.ndarray]:
    local = train_kmeans(vectors.astype(np.float64), k, max_iters=max_iters, seed=seed)
    cents = local.centroids64()
    d2 = (
        np.einsum("ij,ij->i", vectors, vectors)[:, None]
        - 2.0 * vectors @ cents.T
        + np.einsum("ij,ij->i", cents, cents)[None, :]
    )
    labels = np.argmin(d2, axis=1)
    kept: list[PartitionGroup] = []
    kept_rows = []
    for j in range(local.n_c):
        members = np.flatnonzero(labels == j).astype(np.int32)
        if len(members) == 0:
            continue  # empty local cluster: drop it, coverage is unaffected
        kept.append(PartitionGroup(len(kept), (n_c + len(kept_rows),), members))
        kept_rows.append(local.centroids[j])
    return kept, np.stack(kept_rows).astype(np.float32)


def build_partition_index(
    repo: VectorSetRepository,
    cb: Codebook,
    assignment: ClusterAssignment,
    rho_low: float = 0.2,
    rho_high: float = 0.8,
    cascade_k=None,
    seed: int = 0,
    local_kmeans_iters: int = 20,
    single_partition: bool = False,
) -> PartitionIndex:
    """Partition every repository set into centroid groups.

    With ``single_partition`` every set becomes one group holding all of its
    vectors (partitioning disabled); otherwise the three dispersion branches
    apply.  Output groups always partition the set's vectors.
    """
    if not single_partition and not 0 < rho_low < rho_high <= 1:
        raise UsageError(f"need 0 < rho_low < rho_high <= 1, got {rho_low}, {rho_high}")
    if cascade_k is None:
        cascade_k = default_cascade_k(rho_low, rho_high)
    psets = []
    for sid in range(repo.n_sets):
        owners = assignment.set_owners(sid)
        size = len(owners)
        if single_partition:
            cids = tuple(int(c) for c in np.unique(owners))
            groups = [PartitionGroup(0, cids, np.arange(size, dtype=np.int32))]
            pset = PartitionSet(sid, groups, np.empty((0, repo.dimension), dtype=np.float32))
            pset.validate(size)
            psets.append(pset)
            continue
        rho = dispersion(owners)
        cascade = np.empty((0, repo.dimension), dtype=np.float32)
        if rho <= rho_low:
            k = int(cascade_k(size))
            if k < 1 or k > size:
                raise UsageError(f"cascade_k produced invalid k={k} for set of size {size}")
            groups, cascade = _cascade_split(
                repo.vectors_of(sid), k, cb.n_c, seed=(seed * 1_000_003 + sid) & 0x7FFFFFFF,
                max_iters=local_kmeans_iters,
            )
        elif rho >= rho_high:
            groups = _merge_high_dispersion(_singleton_groups(owners), size, rho_high, cb)
            groups = [
                PartitionGroup(i, g.centroid_ids, g.member_indices) for i, g in enumerate(groups)
            ]
        else:
            groups = _singleton_groups(owners)
        pset = PartitionSet(sid, groups, cascade)
        pset.validate(size)
        psets.append(pset)
    return PartitionIndex.pack(psets, rho_low, rho_high)
