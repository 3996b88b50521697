"""Per-set partitioning of vectors into centroid groups.

Each repository set starts with one group per owning centroid, in centroid
id order.  Sets whose vectors spread over too many centroids (dispersion at
or above the upper threshold) merge their groups by single linkage: two
groups' similarity is the largest inner product between their centroids,
read from one ``n_c x n_c`` Gram matrix of the codebook, so a merged group's
similarity to any other is the larger of its two parts' and nothing is
recomputed.  Each step merges the most similar pair, ties going to the
lowest (id, id) pair, and the merged group keeps the lower id; merging stops
as soon as groups / size drops below the threshold or one group is left.
Sets concentrated in too few centroids (dispersion at or below the lower
threshold) are re-clustered locally; the local centroids become set-private
"cascade" centroids that never enter the global indexes.  Sets in between
keep one group per owning centroid.  Build and bundle load both check the
thresholds with ``check_thresholds``; the index holds none.

Build labels every vector with its group and writes the flat
``PartitionIndex`` arrays from those labels with stable sorts.  Group
centroid ids below ``n_c`` reference the global codebook; ids at or above
``n_c`` index the owning set's cascade centroid matrix at ``id - n_c``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError
from .quantizer import Codebook, ClusterAssignment, _nearest, train_kmeans
from .repository import VectorSetRepository

LOCAL_KMEANS_ITERS = 20


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

    @classmethod
    def pack(cls, psets: list[PartitionSet]) -> "PartitionIndex":
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

    def validate(self, offsets: np.ndarray, n_c: int) -> None:
        """Raise ``DataError`` unless this is a partition index of the
        repository with set offsets ``offsets`` under a codebook of ``n_c``
        centroids: every pointer array starts at 0, never decreases and
        ends at the length of what it points into; the cascade rows are
        finite; every centroid id names a codebook row or one of its own
        set's cascade rows; each set's members are a permutation of its
        vector indices; and no group lacks members or centroids.  Build
        checks its output and the bundle its decoded arrays with this."""
        sizes = np.diff(offsets)
        n_groups = max(len(self.cid_ptr) - 1, 0)
        for name, items, n_ptr in (
            ("group_ptr", n_groups, len(sizes) + 1),
            ("cascade_ptr", len(self.cascade), len(sizes) + 1),
            ("cid_ptr", len(self.centroid_ids), n_groups + 1),
            ("member_ptr", len(self.members), n_groups + 1),
        ):
            ptr = getattr(self, name)
            if len(ptr) != n_ptr or ptr[0] != 0 or ptr[-1] != items or (np.diff(ptr) < 0).any():
                raise DataError(f"{name} does not span its items")
        if not np.isfinite(self.cascade).all():
            raise DataError("non-finite cascade rows")
        set_ids = np.arange(len(sizes))
        group_set = np.repeat(set_ids, np.diff(self.group_ptr))
        cid_set = np.repeat(group_set, np.diff(self.cid_ptr))
        unbacked = (self.centroid_ids < 0) | (self.centroid_ids >= n_c + np.diff(self.cascade_ptr)[cid_set])
        if unbacked.any():
            raise DataError(f"centroid id without a backing row in set {int(cid_set[np.argmax(unbacked)])}")
        member_set = np.repeat(group_set, np.diff(self.member_ptr))
        inside = (self.members >= 0) & (self.members < sizes[member_set])
        hits = np.bincount(offsets[member_set[inside]] + self.members[inside], minlength=offsets[-1])
        bad = np.bincount(member_set[~inside], minlength=len(sizes)) > 0
        bad |= np.bincount(np.repeat(set_ids, sizes)[hits != 1], minlength=len(sizes)) > 0
        if bad.any():
            raise DataError(f"groups of set {int(np.argmax(bad))} do not partition its vectors")
        empty = (np.diff(self.member_ptr) < 1) | (np.diff(self.cid_ptr) < 1)
        if empty.any():
            raise DataError(f"empty group in set {int(group_set[np.argmax(empty)])}")


def _offsets(counts: list[int]) -> np.ndarray:
    return np.r_[0, np.cumsum(counts, dtype=np.int64)].astype(np.int32)


def dispersion(set_owners: np.ndarray) -> float:
    """Distinct owning centroids over set size; in (0, 1] for non-empty sets."""
    if len(set_owners) == 0:
        raise UsageError("dispersion of an empty set is undefined")
    return len(np.unique(set_owners)) / len(set_owners)


def check_thresholds(rho_low, rho_high) -> None:
    """Raise ``UsageError`` unless the dispersion thresholds are real
    numbers, not bools, with ``0 < rho_low < rho_high <= 1``."""
    for value in (rho_low, rho_high):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise UsageError(f"rho thresholds must be real numbers, got {value!r}")
    if not 0 < rho_low < rho_high <= 1:
        raise UsageError(f"need 0 < rho_low < rho_high <= 1, got {rho_low}, {rho_high}")


def cascade_k(size: int, rho_low: float, rho_high: float) -> int:
    """Local cluster count of a cascade set of ``size`` vectors, aiming at
    the middle of the dispersion band; in ``[1, size]``."""
    return min(size, max(2, math.ceil((rho_low + rho_high) / 2.0 * size)))


BRANCHES = ("merge", "plain", "cascade")


def branch_of(distinct: np.ndarray, sizes: np.ndarray, rho_low: float, rho_high: float) -> np.ndarray:
    """Each set's index into ``BRANCHES``, from its distinct owning
    centroids and its size by the ``dispersion`` rule: merge at or above
    ``rho_high``, cascade at or below ``rho_low``, plain in between."""
    rho = np.asarray(distinct) / np.asarray(sizes)
    return np.where(rho >= rho_high, 0, np.where(rho <= rho_low, 2, 1))


def _single_linkage(sims: np.ndarray, size: int, rho_high: float) -> np.ndarray:
    """Group label of each of a set's owning centroids after merging.

    ``sims`` is the set's slice of the centroid Gram matrix, rows in
    centroid id order, and is consumed.  It stays symmetric, so the first
    maximum in row-major order is the lowest (p, q) pair with p < q.
    """
    m = len(sims)
    np.fill_diagonal(sims, -np.inf)
    label = np.arange(m)
    groups = m
    while groups / size >= rho_high and groups > 1:
        p, q = divmod(int(np.argmax(sims)), m)
        row = np.maximum(sims[p], sims[q])
        row[[p, q]] = -np.inf
        sims[p] = sims[:, p] = row
        sims[q] = sims[:, q] = -np.inf
        label[label == q] = p
        groups -= 1
    return np.unique(label, return_inverse=True)[1]


def _cascade_split(vectors: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Local k-means of one set: each vector's group label and the kept
    centroid rows (float32), dropping empty local clusters."""
    local = train_kmeans(vectors.astype(np.float64), k, max_iters=LOCAL_KMEANS_ITERS, seed=seed)
    labels, _ = _nearest(vectors, local.centroids64())
    kept = np.flatnonzero(np.bincount(labels, minlength=local.n_c))
    return np.searchsorted(kept, labels), local.centroids[kept]


def build_partition_index(
    repo: VectorSetRepository,
    cb: Codebook,
    assignment: ClusterAssignment,
    rho_low: float = 0.2,
    rho_high: float = 0.8,
    seed: int = 0,
    single_partition: bool = False,
) -> PartitionIndex:
    """Partition every repository set into centroid groups.

    With ``single_partition`` every set becomes one group holding all of its
    vectors (partitioning disabled); otherwise the three dispersion branches
    apply.  The thresholds must pass ``check_thresholds`` either way.
    Output groups always partition the set's vectors.
    """
    check_thresholds(rho_low, rho_high)
    n_c, offsets = cb.n_c, assignment.offsets
    sizes = np.diff(offsets)
    set_ids = np.arange(repo.n_sets)
    vec_set = np.repeat(set_ids, sizes)
    # One pair per distinct (set, owning centroid), in (set, centroid id)
    # order; a pair's label is its group within the set.
    pairs, vec_pair = np.unique(vec_set * n_c + assignment.flat, return_inverse=True)
    pair_set, pair_cid = np.divmod(pairs, n_c)
    n_groups = np.bincount(pair_set, minlength=repo.n_sets)
    pair_ptr = _offsets(n_groups)
    pair_label = np.arange(len(pairs)) - pair_ptr[pair_set]
    if single_partition:
        branch = np.ones(repo.n_sets, dtype=np.int64)
        pair_label[:] = 0
        n_groups[:] = 1
    else:
        branch = branch_of(n_groups, sizes, rho_low, rho_high)
    gram = cb.centroids64() @ cb.centroids64().T
    gram = np.maximum(gram, gram.T)  # exactly symmetric, as _single_linkage needs
    for sid in np.flatnonzero(branch == 0):
        lo, hi = pair_ptr[sid], pair_ptr[sid + 1]
        labels = _single_linkage(gram[np.ix_(pair_cid[lo:hi], pair_cid[lo:hi])], int(sizes[sid]), rho_high)
        pair_label[lo:hi] = labels
        n_groups[sid] = labels.max() + 1
    vec_label = pair_label[vec_pair]
    n_cascade = np.zeros(repo.n_sets, dtype=np.int64)
    cascade = [np.empty((0, repo.dimension), dtype=np.float32)]
    for sid in np.flatnonzero(branch == 2):
        labels, cents = _cascade_split(
            repo.vectors_of(sid), cascade_k(int(sizes[sid]), rho_low, rho_high),
            seed=(seed * 1_000_003 + int(sid)) & 0x7FFFFFFF,
        )
        vec_label[offsets[sid] : offsets[sid + 1]] = labels
        n_groups[sid] = n_cascade[sid] = len(cents)
        cascade.append(cents)

    group_ptr = _offsets(n_groups)
    vec_group = group_ptr[vec_set] + vec_label
    order = np.argsort(vec_group, kind="stable")
    # A codebook group lists the centroids of its pairs; a cascade group
    # has the one id n_c + j of its own row j.
    codebook_pair = branch[pair_set] != 2
    cascade_ptr = _offsets(n_cascade)
    cascade_set = np.repeat(set_ids, n_cascade)
    cascade_row = np.arange(cascade_ptr[-1]) - cascade_ptr[cascade_set]
    cid_group = np.concatenate([
        group_ptr[pair_set[codebook_pair]] + pair_label[codebook_pair],
        group_ptr[cascade_set] + cascade_row,
    ])
    cid_order = np.argsort(cid_group, kind="stable")
    pindex = PartitionIndex(
        group_ptr=group_ptr,
        cascade_ptr=cascade_ptr,
        cid_ptr=_offsets(np.bincount(cid_group, minlength=group_ptr[-1])),
        member_ptr=_offsets(np.bincount(vec_group, minlength=group_ptr[-1])),
        centroid_ids=np.concatenate([pair_cid[codebook_pair], n_c + cascade_row])[cid_order].astype(np.int32),
        members=(order - offsets[vec_set[order]]).astype(np.int32),
        cascade=np.concatenate(cascade),
    )
    pindex.validate(offsets, n_c)
    return pindex
