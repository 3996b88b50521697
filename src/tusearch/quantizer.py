"""K-means codebook over the aggregate vector pool, the exact batched scan
for each query column's top centroids, and the per-centroid postings the
engine is built on: for each centroid, the sets with a member vector in it
and how many.

Training is plain Lloyd iteration with seeded k-means++ initialization.
Empty clusters are re-seeded with the point currently farthest from its
assigned centroid.  Everything is deterministic given (inputs, seed); ties
in nearest-centroid assignment go to the lowest centroid id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, UsageError
from .refinement import Postings
from .repository import VectorSetRepository

# Train on a subsample when the pool is much larger than the codebook;
# assignment still covers every vector.
TRAIN_POINTS_PER_CENTROID = 256
# Rows per block of the point-to-centroid distance matrix.
NEAREST_BLOCK = 1024


@dataclass
class Codebook:
    """Centroid matrix produced by k-means.  Centroids are not re-normalized,
    so centroids of unit vectors have norm <= 1 and centroid similarities
    slightly underestimate member similarities."""

    centroids: np.ndarray  # (n_c, d) float32
    train_seed: int
    inertia_history: list[float] = field(default_factory=list)

    def __post_init__(self):
        self.centroids = np.ascontiguousarray(self.centroids, dtype=np.float32)
        if self.centroids.ndim != 2 or self.centroids.shape[0] < 1:
            raise DataError("codebook needs at least one centroid")
        if not np.isfinite(self.centroids).all():
            raise DataError("codebook contains non-finite centroids")
        self._centroids64 = self.centroids.astype(np.float64)
        self._centroids64.setflags(write=False)

    @property
    def n_c(self) -> int:
        return self.centroids.shape[0]

    @property
    def dimension(self) -> int:
        return self.centroids.shape[1]

    def centroids64(self) -> np.ndarray:
        """The centroids in float64, converted once per codebook; read-only."""
        return self._centroids64


def top_centroids(codebook: Codebook, q64: np.ndarray, phi_c: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``phi_c`` centroids by inner product for every query row.

    Returns ``(ids, sims)``, each ``(n_q, min(phi_c, n_c))``, every row in
    descending similarity.  The stable sort puts tied centroids lower id
    first, also at the cut.
    """
    if phi_c < 1:
        raise UsageError(f"phi_c must be >= 1, got {phi_c}")
    sims = np.asarray(q64, dtype=np.float64) @ codebook.centroids64().T
    ids = np.argsort(-sims, axis=1, kind="stable")[:, : min(phi_c, codebook.n_c)]
    return ids, np.take_along_axis(sims, ids, axis=1)


@dataclass
class ClusterAssignment:
    """Owner centroid of every vector, aligned with the repository's global
    row order (set offsets give the per-set slices)."""

    flat: np.ndarray  # (total_vectors,) int32
    offsets: np.ndarray  # (n_sets + 1,) int64

    def set_owners(self, set_id: int) -> np.ndarray:
        return self.flat[self.offsets[set_id] : self.offsets[set_id + 1]]


def _sq_dists(points: np.ndarray, centroids: np.ndarray, p2: np.ndarray) -> np.ndarray:
    # (n, k) squared Euclidean distances, float64 throughout, built in the
    # one buffer of the product; ``p2`` is the points' squared norms.
    d2 = points @ centroids.T
    d2 *= -2.0
    d2 += p2[:, None]
    d2 += np.einsum("ij,ij->i", centroids, centroids)[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def _nearest(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest centroid, ties to the lowest id, and its squared
    distance.  Works through ``NEAREST_BLOCK`` rows at a time so each
    distance block stays in cache; a row's distances do not depend on the
    block it falls in."""
    labels = np.empty(len(points), dtype=np.intp)
    dists = np.empty(len(points), dtype=np.float64)
    for start in range(0, len(points), NEAREST_BLOCK):
        block = np.asarray(points[start : start + NEAREST_BLOCK], dtype=np.float64)
        d2 = _sq_dists(block, centroids, np.einsum("ij,ij->i", block, block))
        rows = slice(start, start + len(block))
        labels[rows] = np.argmin(d2, axis=1)
        dists[rows] = np.take_along_axis(d2, labels[rows, None], axis=1)[:, 0]
    return labels, dists


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    p2 = np.einsum("ij,ij->i", points, points)
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = _sq_dists(points, centroids[0:1], p2)[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            # the draw of rng.choice(n, p=d2 / total), without its argument checks
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            idx = int(np.searchsorted(cdf, rng.random(), side="right"))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, _sq_dists(points, centroids[j : j + 1], p2)[:, 0])
    return centroids


def train_kmeans(points: np.ndarray, k: int, max_iters: int = 25, seed: int = 0) -> Codebook:
    """Lloyd's algorithm with k-means++ initialization.

    Stops at ``max_iters`` or when no assignment changes.  Inertia is checked
    to be non-increasing across iterations, up to the rounding of the
    distance formula.  Deterministic given (points, k, max_iters, seed).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or len(points) == 0:
        raise UsageError("k-means needs a non-empty 2-d point array")
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if k > len(points):
        raise UsageError(f"k = {k} exceeds the number of points ({len(points)})")
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(points, k, rng)
    columns = points.T.copy()
    labels = None
    history: list[float] = []
    # p2 - 2 p.c + c2 rounds each distance by a few ulps of the squared
    # norms, and clamping at 0 keeps that noise from cancelling in the sum.
    noise = 8.0 * float(np.spacing(np.vdot(points, points)))
    for _ in range(max_iters):
        new_labels, nearest = _nearest(points, centroids)
        inertia = float(nearest.sum())
        if history and inertia > history[-1] * (1.0 + 1e-12) + noise:
            raise DataError(f"k-means inertia increased: {history[-1]} -> {inertia}")
        history.append(inertia)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        counts = np.bincount(labels, minlength=k)
        nonempty = counts > 0
        # Each cluster's coordinates summed from zero in row order, the sums
        # of a scatter-add bit for bit (a pairwise reduceat is not).
        sums = np.stack([np.bincount(labels, weights=col, minlength=k) for col in columns], axis=1)
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        for c in np.flatnonzero(~nonempty):
            far = int(np.argmax(nearest))
            centroids[c] = points[far]
            nearest[far] = -1.0  # keep later empties from reusing it
    cb = Codebook(centroids.astype(np.float32), train_seed=seed)
    cb.inertia_history = history
    return cb


def default_n_c(total_vectors: int) -> int:
    return int(np.ceil(np.sqrt(total_vectors)))


def train_codebook(repo: VectorSetRepository, n_c: int | None = None, seed: int = 0) -> Codebook:
    """Train the codebook over the whole repository pool with
    ``train_kmeans``'s default iterations, subsampling to at most
    ``TRAIN_POINTS_PER_CENTROID * n_c`` points when the pool is larger."""
    if n_c is None:
        n_c = default_n_c(repo.total_vectors)
    if n_c > repo.total_vectors:
        raise UsageError(f"n_c = {n_c} exceeds total vectors ({repo.total_vectors})")
    points = repo.matrix
    cap = TRAIN_POINTS_PER_CENTROID * n_c
    if repo.total_vectors > cap:
        rng = np.random.default_rng(seed)
        pick = np.sort(rng.choice(repo.total_vectors, size=cap, replace=False))
        points = points[pick]
    return train_kmeans(points, n_c, seed=seed)


def assign_all(repo: VectorSetRepository, cb: Codebook) -> ClusterAssignment:
    """Map every vector to its nearest centroid by Euclidean distance,
    ties broken by the lowest centroid id."""
    if repo.dimension != cb.dimension:
        raise DataError(f"dimension mismatch: {repo.dimension} vs {cb.dimension}")
    labels, _ = _nearest(repo.matrix, cb.centroids64())
    return ClusterAssignment(labels.astype(np.int32), repo.offsets.copy())


def build_indexes(assignment: ClusterAssignment, n_c: int) -> Postings:
    """Per-centroid postings of an assignment: the distinct sets with a
    member vector in each centroid, id-sorted, and their member counts.

    One sort of ``owner * n_sets + set_id`` keys orders the (centroid, set)
    pairs; centroids without vectors own no slots.
    """
    n_sets = len(assignment.offsets) - 1
    set_ids = np.repeat(np.arange(n_sets, dtype=np.int64), np.diff(assignment.offsets))
    keys, counts = np.unique(assignment.flat.astype(np.int64) * n_sets + set_ids, return_counts=True)
    ptr = np.zeros(n_c + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n_sets, minlength=n_c), out=ptr[1:])
    return Postings(ptr, (keys % n_sets).astype(np.int32), counts.astype(np.int32))
