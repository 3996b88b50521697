"""Codebook training, nearest-centroid assignment, postings build."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_kmeans, reference_postings
import tusearch.quantizer as quantizer
from tusearch.errors import DataError, UsageError
from tusearch.quantizer import (
    NEAREST_BLOCK,
    TRAIN_POINTS_PER_CENTROID,
    ClusterAssignment,
    Codebook,
    assign_all,
    build_indexes,
    train_codebook,
    train_kmeans,
)
from tusearch.repository import VectorSetRepository, generate_synthetic


def brute_force_nearest(points, centroids):
    """Independent per-point scan with np.linalg.norm; ties to lowest id."""
    out = []
    for p in points:
        dists = [float(np.linalg.norm(p - c)) for c in centroids]
        out.append(int(np.argmin(dists)))
    return np.array(out)


class TestCodebook:
    def test_float64_centroids_converted_once_per_codebook(self):
        a = Codebook(np.array([[1.0, 0.0], [0.0, 0.5]], dtype=np.float32), train_seed=0)
        b = Codebook(np.array([[0.0, 1.0]], dtype=np.float32), train_seed=0)
        assert a.centroids64() is a.centroids64()
        assert a.centroids64().dtype == np.float64
        assert a.centroids64().tolist() == [[1.0, 0.0], [0.0, 0.5]]
        assert b.centroids64().tolist() == [[0.0, 1.0]]
        with pytest.raises(ValueError):
            a.centroids64()[0, 0] = 2.0


class TestTrainKmeans:
    @pytest.mark.parametrize("seed, duplicated", [(0, False), (1, False), (2, True)])
    def test_equals_the_full_matrix_reference(self, seed, duplicated):
        """Blocked distances and per-coordinate ``bincount`` sums give the
        bits of one full distance matrix and a scatter-add.  Six distinct
        integer points leave clusters empty, so the re-seeding runs too;
        their distances are exact, so the inertia is exactly 0."""
        rng = np.random.default_rng(seed)
        n = 2 * NEAREST_BLOCK + 300
        if duplicated:
            points = np.repeat(rng.integers(-3, 4, size=(6, 8)), -(-n // 6), axis=0)[:n].astype(np.float64)
        else:
            points = rng.standard_normal((n, 8))
        cb = train_kmeans(points, 24, seed=seed)
        centroids, history = reference_kmeans(points, 24, 25, seed)
        assert np.array_equal(cb.centroids, centroids)
        assert cb.inertia_history == history

    def test_two_separated_pairs(self):
        # Analytic optimum: one centroid per pair at the pair mean.  Verified
        # independently by enumerating every 2-partition of the four points.
        pts = np.array([[0.0, 0.0], [0.2, 0.0], [10.0, 0.0], [10.2, 0.0]])
        best = None
        for assign in itertools.product([0, 1], repeat=4):
            groups = [[p for p, a in zip(pts, assign) if a == g] for g in (0, 1)]
            if not all(groups):
                continue
            cost = sum(
                float(((np.array(g) - np.array(g).mean(axis=0)) ** 2).sum()) for g in groups
            )
            if best is None or cost < best[0]:
                best = (cost, [np.array(g).mean(axis=0) for g in groups])
        cb = train_kmeans(pts, 2, max_iters=50, seed=0)
        got = sorted(cb.centroids.tolist())
        want = sorted(np.stack(best[1]).tolist())
        assert np.allclose(got, want, atol=1e-6)
        assert cb.inertia_history[-1] == pytest.approx(best[0], abs=1e-9)

    def test_saturated_clustering(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((6, 4))
        cb = train_kmeans(pts, 6, max_iters=30, seed=1)
        # every centroid equals one distinct input point, inertia 0
        assert cb.inertia_history[-1] == pytest.approx(0.0, abs=1e-12)
        matched = {tuple(np.round(c, 9)) for c in cb.centroids.astype(np.float64)}
        assert len(matched) == 6

    def test_determinism(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((50, 8))
        a = train_kmeans(pts, 5, max_iters=20, seed=9)
        b = train_kmeans(pts, 5, max_iters=20, seed=9)
        assert a.centroids.tobytes() == b.centroids.tobytes()

    def test_k_larger_than_points_rejected(self):
        with pytest.raises(UsageError, match="exceeds"):
            train_kmeans(np.zeros((3, 2)), 4)

    def test_inertia_non_increasing(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((200, 6))
        cb = train_kmeans(pts, 12, max_iters=30, seed=2)
        hist = cb.inertia_history
        assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_repeated_points_below_k_converge(self):
        """Six distinct points repeated to 2348 rows, k = 24: the converged
        inertia is rounding noise (7e-13, then 2.4e-12), not a rise."""
        points = np.random.default_rng(2).standard_normal((6, 8))[np.arange(2348) % 6]
        cb = train_kmeans(points, 24, seed=0)
        assert cb.inertia_history[-1] < 1e-9
        assert len({tuple(c) for c in cb.centroids.tolist()}) >= 6

    def test_a_worse_lloyd_step_still_raises(self, monkeypatch):
        """Moving every centroid by 2e-7 after the first Lloyd step raises
        the inertia by about 8e-10, some 25 times the rounding allowance."""
        points = np.random.default_rng(2).standard_normal((6, 8))[np.arange(2348) % 6]
        nearest = quantizer._nearest
        calls = []

        def worse(pts, centroids):
            calls.append(1)
            if len(calls) == 2:
                centroids += 2e-7
            return nearest(pts, centroids)

        monkeypatch.setattr(quantizer, "_nearest", worse)
        with pytest.raises(DataError, match="inertia increased"):
            train_kmeans(points, 24, seed=0)

    def test_subsampled_training_is_deterministic(self):
        # pool larger than the per-centroid training cap takes the subsample path
        data = generate_synthetic(300, (4, 8), 8, 6, 0.3, seed=12)
        repo = data.repository
        n_c = 2
        assert repo.total_vectors > TRAIN_POINTS_PER_CENTROID * n_c
        a = train_codebook(repo, n_c=n_c, seed=5)
        b = train_codebook(repo, n_c=n_c, seed=5)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.n_c == n_c

    def test_default_codebook_size(self):
        data = generate_synthetic(30, (3, 6), 8, 4, 0.2, seed=13)
        cb = train_codebook(data.repository, seed=1)
        assert cb.n_c == int(np.ceil(np.sqrt(data.repository.total_vectors)))


class TestAssignAll:
    def test_vector_equal_to_centroid(self):
        data = generate_synthetic(10, (2, 5), 8, 4, 0.3, seed=6)
        repo = data.repository
        cents = np.vstack([np.eye(8, dtype=np.float32)[:3], repo.matrix[:1]])
        cb = Codebook(cents, train_seed=0)
        assignment = assign_all(repo, cb)
        assert assignment.flat[0] == 3  # zero distance to its own copy

    def test_exact_tie_goes_to_lower_id(self):
        matrix = np.array([[0.0, 1.0]], dtype=np.float32)
        repo = VectorSetRepository(matrix, np.array([0, 1]))
        cents = np.array([[0.5, 0.5], [1.0, 0.0], [0.3, 0.3], [0.7, 0.7], [-1.0, 0.0]], dtype=np.float32)
        cb = Codebook(cents, train_seed=0)
        # centroids 1 and 4 are exactly equidistant from (0, 1)
        d1 = np.linalg.norm(matrix[0] - cents[1])
        d4 = np.linalg.norm(matrix[0] - cents[4])
        assert d1 == d4
        masked = cents.copy()
        masked[0] = masked[2] = masked[3] = 100.0  # push others far away
        assignment = assign_all(repo, Codebook(masked, train_seed=0))
        assert assignment.flat[0] == 1

    def test_matches_brute_force_scan(self):
        data = generate_synthetic(40, (3, 8), 8, 6, 0.4, seed=8)
        repo = data.repository
        assert repo.total_vectors >= 120
        cb = train_kmeans(repo.matrix[np.sort(np.random.default_rng(0).choice(repo.total_vectors, 100, replace=False))], 16, seed=3)
        assignment = assign_all(repo, cb)
        expected = brute_force_nearest(repo.matrix.astype(np.float64), cb.centroids64())
        assert np.array_equal(assignment.flat, expected)


class TestBuildIndexes:
    @pytest.fixture()
    def small(self):
        data = generate_synthetic(25, (2, 7), 8, 5, 0.25, seed=10)
        repo = data.repository
        cb = train_kmeans(repo.matrix, 6, seed=4)
        assignment = assign_all(repo, cb)
        return repo, cb, assignment, build_indexes(assignment, cb.n_c)

    def test_counting_example(self):
        assignment = ClusterAssignment(np.array([2, 2, 5], dtype=np.int32), np.array([0, 3]))
        postings = build_indexes(assignment, 6)
        assert [a.tolist() for a in postings[2]] == [[0], [2]]
        assert [a.tolist() for a in postings[5]] == [[0], [1]]
        assert all(len(postings[c][0]) == 0 for c in (0, 1, 3, 4))

    def test_lists_partition_handles(self, small):
        repo, cb, _, postings = small
        assert int(postings.counts.sum()) == repo.total_vectors
        slots = list(zip(np.repeat(np.arange(cb.n_c), np.diff(postings.ptr)).tolist(), postings.sets.tolist()))
        assert len(set(slots)) == len(slots)

    def test_lists_sorted_by_handle(self, small):
        _, cb, _, postings = small
        for c in range(cb.n_c):
            assert (np.diff(postings[c][0]) > 0).all()

    def test_counts_match_the_assignment(self, small):
        repo, cb, assignment, postings = small
        recomputed = {}
        for sid in range(repo.n_sets):
            for c in assignment.set_owners(sid).tolist():
                recomputed[(c, sid)] = recomputed.get((c, sid), 0) + 1
        got = {(c, int(s)): int(n) for c in range(cb.n_c) for s, n in zip(*postings[c])}
        assert got == recomputed

    def test_counts_sum_to_set_sizes(self, small):
        repo, _, _, postings = small
        assert (postings.counts >= 1).all()
        per_set = np.bincount(postings.sets, weights=postings.counts, minlength=repo.n_sets)
        assert per_set.tolist() == repo.sizes().tolist()

    def test_rebuild_idempotent(self, small):
        _, cb, assignment, postings = small
        again = build_indexes(assignment, cb.n_c)
        for field in ("ptr", "sets", "counts"):
            assert np.array_equal(getattr(again, field), getattr(postings, field))


@st.composite
def owner_lists(draw):
    """Owner centroids per set; some sets and some centroids hold nothing."""
    n_c = draw(st.integers(1, 7))
    lists = draw(st.lists(st.lists(st.integers(0, n_c - 1), max_size=6), min_size=1, max_size=8))
    return lists, n_c


@settings(max_examples=200, deadline=None)
@given(owner_lists())
def test_build_indexes_matches_per_centroid_reference(case):
    lists, n_c = case
    offsets = np.concatenate([[0], np.cumsum([len(o) for o in lists])])
    flat = np.array([c for o in lists for c in o], dtype=np.int32)
    got = build_indexes(ClusterAssignment(flat, offsets), n_c)
    for array, want in zip((got.ptr, got.sets, got.counts), reference_postings(lists, n_c)):
        assert array.dtype == np.int32
        assert np.array_equal(array, want)
