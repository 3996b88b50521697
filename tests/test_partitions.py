"""Dispersion-driven partitioning: merge, keep, and local-split branches."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import group_similarity, random_unit_rows, reference_partition_index
from tusearch.errors import DataError, UsageError
from tusearch.partitions import (
    PartitionGroup,
    build_partition_index,
    cascade_k,
    dispersion,
)
from tusearch.quantizer import ClusterAssignment, Codebook, train_kmeans
from tusearch.repository import VectorSetRepository


def repo_with_owners(rng, owner_lists, d=6):
    sizes = [len(o) for o in owner_lists]
    matrix = random_unit_rows(rng, sum(sizes), d)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    repo = VectorSetRepository(matrix, offsets)
    flat = np.concatenate(owner_lists).astype(np.int32)
    return repo, ClusterAssignment(flat, repo.offsets.copy())


class TestDispersion:
    def test_direct_ratio(self):
        owners = np.array([0, 0, 0, 1, 1, 2, 2, 2, 3, 3])
        assert dispersion(owners) == pytest.approx(0.4)

    def test_single_centroid(self):
        assert dispersion(np.zeros(8, dtype=int)) == pytest.approx(1 / 8)

    def test_all_distinct(self):
        assert dispersion(np.arange(6)) == pytest.approx(1.0)


class TestGroupSimilarity:
    """The oracle's pairwise similarity, the quantity single linkage reads
    from the Gram matrix."""

    def cb(self):
        cents = np.array(
            [[1.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.2, 0.1, 0.0], [0.7, 0.1, 0.0]],
            dtype=np.float32,
        )
        return Codebook(cents, train_seed=0)

    def test_singletons(self):
        cb = self.cb()
        a = PartitionGroup(0, (0,), np.array([0]))
        b = PartitionGroup(1, (1,), np.array([1]))
        want = float(np.dot(cb.centroids64()[0], cb.centroids64()[1]))
        assert group_similarity(a, b, cb) == pytest.approx(want, abs=1e-12)

    def test_max_over_pairs(self):
        cb = self.cb()
        a = PartitionGroup(0, (0, 1), np.array([0]))
        b = PartitionGroup(1, (3,), np.array([1]))
        cents = cb.centroids64()
        pairs = [float(np.dot(cents[x], cents[3])) for x in (0, 1)]
        assert group_similarity(a, b, cb) == pytest.approx(max(pairs), abs=1e-12)

    def test_symmetry(self):
        cb = self.cb()
        a = PartitionGroup(0, (0, 2), np.array([0]))
        b = PartitionGroup(1, (1, 3), np.array([1]))
        assert group_similarity(a, b, cb) == group_similarity(b, a, cb)


def check_partition(pset, size):
    members = np.concatenate([g.member_indices for g in pset.groups])
    assert len(members) == size
    assert len(np.unique(members)) == size
    assert sum(g.capacity for g in pset.groups) == size
    for g in pset.groups:
        assert g.capacity >= 1 and len(g.centroid_ids) >= 1


class TestBuildPartitionIndex:
    def test_middle_band_keeps_singletons(self):
        rng = np.random.default_rng(0)
        owners = [np.array([3, 3, 7, 7, 9, 9, 9, 9])]  # rho = 3/8
        repo, assignment = repo_with_owners(rng, owners)
        cb = Codebook(random_unit_rows(rng, 12, 6), train_seed=0)
        pidx = build_partition_index(repo, cb, assignment, rho_low=0.2, rho_high=0.8)
        pset = pidx.of(0)
        check_partition(pset, 8)
        got = sorted((g.centroid_ids, tuple(g.member_indices)) for g in pset.groups)
        assert got == [((3,), (0, 1)), ((7,), (2, 3)), ((9,), (4, 5, 6, 7))]
        # output dispersion equals input dispersion for the middle branch
        assert len(pset.groups) / 8 == pytest.approx(dispersion(owners[0]))

    def test_high_dispersion_merges_to_just_below_threshold(self):
        rng = np.random.default_rng(1)
        owners = [np.arange(8)]  # rho = 1.0
        repo, assignment = repo_with_owners(rng, owners)
        cb = Codebook(random_unit_rows(rng, 8, 6), train_seed=0)
        pidx = build_partition_index(repo, cb, assignment, rho_low=0.2, rho_high=0.9)
        pset = pidx.of(0)
        check_partition(pset, 8)
        # merging stops as soon as groups/8 < 0.9, i.e. at 7 groups
        assert len(pset.groups) == 7

    def test_merge_loop_cannot_stall(self):
        rng = np.random.default_rng(2)
        owners = [np.arange(3)]
        repo, assignment = repo_with_owners(rng, owners)
        cb = Codebook(random_unit_rows(rng, 3, 6), train_seed=0)
        # rho_high so low that every set merges down to one group
        pidx = build_partition_index(repo, cb, assignment, rho_low=0.05, rho_high=0.1)
        assert len(pidx.of(0).groups) == 1

    def test_merge_picks_most_similar_pair(self):
        rng = np.random.default_rng(3)
        owners = [np.array([0, 1, 2])]
        repo, assignment = repo_with_owners(rng, owners, d=3)
        cents = np.array([[1, 0, 0], [0.99, 0.1, 0], [0, 1, 0]], dtype=np.float32)
        cb = Codebook(cents, train_seed=0)
        pidx = build_partition_index(repo, cb, assignment, rho_low=0.1, rho_high=0.9)
        pset = pidx.of(0)
        assert len(pset.groups) == 2
        merged = next(g for g in pset.groups if len(g.centroid_ids) == 2)
        assert merged.centroid_ids == (0, 1)  # the two near-parallel centroids

    def test_low_dispersion_splits_locally(self):
        rng = np.random.default_rng(4)
        owners = [np.zeros(12, dtype=int)]  # rho = 1/12 <= 0.3
        repo, assignment = repo_with_owners(rng, owners)
        cb = Codebook(random_unit_rows(rng, 4, 6), train_seed=0)
        pidx = build_partition_index(repo, cb, assignment, rho_low=0.3, rho_high=0.8, seed=5)
        k = cascade_k(12, 0.3, 0.8)
        assert k == 7
        pset = pidx.of(0)
        check_partition(pset, 12)
        assert len(pset.groups) <= k
        assert len(pset.cascade_centroids) == len(pset.groups)
        # groups reference cascade ids, which live past the global codebook
        for g in pset.groups:
            assert all(cid >= cb.n_c for cid in g.centroid_ids)
        # members match an independent run of the same local clustering
        local = train_kmeans(
            repo.vectors_of(0).astype(np.float64), k, max_iters=20,
            seed=(5 * 1_000_003 + 0) & 0x7FFFFFFF,
        )
        cents = local.centroids64()
        vecs = repo.vectors_of(0).astype(np.float64)
        d2 = ((vecs[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        got = sorted(tuple(g.member_indices) for g in pset.groups)
        want = sorted(
            tuple(np.flatnonzero(labels == j)) for j in range(k) if (labels == j).any()
        )
        assert got == want

    def test_single_partition_mode(self):
        rng = np.random.default_rng(6)
        owners = [np.array([0, 1, 2, 3]), np.array([1, 1])]
        repo, assignment = repo_with_owners(rng, owners)
        cb = Codebook(random_unit_rows(rng, 5, 6), train_seed=0)
        pidx = build_partition_index(repo, cb, assignment, single_partition=True)
        for sid, size in ((0, 4), (1, 2)):
            pset = pidx.of(sid)
            assert len(pset.groups) == 1
            check_partition(pset, size)

    def test_invalid_thresholds(self):
        rng = np.random.default_rng(7)
        repo, assignment = repo_with_owners(rng, [np.array([0, 1])])
        cb = Codebook(random_unit_rows(rng, 2, 6), train_seed=0)
        for lo, hi in ((0.5, 0.5), (0.0, 0.8), (0.4, 1.2), (0.9, 0.3), (float("nan"), 0.8), (0.2, True)):
            for single in (False, True):
                with pytest.raises(UsageError):
                    build_partition_index(repo, cb, assignment, rho_low=lo, rho_high=hi, single_partition=single)

    def test_default_cascade_policy_lands_in_band(self):
        for size in (2, 5, 10, 40):
            k = cascade_k(size, 0.2, 0.8)
            assert 2 <= k <= size or size < 2

    def test_random_battery_all_branches(self):
        rng = np.random.default_rng(8)
        cb = Codebook(random_unit_rows(rng, 20, 6), train_seed=0)
        owner_lists = []
        for _ in range(120):
            size = int(rng.integers(2, 16))
            style = rng.integers(3)
            if style == 0:  # concentrated
                owner_lists.append(np.full(size, int(rng.integers(20))))
            elif style == 1:  # dispersed
                owner_lists.append(rng.permutation(20)[:size])
            else:  # mixed
                owner_lists.append(rng.integers(0, max(2, size // 2), size))
        repo, assignment = repo_with_owners(rng, owner_lists)
        pidx = build_partition_index(repo, cb, assignment, rho_low=0.25, rho_high=0.75, seed=9)
        for sid, owners in enumerate(owner_lists):
            pset = pidx.of(sid)
            check_partition(pset, len(owners))
            rho = dispersion(owners)
            if 0.25 < rho < 0.75:
                assert len(pset.groups) == len(np.unique(owners))
            elif rho >= 0.75:
                assert len(pset.groups) / len(owners) < 0.75 or len(pset.groups) == 1


PARTITION_FIELDS = ("group_ptr", "cascade_ptr", "cid_ptr", "member_ptr", "centroid_ids", "members", "cascade")


def random_owner_lists(rng, n_c):
    """Sets of size 1 and sets drawn to land on each dispersion branch."""
    lists = []
    for _ in range(int(rng.integers(1, 14))):
        size = int(rng.integers(1, 13))
        style = int(rng.integers(4))
        if style == 0:  # concentrated
            lists.append(np.full(size, int(rng.integers(n_c))))
        elif style == 1:  # dispersed
            lists.append(rng.permutation(n_c)[: min(size, n_c)])
        elif style == 2:  # mixed
            lists.append(rng.integers(0, min(n_c, max(2, size // 2)), size))
        else:
            lists.append(np.array([int(rng.integers(n_c))]))
    return lists


class TestBuildEqualsReference:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        grid=st.booleans(),
        rho_high=st.floats(0.1, 1.0),
        low_share=st.floats(0.05, 0.95),
        single=st.sampled_from([False, False, False, True]),
    )
    def test_arrays_equal_the_per_pair_merge(self, seed, grid, rho_high, low_share, single):
        """Quarter-grid centroids, some rows duplicated, make every inner
        product exact, so equal similarities tie exactly and the
        lowest-(id, id) rule decides; random unit centroids are the other
        codebook."""
        rng = np.random.default_rng(seed)
        n_c, d = int(rng.integers(2, 14)), 4
        if grid:
            cents = rng.integers(-4, 5, size=(n_c, d)) / 4.0
            cents[rng.integers(n_c, size=n_c // 2)] = cents[rng.integers(n_c, size=n_c // 2)]
        else:
            cents = random_unit_rows(rng, n_c, d)
        cb = Codebook(cents, train_seed=0)
        repo, assignment = repo_with_owners(rng, random_owner_lists(rng, n_c), d=d)
        kwargs = dict(rho_low=rho_high * low_share, rho_high=rho_high, seed=seed % 1000, single_partition=single)
        got = build_partition_index(repo, cb, assignment, **kwargs)
        want = reference_partition_index(repo, cb, assignment, **kwargs)
        for name in PARTITION_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name


class TestValidate:
    def index(self):
        rng = np.random.default_rng(10)
        repo, assignment = repo_with_owners(rng, [np.array([3, 3, 7, 7, 9, 9, 9, 9]), np.array([1, 2, 2])])
        cb = Codebook(random_unit_rows(rng, 12, 6), train_seed=0)
        return build_partition_index(repo, cb, assignment, rho_low=0.2, rho_high=0.9), repo.offsets

    def test_built_index_passes(self):
        pindex, offsets = self.index()
        pindex.validate(offsets, 12)

    @pytest.mark.parametrize("change, message", [
        ({"members": [0, 0, 2, 3, 4, 5, 6, 7, 0, 1, 2]}, "groups of set 0 do not partition its vectors"),
        ({"members": [0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 1]}, "groups of set 1 do not partition its vectors"),
        ({"members": [0, 1, 2, 3, 4, 5, 6, -1, 0, 1, 2]}, "groups of set 0 do not partition its vectors"),
        ({"members": [0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 3]}, "groups of set 1 do not partition its vectors"),
        ({"cid_ptr": [0, 1, 1, 3, 4, 5]}, "empty group in set 0"),
        ({"member_ptr": [0, 2, 4, 8, 11, 11]}, "empty group in set 1"),
        ({"group_ptr": [5, 3, 0]}, "group_ptr does not span its items"),
        ({"group_ptr": [0, 3]}, "group_ptr does not span its items"),
        ({"member_ptr": [0, 2, 4, 8, 9]}, "member_ptr does not span its items"),
        ({"member_ptr": [0, 4, 2, 8, 9, 11]}, "member_ptr does not span its items"),
        ({"cid_ptr": [1, 1, 2, 3, 4, 5]}, "cid_ptr does not span its items"),
        ({"cascade_ptr": [0, 0, 1]}, "cascade_ptr does not span its items"),
        ({"cascade_ptr": [0, 0, 1], "cascade": [[np.nan] * 6]}, "non-finite cascade rows"),
        ({"centroid_ids": [3, 7, 9, 1, 12]}, "centroid id without a backing row in set 1"),
        ({"centroid_ids": [3, -1, 9, 1, 2]}, "centroid id without a backing row in set 0"),
    ])
    def test_damaged_index_is_a_data_error(self, change, message):
        pindex, offsets = self.index()
        assert pindex.group_ptr.tolist() == [0, 3, 5]
        damaged = dataclasses.replace(pindex, **{
            k: np.array(v, dtype=np.float32 if k == "cascade" else np.int32) for k, v in change.items()
        })
        with pytest.raises(DataError, match=message):
            damaged.validate(offsets, 12)
