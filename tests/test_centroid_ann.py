"""Stage-1 centroid retrieval: the exact, batched flat scan
``quantizer.top_centroids`` (traced as the ``centroid_ann.top`` layer)."""

import numpy as np
import pytest

from oracles import random_unit_rows
from tusearch.errors import UsageError
from tusearch.quantizer import Codebook, top_centroids


def top_ids(cb, q, phi_c):
    ids, _ = top_centroids(cb, np.atleast_2d(q).astype(np.float64), phi_c)
    return ids.tolist()


def sorted_key_oracle(sims, phi_c):
    n_c = sims.shape[1]
    return [sorted(range(n_c), key=lambda c: (-row[c], c))[:phi_c] for row in sims]


class TestExactMode:
    def test_full_order_when_phi_c_is_n_c(self):
        rng = np.random.default_rng(0)
        cb = Codebook(random_unit_rows(rng, 20, 8), train_seed=0)
        q = random_unit_rows(rng, 3, 8).astype(np.float64)
        ids, sims = top_centroids(cb, q, 20)
        assert ids.shape == sims.shape == (3, 20)
        assert ids.tolist() == sorted_key_oracle(q @ cb.centroids64().T, 20)

    def test_query_equals_centroid(self):
        rng = np.random.default_rng(1)
        cb = Codebook(random_unit_rows(rng, 10, 8), train_seed=0)
        assert top_ids(cb, cb.centroids[[4, 7]], 1) == [[4], [7]]

    def test_overask_returns_all(self):
        rng = np.random.default_rng(2)
        cb = Codebook(random_unit_rows(rng, 5, 4), train_seed=0)
        ids, sims = top_centroids(cb, cb.centroids64()[:2], 50)
        assert ids.shape == sims.shape == (2, 5)
        assert all(sorted(row) == list(range(5)) for row in ids.tolist())

    def test_tie_goes_to_lower_id(self):
        cents = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]], dtype=np.float32)
        cb = Codebook(cents, train_seed=0)
        assert top_ids(cb, [1.0, 0.0], 3) == [[1, 2, 0]]
        # a tie that straddles the cut keeps the lower id
        assert top_ids(cb, [1.0, 0.0], 1) == [[1]]


class TestBatchedScan:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sorted_key_on_random_codebooks(self, seed):
        rng = np.random.default_rng(seed)
        for n_c, d in ((1, 3), (7, 4), (60, 8), (300, 16)):
            cb = Codebook(random_unit_rows(rng, n_c, d), train_seed=0)
            q = random_unit_rows(rng, 9, d).astype(np.float64)
            sims = q @ cb.centroids64().T
            for phi_c in (1, 5, 32, n_c + 3):
                ids, got = top_centroids(cb, q, phi_c)
                assert ids.tolist() == sorted_key_oracle(sims, phi_c)
                assert np.array_equal(got, np.take_along_axis(sims, ids, axis=1))

    def test_ties_come_out_lower_id_first(self):
        # entries on a quarter grid make every inner product exact, so the
        # codebook is full of exact ties, also at the phi_c cut
        rng = np.random.default_rng(9)
        cb = Codebook(rng.integers(-2, 3, size=(80, 4)) * 0.25, train_seed=0)
        q = rng.integers(-2, 3, size=(12, 4)) * 0.25
        sims = q @ cb.centroids64().T
        assert len(np.unique(sims)) < sims.size // 4
        for phi_c in (1, 6, 17, 80):
            ids, got = top_centroids(cb, q, phi_c)
            assert ids.tolist() == sorted_key_oracle(sims, phi_c)
            for row_ids, row_sims in zip(ids, got):
                tied = row_sims[1:] == row_sims[:-1]
                assert (row_ids[1:][tied] > row_ids[:-1][tied]).all()

    def test_phi_c_below_one_rejected(self):
        cb = Codebook(np.eye(3, dtype=np.float32), train_seed=0)
        with pytest.raises(UsageError):
            top_centroids(cb, np.eye(3), 0)
