"""The benchmark's oracle against exhaustive enumeration."""

import itertools

import numpy as np
import pytest

import oracle


def enumerate_best(sims: np.ndarray, tau: float) -> tuple[int, float]:
    """Lexicographic (cardinality, weight) maximum over every injective
    partial map from rows to columns that uses only pairs >= tau."""
    n_rows, n_cols = sims.shape
    best = (0, 0.0)
    for n_pairs in range(1, min(n_rows, n_cols) + 1):
        for rows in itertools.combinations(range(n_rows), n_pairs):
            for cols in itertools.permutations(range(n_cols), n_pairs):
                vals = [sims[r, c] for r, c in zip(rows, cols)]
                if min(vals) >= tau:
                    best = max(best, (n_pairs, float(sum(vals))))
    return best


@pytest.mark.parametrize("seed", range(40))
def test_exact_pair_equals_enumeration(seed):
    rng = np.random.default_rng(seed)
    n_rows, n_cols = rng.integers(1, 6, size=2)
    sims = rng.uniform(-0.2, 1.0, size=(n_rows, n_cols))
    tau = float(rng.choice([0.3, 0.5, 0.7]))
    card, weight = oracle.exact_pair(sims, tau)
    want_card, want_weight = enumerate_best(sims, tau)
    assert card == want_card
    assert weight == pytest.approx(want_weight, abs=1e-12)


def test_cardinality_before_weight():
    # One heavy pair blocks two lighter ones; two pairs must win.
    sims = np.array([[0.99, 0.71], [0.72, 0.0]])
    assert oracle.exact_pair(sims, 0.7) == (2, pytest.approx(0.71 + 0.72))


def test_score_all_matches_enumeration_per_set():
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((9, 4))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    offsets = np.array([0, 2, 5, 9])
    query = matrix[[0, 6, 7]]
    scored = oracle.score_all(query, matrix, offsets, 0.5)
    for sid in range(3):
        want = enumerate_best(query @ matrix[offsets[sid] : offsets[sid + 1]].T, 0.5)
        assert scored[sid] == (want[0], pytest.approx(want[1]))


@pytest.mark.parametrize("seed", range(12))
def test_bounded_top_k_equals_scoring_every_set(seed):
    rng = np.random.default_rng(seed)
    dim, n_sets = 6, 120
    concepts = rng.standard_normal((8, dim))
    sizes = rng.integers(1, 7, size=n_sets)
    rows = concepts[rng.integers(0, 8, size=sizes.sum())] + 0.3 * rng.standard_normal((sizes.sum(), dim))
    matrix = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    query = matrix[rng.integers(0, len(matrix), size=5)]
    for k in (1, 10, n_sets):
        want = oracle.rank(oracle.score_all(query, matrix, offsets, 0.7), k)
        got = oracle.QueryOracle(query, matrix.astype(np.float64), offsets, 0.7).top_k(k)
        assert got == want
