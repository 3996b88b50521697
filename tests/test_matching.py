"""Exact thresholded matching versus independent enumeration."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    enumerate_best_matching,
    kuhn_matching_cardinality,
    random_unit_rows,
    reference_ranking,
    reference_row_best,
    sets_from_sims,
)
import tusearch
from tusearch.errors import DataError, UsageError
from tusearch.matching import (
    brute_force_unionability,
    exact_topk,
    row_best,
    set_bounds,
    solve_shifted_assignment,
    unionability,
)
from tusearch.mwmto import partition_sims
from tusearch.partitions import PartitionGroup, PartitionIndex, PartitionSet
from tusearch.pruning import BOUND_SLACK
from tusearch.quantizer import Codebook
from tusearch.repository import VectorSetRepository


class TestUnionability:
    def test_crossing_beats_greedy(self):
        # the weight-greedy diagonal pairing cannot reach cardinality 2;
        # the optimum crosses: (q0 -> v1) + (q1 -> v0) = 0.8 + 0.85
        q, v = sets_from_sims([[0.9, 0.8], [0.85, 0.2]])
        res = unionability(q, v, 0.5)
        assert res.cardinality == 2
        assert res.weight == pytest.approx(1.65, abs=1e-9)

    def test_single_edge(self):
        q, v = sets_from_sims([[0.7]])
        res = unionability(q, v, 0.5)
        assert res.cardinality == 1
        assert res.weight == pytest.approx(0.7, abs=1e-12)

    def test_identical_orthonormal_sets(self):
        m = 5
        q = np.eye(m)
        res = unionability(q, q, 0.5)
        assert res.cardinality == m
        assert res.weight == pytest.approx(float(m), abs=1e-9)

    def test_empty_graph_is_zero(self):
        q, v = sets_from_sims([[0.1, 0.2], [0.05, 0.15]])
        res = unionability(q, v, 0.5)
        assert res == (0, 0.0)


class TestBruteForce:
    def test_uniform_weights(self):
        q, v = sets_from_sims(np.full((3, 3), 0.6))
        res = brute_force_unionability(q, v, 0.5)
        assert res.cardinality == 3
        assert res.weight == pytest.approx(1.8, abs=1e-9)

    def test_empty(self):
        q, v = sets_from_sims([[0.2]])
        res = brute_force_unionability(q, v, 0.5)
        assert (res.cardinality, res.weight) == (0, 0.0)

    def test_guard(self):
        with pytest.raises(UsageError, match="guard"):
            brute_force_unionability(np.eye(9), np.eye(9), 0.5)

    def test_guard_uses_smaller_side(self):
        q, v = sets_from_sims(np.full((12, 4), 0.8))
        res = brute_force_unionability(q, v, 0.5)
        assert res.cardinality == 4


class TestSolverAgainstOracles:
    @pytest.mark.parametrize("tau", [0.3, 0.5, 0.7])
    def test_dense_random_instances(self, tau):
        rng = np.random.default_rng(int(tau * 100))
        for _ in range(120):
            m = int(rng.integers(1, 8))
            n = int(rng.integers(1, 8))
            sims = rng.uniform(tau, 1.0, (m, n))
            q, v = sets_from_sims(sims)
            got = unionability(q, v, tau)
            want = brute_force_unionability(q, v, tau)
            assert got.cardinality == want.cardinality
            assert got.weight == pytest.approx(want.weight, abs=1e-9)

    def test_sparse_random_instances(self):
        # thresholding at tau drops edges, exercising partial matchings
        rng = np.random.default_rng(77)
        for _ in range(250):
            m = int(rng.integers(1, 8))
            n = int(rng.integers(1, 8))
            sims = rng.uniform(0.0, 1.0, (m, n))
            tau = float(rng.choice([0.3, 0.5, 0.7]))
            q, v = sets_from_sims(sims)
            got = unionability(q, v, tau)
            want_card, want_weight = enumerate_best_matching(sims, sims >= tau)
            assert got.cardinality == want_card
            assert got.weight == pytest.approx(want_weight, abs=1e-9)

    def test_cardinality_matches_augmenting_path_routine(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            sims = rng.uniform(0.0, 1.0, (m, n))
            tau = 0.55
            q, v = sets_from_sims(sims)
            got = unionability(q, v, tau)
            assert got.cardinality == kuhn_matching_cardinality(sims >= tau)

    def test_cardinality_monotone_in_tau(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            sims = rng.uniform(0.0, 1.0, (5, 6))
            q, v = sets_from_sims(sims)
            cards = [unionability(q, v, t).cardinality for t in (0.2, 0.4, 0.6, 0.8)]
            assert cards == sorted(cards, reverse=True)

    def test_symmetry(self):
        rng = np.random.default_rng(34)
        for _ in range(80):
            sims = rng.uniform(0.0, 1.0, (int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            q, v = sets_from_sims(sims)
            a = unionability(q, v, 0.5)
            b = unionability(v, q, 0.5)
            assert a.cardinality == b.cardinality
            assert a.weight == pytest.approx(b.weight, abs=1e-9)


class TestShiftReduction:
    def test_invalid_cells_never_selected(self):
        sims = np.array([[0.9, 0.1], [0.95, 0.05]])
        valid = sims >= 0.5
        res = solve_shifted_assignment(sims, valid)
        # both queries want column 0; only one can take it
        assert res.cardinality == 1
        assert res.weight == pytest.approx(0.95, abs=1e-12)


@st.composite
def repositories(draw):
    """A query and a repository of random unit vectors in few dimensions, so
    that thresholds both keep and drop entries; sets of one vector, repeated
    sets and sets with no entry above tau all occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 5))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
    blocks = [random_unit_rows(rng, n, d) for n in sizes]
    if draw(st.booleans()):
        blocks.append(blocks[0].copy())  # a repeated set ties on everything
    offsets = np.concatenate([[0], np.cumsum([len(b) for b in blocks])])
    repo = VectorSetRepository(np.vstack(blocks), offsets)
    query = random_unit_rows(rng, draw(st.integers(1, 6)), d)
    tau = draw(st.sampled_from([0.05, 0.3, 0.5, 0.7, 0.9, 0.999]))
    return query, repo, tau


@st.composite
def side_by_side(draw):
    """Tables sharing their rows, laid side by side: tied and free
    similarities, zero capacities, columns no row reaches and rows with no
    entry; or every column usable once, as stage 3 passes it."""
    n_rows = draw(st.integers(1, 5))
    unit = draw(st.booleans())
    sim = st.one_of(st.sampled_from([0.5, 0.75, 1.0]), st.floats(0.5, 1.0))
    tables = []
    for _ in range(draw(st.integers(1, 4))):
        n_g = draw(st.integers(1, 4))
        caps = [1] * n_g if unit else draw(st.lists(st.integers(0, 3), min_size=n_g, max_size=n_g))
        reached = draw(st.lists(st.booleans(), min_size=n_g, max_size=n_g))
        rows = [
            [(g, draw(sim)) for g in range(n_g) if reached[g] and draw(st.booleans())]
            for _ in range(n_rows)
        ]
        tables.append((rows, caps))
    return tables, unit


class TestRowBest:
    @settings(max_examples=300, deadline=None)
    @given(side_by_side())
    def test_equals_the_per_table_loop(self, case):
        tables, unit = case
        widths = [len(caps) for _, caps in tables]
        starts = np.cumsum([0] + widths[:-1])
        sims = np.zeros((len(tables[0][0]), sum(widths)))
        for (rows, _), first in zip(tables, starts):
            for qi, row in enumerate(rows):
                for g, s in row:
                    sims[qi, first + g] = s
        caps = 1 if unit else np.concatenate([caps for _, caps in tables])
        best = row_best(sims, sims > 0.0, caps, starts)
        for t, (rows, table_caps) in enumerate(tables):
            weight, count, settled, choice, lb = reference_row_best(rows, table_caps)
            assert (best.weight[t], best.count[t], best.settled[t], best.lb[t]) == (weight, count, settled, lb)
            assert best.choice[:, t].tolist() == choice
            assert best.row_max[:, t].tolist() == [max((s for _, s in row), default=0.0) for row in rows]


class TestSetBounds:
    def test_lb_valid_when_greedy_blocks_a_row(self):
        # Each query column proposes its .99 set column and the last one
        # column 0, which the first already holds: 2.97 over three columns,
        # where the exact score matches all four at .7 (2.8).  Three is
        # below the four a matching can take, so the four row minima (2.8)
        # cap the bound.
        sims = [[.99, .7, 0, 0], [0, .99, .7, 0], [0, 0, .99, .7], [.7, 0, 0, 0]]
        q, v = sets_from_sims(sims)
        repo = VectorSetRepository(v, [0, len(v)])
        exact = unionability(q, repo.vectors_of(0), 0.6)
        assert (exact.cardinality, exact.weight) == (4, pytest.approx(2.8, abs=1e-6))
        lb, ub = set_bounds(q, repo, [0], 0.6)
        assert lb[0] == pytest.approx(2.8, abs=1e-6)
        assert exact.weight <= ub[0] + 1e-9

    def test_sandwich_on_sparse_tables(self):
        """Sets whose columns most query columns miss, so the row-best
        matching often turns rows away and the floors cap it."""
        rng = np.random.default_rng(31)
        for _ in range(200):
            n_q, n_v = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            sims = np.where(rng.uniform(size=(n_q, n_v)) < 0.4, rng.uniform(0.5, 1.0, (n_q, n_v)), 0.0)
            sims = sims.astype(np.float32).astype(np.float64)  # as the repository stores them
            q, v = sets_from_sims(sims)
            repo = VectorSetRepository(v, [0, n_v])
            card, weight = enumerate_best_matching(sims, sims >= 0.5)
            lb, ub = set_bounds(q, repo, [0], 0.5)
            assert lb[0] <= weight + 1e-9
            assert weight <= ub[0] + 1e-9

    def test_cover_is_tighter_than_both_sums(self):
        # Query columns 0-2 reach only set column 0, query column 3 only set
        # columns 1-3: the row-max sum is 3.35 and the column-max sum 3.45.
        # Query column 3 and set column 0 cover every entry, at 1.8, which
        # is the exact score.
        sims = [[.9, 0, 0, 0], [.8, 0, 0, 0], [.75, 0, 0, 0], [0, .9, .85, .8]]
        q, v = sets_from_sims(sims)
        repo = VectorSetRepository(v, [0, len(v)])
        exact = unionability(q, repo.vectors_of(0), 0.6)
        assert (exact.cardinality, exact.weight) == (2, pytest.approx(1.8, abs=1e-6))
        lb, ub = set_bounds(q, repo, [0], 0.6)
        assert ub[0] == pytest.approx(1.8, abs=1e-6)
        assert lb[0] == pytest.approx(1.8, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(repositories(), st.data())
    def test_ub_between_the_exact_score_and_both_sums(self, case, data):
        query, repo, tau = case
        cands = data.draw(st.lists(
            st.integers(0, repo.n_sets - 1), min_size=1, max_size=repo.n_sets, unique=True
        ))
        _, ub = set_bounds(query, repo, cands, tau)
        for sid, high in zip(cands, ub.tolist()):
            vectors = repo.vectors_of(sid)
            sims = query.astype(np.float64) @ vectors.astype(np.float64).T
            kept = np.where(sims >= tau, sims, 0.0)
            assert high <= min(kept.max(axis=1).sum(), kept.max(axis=0).sum()) + 1e-12
            assert brute_force_unionability(query, vectors, tau).weight - BOUND_SLACK <= high

    def test_empty_candidate_list(self):
        repo = VectorSetRepository(np.eye(2), [0, 2])
        lb, ub = set_bounds(np.eye(2), repo, [], 0.5)
        assert len(lb) == len(ub) == 0

    def test_unknown_set_id(self):
        repo = VectorSetRepository(np.eye(2), [0, 2])
        with pytest.raises(DataError, match="unknown set_id"):
            set_bounds(np.eye(2), repo, [1], 0.5)

    def test_tau_must_be_positive(self):
        repo = VectorSetRepository(np.eye(2), [0, 2])
        with pytest.raises(UsageError):
            set_bounds(np.eye(2), repo, [0], 0.0)

    @settings(max_examples=200, deadline=None)
    @given(repositories(), st.data())
    def test_bounds_sandwich_the_exact_score(self, case, data):
        query, repo, tau = case
        cands = data.draw(st.lists(
            st.integers(0, repo.n_sets - 1), min_size=1, max_size=repo.n_sets, unique=True
        ))
        lb, ub = set_bounds(query, repo, cands, tau)
        for sid, low, high in zip(cands, lb.tolist(), ub.tolist()):
            exact = unionability(query, repo.vectors_of(sid), tau).weight
            assert low <= exact + 1e-9
            assert exact <= high + 1e-9


class TestExactTopk:
    @settings(max_examples=200, deadline=None)
    @given(repositories(), st.data())
    def test_equals_the_per_set_reference(self, case, data):
        query, repo, tau = case
        k = data.draw(st.integers(1, repo.n_sets))
        got = exact_topk(query, repo, tau, k)
        want = reference_ranking(query, repo, tau)[:k]
        assert [(sid, card) for sid, _, card in got] == [(sid, card) for sid, _, card in want]
        for (_, a, _), (_, b, _) in zip(got, want):
            assert a == pytest.approx(b, abs=1e-9)

    def test_k_is_capped_at_the_repository_size(self):
        repo = VectorSetRepository(np.eye(3), [0, 1, 3])
        assert [sid for sid, _, _ in exact_topk(np.eye(3)[:1], repo, 0.5, 5)] == [0, 1]

    def test_k_must_be_positive(self):
        repo = VectorSetRepository(np.eye(2), [0, 2])
        with pytest.raises(UsageError):
            exact_topk(np.eye(2), repo, 0.5, 0)


def test_scipy_optimize_loads_at_the_first_assignment_solve():
    """Importing the package and building an engine leave ``scipy.optimize``
    unimported; the first exact score imports it."""
    script = "\n".join([
        "import sys",
        "import tusearch",
        "data = tusearch.generate_synthetic(30, (3, 8), 8, 5, 0.1, seed=1)",
        "tusearch.build_engine(data.repository, n_c=4, seed=1)",
        "print('scipy.optimize' in sys.modules)",
        "vectors = data.repository.vectors_of(0)",
        "tusearch.unionability(vectors, vectors, 0.7)",
        "print('scipy.optimize' in sys.modules)",
    ])
    src = str(Path(tusearch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "True"]


def _tau_takers():
    """Each exported function that takes a threshold, on a small valid input."""
    q, v = np.eye(3)[:2], np.eye(3)
    repo = VectorSetRepository(v, [0, 1, 3])
    group = PartitionGroup(0, (0,), np.arange(1, dtype=np.int32))
    pindex = PartitionIndex.pack([PartitionSet(0, [group], np.zeros((0, 3), dtype=np.float32))])
    codebook = Codebook(v[:1].astype(np.float32), train_seed=0)
    return {
        "unionability": lambda tau: unionability(q, v, tau),
        "brute_force_unionability": lambda tau: brute_force_unionability(q, v, tau),
        "exact_topk": lambda tau: exact_topk(q, repo, tau, 2),
        "set_bounds": lambda tau: set_bounds(q, repo, [0, 1], tau),
        "partition_sims": lambda tau: partition_sims(q, pindex, codebook, [0], tau),
    }


@pytest.mark.parametrize("tau", [float("nan"), 1.5, 0, -0.1, True], ids=["nan", "1.5", "0", "-0.1", "True"])
@pytest.mark.parametrize("taker", list(_tau_takers()))
def test_tau_outside_the_unit_interval_is_a_usage_error(taker, tau):
    run = _tau_takers()[taker]
    assert run(0.5) is not None  # the input is fine with a valid threshold
    with pytest.raises(UsageError, match="tau must be"):
        run(tau)
