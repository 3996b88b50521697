"""Three-stage search pipeline: stage wiring, clustered scoring, exactness."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tusearch.errors import DataError, UsageError
from tusearch.evaluation import BenchConfig, make_workload
from tusearch.matching import BRUTE_FORCE_MAX_SIDE, brute_force_unionability, exact_topk, set_bounds, unionability
from tusearch.pipeline import SearchParams, build_engine
from tusearch.repository import QueryTable, generate_synthetic, split_repository


@pytest.fixture(scope="module")
def workload():
    data = generate_synthetic(120, (4, 9), 16, 12, 0.12, seed=21)
    repo, qrepo = split_repository(data.repository, 100)
    queries = [QueryTable(qrepo.vectors_of(i)) for i in range(qrepo.n_sets)]
    engine = build_engine(repo, seed=5)
    return repo, queries, engine


@pytest.fixture(scope="module")
def flat_engine(workload):
    repo, _, _ = workload
    return build_engine(repo, seed=5, single_partition=True)


def brute_force_clustered_topk(engine, query, tau, k):
    scored = []
    for sid in range(engine.repo.n_sets):
        res = unionability(query.vectors, engine.repo.vectors_of(sid), tau)
        scored.append((sid, res.weight, res.cardinality))
    scored.sort(key=lambda t: (-t[1], -t[2], t[0]))
    return scored[:k]


class TestParams:
    def test_defaults_nest(self):
        p = SearchParams(k=10).resolve(1000)
        assert (p.k, p.phi_r, p.phi_ref) == (10, 30, 50)

    def test_explicit_must_nest(self):
        with pytest.raises(UsageError, match="nest"):
            SearchParams(k=10, phi_r=5).resolve(1000)
        with pytest.raises(UsageError, match="nest"):
            SearchParams(k=10, phi_ref=20, phi_r=25).resolve(1000)

    def test_unset_size_follows_the_set_one(self):
        p = SearchParams(k=10, phi_ref=20).resolve(1000)
        assert (p.phi_r, p.phi_ref) == (20, 20)
        p = SearchParams(k=10, phi_r=80).resolve(1000)
        assert (p.phi_r, p.phi_ref) == (80, 80)
        p = SearchParams(k=10, phi_ref=200).resolve(1000)
        assert (p.phi_r, p.phi_ref) == (30, 200)
        p = SearchParams(k=10, phi_r=12).resolve(1000)
        assert (p.phi_r, p.phi_ref) == (12, 50)
        with pytest.raises(UsageError, match="nest"):
            SearchParams(k=10, phi_ref=5).resolve(1000)

    def test_resolve_returns_a_clamped_copy(self):
        params = SearchParams(k=7, tau=0.5, phi_c=4, pruner="base")
        p = params.resolve(20)
        assert p == SearchParams(k=7, tau=0.5, phi_c=4, phi_ref=20, phi_r=20, pruner="base")
        assert params.phi_ref is None and params.phi_r is None

    def test_k_beyond_repository_warns_and_clamps(self):
        with pytest.warns(UserWarning, match="returning all sets"):
            p = SearchParams(k=500).resolve(100)
        assert p.k == 100 and p.phi_r == 100 and p.phi_ref == 100

    def test_invalid_values(self):
        for params in (
            SearchParams(k=0),
            SearchParams(tau=0.0),
            SearchParams(tau=-1.0),
            SearchParams(tau=float("nan")),
            SearchParams(tau=1.5),
            SearchParams(phi_c=0),
            SearchParams(pruner="fast"),
        ):
            with pytest.raises(UsageError):
                params.resolve(100)

    @pytest.mark.parametrize("fields", [
        {"k": 2.5}, {"k": True}, {"k": "10"}, {"k": None}, {"phi_c": 1.5}, {"phi_c": np.bool_(True)},
        {"phi_ref": 50.0}, {"phi_r": False}, {"tau": "0.7"}, {"tau": True}, {"tau": None},
    ])
    def test_non_integral_sizes_and_non_real_tau_are_usage_errors(self, fields):
        with pytest.raises(UsageError, match="must be an integer|must be a real number"):
            SearchParams(**fields).resolve(100)

    def test_numpy_scalars_are_accepted(self):
        p = SearchParams(k=np.int64(5), tau=np.float32(0.5), phi_c=np.int32(4),
                         phi_ref=np.int16(40), phi_r=np.uint8(15)).resolve(100)
        assert (p.k, p.phi_c, p.phi_ref, p.phi_r) == (5, 4, 40, 15)


class TestClusteredScoring:
    def test_single_partition_equals_exact_unionability(self, workload, flat_engine):
        # every set a single-partition engine returns carries the exact
        # thresholded matching of the query against all of its vectors
        repo, queries, _ = workload
        n = repo.n_sets
        params = SearchParams(k=n, tau=0.7, phi_c=16, phi_ref=n, phi_r=n, pruner="bf")
        for query in queries[:6]:
            items = flat_engine.search(query, params).items
            assert len(items) >= 20
            for sid, score, card in items:
                want = unionability(query.vectors, repo.vectors_of(sid), 0.7)
                assert score == pytest.approx(want.weight, abs=1e-9)
                assert card == want.cardinality

    def test_partitioned_score_matches_whole_set_enumeration(self, workload):
        # stage 3 scores a set with unionability over all of its vectors,
        # which equals the independent exhaustive matcher
        repo, queries, _ = workload
        tau = 0.6
        rng = np.random.default_rng(0)
        checked = 0
        for query in queries[:5]:
            for sid in rng.choice(repo.n_sets, size=6, replace=False):
                sid = int(sid)
                members = repo.vectors_of(sid)
                if min(len(members), query.n_vectors) > BRUTE_FORCE_MAX_SIDE:
                    continue
                got = unionability(query.vectors, members, tau)
                want = brute_force_unionability(query.vectors, members, tau)
                assert got.weight == pytest.approx(want.weight, abs=1e-9)
                assert got.cardinality == want.cardinality
                checked += 1
        assert checked >= 20

    def test_empty_split_contributes_zero(self, workload):
        repo, queries, _ = workload
        # a tau so high that nothing matches
        res = unionability(queries[0].vectors, repo.vectors_of(3), 0.999999)
        assert res.weight == 0.0 and res.cardinality == 0

    def test_unknown_set_id(self, workload):
        repo, queries, _ = workload
        with pytest.raises(DataError, match="unknown set_id"):
            unionability(queries[0].vectors, repo.vectors_of(10_000), 0.7)
        with pytest.raises(DataError, match="unknown set_id"):
            set_bounds(queries[0].vectors, repo, [10_000], 0.7)


class TestClusteredBounds:
    def test_ub_dominates_exact_per_candidate(self, workload):
        repo, queries, _ = workload
        rng = np.random.default_rng(1)
        for query in queries[:5]:
            for sid in rng.choice(repo.n_sets, size=8, replace=False):
                sid = int(sid)
                score = unionability(query.vectors, repo.vectors_of(sid), 0.6).weight
                (lb,), (ub,) = set_bounds(query.vectors, repo, [sid], 0.6)
                assert score <= ub + 1e-9
                assert lb <= ub + 1e-9

    def test_single_edge_partition_bounds_collapse(self):
        data = generate_synthetic(3, (1, 1), 8, 3, 0.0, seed=3)
        (lb,), (ub,) = set_bounds(data.repository.vectors_of(0), data.repository, [0], 0.5)
        assert lb == pytest.approx(ub, abs=1e-9)
        assert ub == pytest.approx(1.0, abs=1e-6)


class TestSearch:
    def test_self_retrieval_ranks_first(self, workload):
        repo, _, engine = workload
        query = QueryTable(repo.vectors_of(33))
        result = engine.search(query, SearchParams(k=5, tau=0.7))
        top_sid, top_score, top_card = result.items[0]
        assert top_sid == 33
        assert top_card == repo.size_of(33)
        assert top_score == pytest.approx(repo.size_of(33), rel=1e-6)

    def test_no_pruning_pressure_equals_clustered_brute_force(self, workload):
        repo, queries, engine = workload
        n = repo.n_sets
        params = SearchParams(k=8, tau=0.7, phi_c=16, phi_ref=n, phi_r=n, pruner="bf")
        for query in queries[:5]:
            got = engine.search(query, params)
            want = brute_force_clustered_topk(engine, query, 0.7, 8)
            got_ids = [sid for sid, _, _ in got.items]
            want_ids = [sid for sid, _, _ in want]
            # candidates never touched by refinement score zero everywhere;
            # compare the positive-score prefix
            want_pos = [sid for sid, s, _ in want if s > 0]
            assert got_ids[: len(want_pos[:8])] == want_pos[:8]

    def test_stage_containment(self, workload):
        repo, queries, engine = workload
        params = SearchParams(k=5, tau=0.7, phi_c=8, phi_ref=40, phi_r=15)
        for query in queries[:5]:
            stage1 = {sid for sid, _ in engine.refine(query, params)}
            result = engine.search(query, params)
            final = {sid for sid, _, _ in result.items}
            assert final <= stage1
            assert len(final) <= 5
            assert result.diagnostics.refine_candidates <= 40
            assert result.diagnostics.filter_candidates <= 15

    def test_pruners_agree(self, workload):
        _, queries, engine = workload
        outputs = []
        for pruner in ("bf", "base", "enhanced"):
            params = SearchParams(k=6, tau=0.7, phi_c=16, phi_ref=60, phi_r=20, pruner=pruner)
            outputs.append([engine.search(q, params).items for q in queries])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_row_best_scores_never_exceed_filter_score_calls(self, workload):
        _, queries, engine = workload
        taken = 0
        for pruner in ("bf", "base", "enhanced"):
            params = SearchParams(k=5, tau=0.7, phi_c=8, phi_ref=40, phi_r=15, pruner=pruner)
            for query in queries[:8]:
                diag = engine.search(query, params).diagnostics
                assert 0 <= diag.filter_row_best_scores <= diag.filter_score_calls
                filter_line = next(l for l in diag.lines() if l.startswith("stage=filter"))
                assert f"row_best_scores={diag.filter_row_best_scores} " in filter_line
                taken += diag.filter_row_best_scores
        assert taken > 0

    def test_counters_agree(self, workload):
        _, queries, engine = workload
        for pruner in ("bf", "base", "enhanced"):
            params = SearchParams(k=5, tau=0.7, phi_c=8, phi_ref=40, phi_r=15, pruner=pruner)
            for query in queries[:8]:
                start = time.perf_counter()
                diag = engine.search(query, params).diagnostics
                wall = time.perf_counter() - start
                assert diag.filter_score_calls <= diag.refine_candidates
                assert diag.scoring_score_calls <= diag.filter_candidates <= diag.refine_candidates
                assert diag.result_count <= diag.filter_candidates
                assert sum(diag.stage_seconds.values()) <= wall
                n_query, n_slots = query.n_vectors, len(engine.postings.sets)
                assert diag.refine_events <= n_query * params.phi_c
                assert diag.refine_first_touches <= diag.refine_touches <= n_query * n_slots
                assert diag.refine_candidates <= diag.refine_first_touches

    def test_full_drain_counts_every_slot(self, workload):
        # phi_c >= n_c: every query vector drains every centroid, so stage 1
        # visits every (query vector, slot) and first-touches every set
        repo, queries, engine = workload
        owning = np.count_nonzero(np.diff(engine.postings.ptr))
        params = SearchParams(k=5, tau=0.7, phi_c=engine.codebook.n_c, phi_ref=40, phi_r=15)
        for query in queries[:4]:
            diag = engine.search(query, params).diagnostics
            assert diag.refine_events == query.n_vectors * owning
            assert diag.refine_touches == query.n_vectors * len(engine.postings.sets)
            assert diag.refine_first_touches == query.n_vectors * repo.n_sets
            assert f"touches={diag.refine_touches} first_touches={diag.refine_first_touches}" in diag.lines()[0]

    def test_exact_seconds_within_their_stage(self, workload):
        _, queries, engine = workload
        for pruner in ("bf", "base", "enhanced"):
            params = SearchParams(k=5, tau=0.7, phi_c=8, phi_ref=40, phi_r=15, pruner=pruner)
            for query in queries[:6]:
                diag = engine.search(query, params).diagnostics
                assert 0.0 < diag.filter_exact_s <= diag.stage_seconds["filter"]
                assert 0.0 < diag.score_exact_s <= diag.stage_seconds["score"]
                lines = diag.lines()
                assert f"exact_ms={1e3 * diag.filter_exact_s:.3f}" in lines[1]
                assert f"exact_ms={1e3 * diag.score_exact_s:.3f}" in lines[2]

    def test_scores_non_increasing_and_unique_ids(self, workload):
        _, queries, engine = workload
        result = engine.search(queries[0], SearchParams(k=10, tau=0.7))
        scores = [s for _, s, _ in result.items]
        ids = [sid for sid, _, _ in result.items]
        assert scores == sorted(scores, reverse=True)
        assert len(set(ids)) == len(ids)

    def test_dimension_mismatch_rejected(self, workload):
        _, _, engine = workload
        bad = QueryTable(np.eye(3, dtype=np.float32))
        with pytest.raises(DataError, match="dimension mismatch"):
            engine.search(bad, SearchParams())

    def test_one_centroid_scan_per_search(self, workload, monkeypatch):
        import tusearch.pipeline

        _, queries, engine = workload
        shapes = []
        scan = tusearch.pipeline.top_centroids

        def counting(codebook, q64, phi_c):
            shapes.append(q64.shape)
            return scan(codebook, q64, phi_c)

        monkeypatch.setattr(tusearch.pipeline, "top_centroids", counting)
        engine.search(queries[2], SearchParams(k=5, tau=0.7))
        assert shapes == [queries[2].vectors.shape]

    def test_deterministic_search(self, workload):
        _, queries, engine = workload
        params = SearchParams(k=7, tau=0.7)
        a = engine.search(queries[1], params).items
        b = engine.search(queries[1], params).items
        assert a == b


PHI_C = (4, 8)
PHI_REF = (10, 20)


@pytest.fixture(scope="module")
def pool_grid():
    """Every pruner's results at each (phi_c, phi_ref) point of a small
    grid, with ``phi_r = min(3k, phi_ref)``, and each query's exact top-k."""
    config = BenchConfig(
        n_sets=80, n_queries=6, cols_lo=3, cols_hi=7, dimension=12,
        n_topics=8, noise=0.1, seed=31, k=5, tau=0.7,
    )
    repo, queries = make_workload(config)
    engine = build_engine(repo, seed=config.seed)
    truth = [{sid for sid, _, _ in exact_topk(q.vectors, repo, config.tau, config.k)} for q in queries]
    results = {}
    for phi_c in PHI_C:
        for phi_ref in PHI_REF:
            for pruner in ("bf", "base", "enhanced"):
                params = SearchParams(
                    k=config.k, tau=config.tau, phi_c=phi_c, phi_ref=phi_ref,
                    phi_r=min(3 * config.k, phi_ref), pruner=pruner,
                )
                results[phi_c, phi_ref, pruner] = [engine.search(q, params) for q in queries]
    return results, truth


class TestPoolSizes:
    def test_recall_non_decreasing_in_probe_and_pool_sizes(self, pool_grid):
        results, truth = pool_grid

        def hits(phi_c, phi_ref):
            """True top-k sets found over the batch: recall times k and queries."""
            return sum(
                len({sid for sid, _, _ in r.items} & want)
                for r, want in zip(results[phi_c, phi_ref, "bf"], truth)
            )

        for phi_c in PHI_C:
            seq = [hits(phi_c, phi_ref) for phi_ref in PHI_REF]
            assert seq == sorted(seq)
        for phi_ref in PHI_REF:
            seq = [hits(phi_c, phi_ref) for phi_c in PHI_C]
            assert seq == sorted(seq)

    def test_pruners_make_no_more_exact_calls_than_bf(self, pool_grid):
        results, _ = pool_grid
        for phi_c in PHI_C:
            for phi_ref in PHI_REF:
                calls = {
                    pruner: sum(r.diagnostics.total_score_calls for r in results[phi_c, phi_ref, pruner])
                    for pruner in ("bf", "base", "enhanced")
                }
                assert calls["base"] <= calls["bf"]
                assert calls["enhanced"] <= calls["bf"]


class TestExactnessLimit:
    def test_single_partition_full_pool_matches_oracle(self, workload, flat_engine):
        repo, queries, _ = workload
        n = repo.n_sets
        k = 6
        params = SearchParams(k=k, tau=0.7, phi_c=16, phi_ref=n, phi_r=n, pruner="enhanced")
        for query in queries[:8]:
            result = flat_engine.search(query, params)
            truth = []
            for sid in range(n):
                res = unionability(query.vectors, repo.vectors_of(sid), 0.7)
                truth.append((sid, res.weight, res.cardinality))
            truth.sort(key=lambda t: (-t[1], -t[2], t[0]))
            want = {sid for sid, s, _ in truth[:k] if s > 0}
            got = {sid for sid, s, _ in result.items if s > 0}
            assert want <= got | {sid for sid, s, _ in truth if s == 0}
            # positive-score members must match exactly
            got_list = [sid for sid, s, _ in result.items]
            want_list = [sid for sid, s, _ in truth[:k]]
            assert got_list[: len(want)] == want_list[: len(want)]

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_sets=st.integers(2, 24),
        n_c=st.integers(2, 8),
        k=st.integers(1, 8),
        tau=st.sampled_from([0.3, 0.5, 0.7]),
    )
    def test_full_pools_match_exact_topk(self, seed, n_sets, n_c, k, tau):
        """Every centroid probed and no pool pressure in stages 1 and 2: the
        partitioned engine's top-k is the exact oracle's top-k.  Few
        centroids for up to ten columns a set put sets on all three
        partition branches."""
        data = generate_synthetic(n_sets + 1, (1, 10), 6, 4, 0.2, seed=seed)
        repo, qrepo = split_repository(data.repository, n_sets)
        query = QueryTable(qrepo.vectors_of(0))
        engine = build_engine(repo, n_c=min(n_c, repo.total_vectors), seed=seed)
        k = min(k, n_sets)
        params = SearchParams(
            k=k, tau=tau, phi_c=engine.codebook.n_c, phi_ref=n_sets, phi_r=n_sets
        )
        got = engine.search(query, params).items
        want = exact_topk(query.vectors, repo, tau, k)
        assert [sid for sid, _, _ in got] == [sid for sid, _, _ in want]
        assert all(abs(g[1] - w[1]) <= 1e-9 for g, w in zip(got, want))
