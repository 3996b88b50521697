"""Oracle, recall, and bench harness."""

import numpy as np
import pytest

from tusearch.bundle import component_sizes, save_bundle
from tusearch.errors import UsageError
from tusearch.evaluation import (
    BenchConfig,
    index_component_bytes,
    make_workload,
    oracle_topk,
    recall,
    run_bench,
)
from tusearch.pipeline import build_engine
from tusearch.repository import QueryTable, generate_synthetic


@pytest.fixture(scope="module")
def small_world():
    data = generate_synthetic(60, (3, 7), 12, 8, 0.1, seed=31)
    repo = data.repository
    queries = [QueryTable(repo.vectors_of(i)) for i in (2, 11, 40)]
    return repo, queries


class TestOracle:
    def test_self_retrieval_first(self, small_world):
        repo, _ = small_world
        query = QueryTable(repo.vectors_of(11))
        top = oracle_topk(query, repo, 0.7, 3)
        assert top[0][0] == 11
        assert top[0][2] == repo.size_of(11)

    def test_k_equal_n_gives_total_order(self, small_world):
        repo, queries = small_world
        ranking = oracle_topk(queries[0], repo, 0.7, repo.n_sets)
        assert len(ranking) == repo.n_sets
        assert {sid for sid, _, _ in ranking} == set(range(repo.n_sets))
        scores = [s for _, s, _ in ranking]
        assert scores == sorted(scores, reverse=True)


class TestRecall:
    def test_full_overlap(self):
        assert recall({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_disjoint(self):
        assert recall({1, 2}, {3, 4}) == 0.0

    def test_partial(self):
        truth = set(range(10))
        retrieved = set(range(7)) | {100, 101, 102}
        assert recall(retrieved, truth) == pytest.approx(0.7)

    def test_empty_truth_rejected(self):
        with pytest.raises(UsageError):
            recall({1}, set())


class TestBenchConfig:
    def test_round_trip(self):
        config = BenchConfig(n_sets=123, phi_c_grid=[2, 8], noise=0.22)
        again = BenchConfig.from_json(config.to_json())
        assert again == config

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError, match="unknown"):
            BenchConfig.from_json('{"n_sets": 10, "bogus": 1}')

    def test_bad_method_rejected(self):
        config = BenchConfig(methods=["base", "fancy"])
        with pytest.raises(UsageError, match="fancy"):
            config.validate()


@pytest.fixture(scope="module")
def report():
    config = BenchConfig(
        n_sets=80, n_queries=6, cols_lo=3, cols_hi=7, dimension=12,
        n_topics=8, noise=0.1, seed=31, k=5, tau=0.7,
        phi_c_grid=[4, 8], phi_ref_multiples=[2, 4],
        methods=["bf", "base", "enhanced"], reps=2, warmup=1,
    )
    return run_bench(config)


class TestRunBench:

    def test_row_count_is_grid_times_methods(self, report):
        assert len(report.rows) == 2 * 2 * 3

    def test_recall_identical_across_methods_per_point(self, report):
        by_point = {}
        for row in report.rows:
            by_point.setdefault((row["phi_c"], row["phi_ref"]), []).append(row["recall"])
        for recalls in by_point.values():
            assert len(set(recalls)) == 1

    def test_latencies_positive(self, report):
        for row in report.rows:
            assert row["p50_ms"] > 0
            assert row["p95_ms"] >= row["p50_ms"]

    def test_recall_trends_over_pool_and_probe_sizes(self, report):
        by_method = [r for r in report.rows if r["method"] == "bf"]
        # non-decreasing in phi_ref at fixed phi_c, and in phi_c at fixed phi_ref
        for phi_c in {r["phi_c"] for r in by_method}:
            seq = [r["recall"] for r in sorted(
                (r for r in by_method if r["phi_c"] == phi_c), key=lambda r: r["phi_ref"]
            )]
            assert seq == sorted(seq)
        for phi_ref in {r["phi_ref"] for r in by_method}:
            seq = [r["recall"] for r in sorted(
                (r for r in by_method if r["phi_ref"] == phi_ref), key=lambda r: r["phi_c"]
            )]
            assert all(b >= a - 1e-9 for a, b in zip(seq, seq[1:]))

    def test_pruned_methods_call_less_than_bf(self, report):
        by_point = {}
        for row in report.rows:
            by_point.setdefault((row["phi_c"], row["phi_ref"]), {})[row["method"]] = row
        for point in by_point.values():
            assert point["base"]["score_calls"] <= point["bf"]["score_calls"]
            assert point["enhanced"]["score_calls"] <= point["bf"]["score_calls"]

    def test_report_serializations(self, report):
        tsv = report.to_tsv()
        lines = tsv.strip().splitlines()
        assert lines[0].split("\t")[0] == "method"
        assert len(lines) == len(report.rows) + 1
        jsonl = report.to_jsonl()
        assert jsonl.count('"record": "point"') == len(report.rows)
        assert '"record": "meta"' in jsonl

    def test_index_bytes_accounting(self, report):
        sizes = report.index_bytes
        quantized = sizes["codebook"] + sizes["assignment"] + sizes["partitions"]
        assert quantized < sizes["raw_vectors"]


class TestWorkload:
    def test_make_workload_split(self):
        config = BenchConfig(n_sets=50, n_queries=5, cols_lo=3, cols_hi=6,
                             dimension=8, n_topics=5, noise=0.1, seed=2)
        repo, queries = make_workload(config)
        assert repo.n_sets == 50
        assert len(queries) == 5

    def test_component_bytes_on_engine(self, tmp_path):
        data = generate_synthetic(40, (3, 6), 8, 5, 0.1, seed=3)
        engine = build_engine(data.repository, seed=1)
        sizes = index_component_bytes(engine)
        assert set(sizes) == {"raw_vectors", "codebook", "assignment", "partitions"}
        on_disk = component_sizes(save_bundle(tmp_path / "b", engine))
        for name in ("codebook.f32", "assignment.i32", "partitions.bin"):
            assert sizes[name.split(".")[0]] == on_disk[name]
        assert sizes["raw_vectors"] == on_disk["repository.f32"]
