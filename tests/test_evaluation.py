"""Oracle, recall, and the criteria workload."""

import pytest

from tusearch.errors import UsageError
from tusearch.evaluation import BenchConfig, make_workload, recall
from tusearch.matching import exact_topk
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
        top = exact_topk(query.vectors, repo, 0.7, 3)
        assert top[0][0] == 11
        assert top[0][2] == repo.size_of(11)

    def test_k_equal_n_gives_total_order(self, small_world):
        repo, queries = small_world
        ranking = exact_topk(queries[0].vectors, repo, 0.7, repo.n_sets)
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


class TestWorkload:
    def test_make_workload_split(self):
        config = BenchConfig(n_sets=50, n_queries=5, cols_lo=3, cols_hi=6,
                             dimension=8, n_topics=5, noise=0.1, seed=2)
        repo, queries = make_workload(config)
        assert repo.n_sets == 50
        assert len(queries) == 5
