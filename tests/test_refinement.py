"""Heap-drain candidate generation and its bookkeeping guarantees."""

import numpy as np
import pytest

from tusearch.errors import UsageError
from tusearch.quantizer import SetWeightIndex, VectorInvertedIndex
from tusearch.refinement import RefinementTrace, build_postings, refine


def make_postings(assignments):
    """assignments: per set, list of owning centroid ids (one per vector)."""
    lists = {}
    weights = {}
    for sid, owners in enumerate(assignments):
        weights[sid] = {}
        for idx, c in enumerate(owners):
            lists.setdefault(c, []).append((sid, idx))
            weights[sid][c] = weights[sid].get(c, 0) + 1
    n_c = max(lists) + 1 if lists else 1
    iv = VectorInvertedIndex(
        {c: np.array(sorted(handles), dtype=np.int32) for c, handles in lists.items()},
        n_c=n_c,
    )
    return build_postings(iv, SetWeightIndex(weights)), weights


def fixed_tops(per_query):
    """per_query: list (per query vector) of (centroid, sim) lists."""
    return lambda qi: per_query[qi]


class TestRefine:
    def test_single_query_single_probe(self):
        postings, _ = make_postings([[2], [2, 2], [5]])
        tops = fixed_tops([[(2, 0.9)]])
        got = refine(3, 1, tops, postings, phi_c=1, phi_ref=10)
        # sets 0 and 1 each take one increment of 0.9; set 2 untouched
        assert got == [(0, pytest.approx(0.9)), (1, pytest.approx(0.9))]

    def test_capacity_guard_blocks_second_query_vector(self):
        # set 0 holds exactly one vector in centroid 2: the second query
        # vector drains the same centroid but cannot add a second increment
        postings, weights = make_postings([[2]])
        tops = fixed_tops([[(2, 0.9)], [(2, 0.8)]])
        trace = RefinementTrace()
        got = refine(1, 2, tops, postings, phi_c=1, phi_ref=10, trace=trace)
        assert got == [(0, pytest.approx(0.9))]
        assert trace.accepted == [(0, 0, 2, pytest.approx(0.9))]
        assert trace.blocked == [(0, 1, 2)]
        assert trace.used[(0, 2)] == 1 == weights[0][2]

    def test_each_query_vector_contributes_at_most_once_per_set(self):
        # one set spread over two centroids; the same query vector reaches it
        # through both, only the higher-similarity event lands
        postings, _ = make_postings([[1, 3]])
        tops = fixed_tops([[(1, 0.9), (3, 0.8)]])
        got = refine(1, 1, tops, postings, phi_c=2, phi_ref=10)
        assert got == [(0, pytest.approx(0.9))]

    def test_visited_mark_spends_chance_even_when_blocked(self):
        # query vector 1's best event is capacity-blocked; it may not retry
        # on its weaker event
        postings, _ = make_postings([[2, 7]])
        tops = fixed_tops([[(2, 0.9)], [(2, 0.85), (7, 0.5)]])
        strict = refine(1, 2, tops, postings, phi_c=2, phi_ref=10)
        assert strict == [(0, pytest.approx(0.9))]

    def test_phi_ref_truncates_ranking(self):
        postings, _ = make_postings([[0], [1], [2]])
        tops = fixed_tops([[(0, 0.3), (1, 0.8), (2, 0.5)]])
        got = refine(3, 1, tops, postings, phi_c=3, phi_ref=2)
        assert got == [(1, pytest.approx(0.8)), (2, pytest.approx(0.5))]

    def test_phi_ref_beyond_touched_returns_all_touched(self):
        postings, _ = make_postings([[0], [1], [2]])
        tops = fixed_tops([[(0, 0.3), (1, 0.8)]])
        got = refine(3, 1, tops, postings, phi_c=2, phi_ref=50)
        assert [sid for sid, _ in got] == [1, 0]

    def test_score_ties_rank_by_lower_set_id(self):
        postings, _ = make_postings([[4], [4]])
        tops = fixed_tops([[(4, 0.6)]])
        got = refine(2, 1, tops, postings, phi_c=1, phi_ref=2)
        assert [sid for sid, _ in got] == [0, 1]

    def test_negative_similarities_participate(self):
        postings, _ = make_postings([[0]])
        tops = fixed_tops([[(0, -0.4)]])
        got = refine(1, 1, tops, postings, phi_c=1, phi_ref=5)
        assert got == [(0, pytest.approx(-0.4))]

    def test_invalid_params(self):
        postings, _ = make_postings([[0]])
        with pytest.raises(UsageError):
            refine(1, 1, fixed_tops([[(0, 0.5)]]), postings, phi_c=0, phi_ref=5)
        with pytest.raises(UsageError):
            refine(1, 1, fixed_tops([[(0, 0.5)]]), postings, phi_c=1, phi_ref=0)


class TestBookkeeping:
    def random_instance(self, seed):
        rng = np.random.default_rng(seed)
        n_sets = int(rng.integers(2, 8))
        n_c = int(rng.integers(2, 6))
        assignments = [
            list(rng.integers(0, n_c, size=int(rng.integers(1, 6))))
            for _ in range(n_sets)
        ]
        postings, weights = make_postings(assignments)
        n_query = int(rng.integers(1, 5))
        per_query = []
        for _ in range(n_query):
            cids = rng.permutation(n_c)[: int(rng.integers(1, n_c + 1))]
            per_query.append([(int(c), float(rng.uniform(-1, 1))) for c in cids])
        return postings, weights, per_query, n_sets, n_query

    def test_traced_invariants_hold(self):
        for seed in range(60):
            postings, weights, per_query, n_sets, n_query = self.random_instance(seed)
            trace = RefinementTrace()
            phi_c = max(len(r) for r in per_query)
            refine(
                n_sets, n_query, fixed_tops(per_query), postings,
                phi_c=phi_c, phi_ref=n_sets, trace=trace,
            )
            # capacity never exceeded
            for (sid, cid), used in trace.used.items():
                assert used <= weights[sid].get(cid, 0)
            # each (set, query vector) pair contributes at most one increment
            pairs = [(sid, qi) for sid, qi, _, _ in trace.accepted]
            assert len(pairs) == len(set(pairs))
            # drain order is non-increasing in similarity
            sims = [s for _, _, s in trace.events]
            assert all(a >= b - 1e-12 for a, b in zip(sims, sims[1:]))
            # total increments per set stay within min(|V_Q|, |V_i|)
            per_set = {}
            for sid, _, _, _ in trace.accepted:
                per_set[sid] = per_set.get(sid, 0) + 1
            for sid, n in per_set.items():
                size = sum(weights[sid].values())
                assert n <= min(n_query, size)

    def test_deterministic(self):
        postings, _, per_query, n_sets, n_query = self.random_instance(99)
        phi_c = max(len(r) for r in per_query)
        a = refine(n_sets, n_query, fixed_tops(per_query), postings, phi_c=phi_c, phi_ref=n_sets)
        b = refine(n_sets, n_query, fixed_tops(per_query), postings, phi_c=phi_c, phi_ref=n_sets)
        assert a == b
