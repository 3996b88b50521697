"""Stage-1 candidate generation, its bookkeeping guarantees, and its
equality with an event-by-event heap drain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_refine
from tusearch.errors import UsageError
from tusearch.pipeline import SearchParams, build_engine
from tusearch.quantizer import ClusterAssignment, build_indexes, top_centroids
from tusearch.refinement import RefinementTrace, refine
from tusearch.repository import QueryTable, generate_synthetic


def make_postings(assignments, n_c=None):
    """assignments: per set, list of owning centroid ids (one per vector);
    ``n_c`` above the largest owner leaves the top centroids empty."""
    weights = {}
    for sid, owners in enumerate(assignments):
        weights[sid] = {}
        for c in owners:
            weights[sid][c] = weights[sid].get(c, 0) + 1
    flat = np.array([c for owners in assignments for c in owners], dtype=np.int32)
    n_c = max(n_c or 1, int(flat.max()) + 1 if len(flat) else 1)
    offsets = np.concatenate([[0], np.cumsum([len(owners) for owners in assignments])])
    return build_indexes(ClusterAssignment(flat, offsets), n_c), weights


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


class TestEdgeCases:
    def test_no_event_touches_a_set(self):
        # centroids 1 and 2 own no vectors; centroid 0 is never probed
        postings, _ = make_postings([[0], [0]], n_c=3)
        trace = RefinementTrace()
        got = refine(2, 2, fixed_tops([[(1, 0.9)], [(2, 0.5), (1, 0.4)]]), postings,
                     phi_c=2, phi_ref=5, trace=trace)
        assert got == []
        assert trace == RefinementTrace()

    def test_no_query_vectors(self):
        postings, _ = make_postings([[0]])
        assert refine(1, 0, fixed_tops([]), postings, phi_c=1, phi_ref=5) == []

    def test_phi_c_above_n_c_probes_every_centroid(self):
        data = generate_synthetic(40, (3, 6), 8, 4, 0.2, seed=31)
        engine = build_engine(data.repository, n_c=5, seed=2)
        query = QueryTable(data.repository.vectors_of(7))
        every = engine.refine(query, SearchParams(k=5, phi_c=5, phi_ref=40))
        trace = RefinementTrace()
        assert engine.refine(query, SearchParams(k=5, phi_c=50, phi_ref=40), trace=trace) == every
        assert len(every) == 40  # every centroid probed: every set touched
        ids, sims = top_centroids(engine.codebook, query.vectors.astype(np.float64), 50)
        tops = fixed_tops([list(zip(i.tolist(), v.tolist())) for i, v in zip(ids, sims)])
        want = RefinementTrace()
        assert every == reference_refine(40, query.n_vectors, tops, engine.postings, 50, 40, want)
        assert trace == want

    def test_single_query_vector(self):
        postings, _ = make_postings([[0, 1], [1], [1, 1], [2]])
        tops = fixed_tops([[(2, 0.25), (1, 0.75), (0, 0.5)]])
        got = refine(4, 1, tops, postings, phi_c=3, phi_ref=4)
        # one query vector: one increment per set, from its best centroid
        assert got == [(0, 0.75), (1, 0.75), (2, 0.75), (3, 0.25)]
        assert got == reference_refine(4, 1, tops, postings, phi_c=3, phi_ref=4)

    def test_score_sums_in_drain_order(self):
        # 0.3 + 0.2 + 0.1 rounds differently in ascending order
        postings, _ = make_postings([[0, 0, 0]])
        tops = fixed_tops([[(0, 0.1)], [(0, 0.3)], [(0, 0.2)]])
        got = refine(1, 3, tops, postings, phi_c=1, phi_ref=1)
        assert got == [(0, (0.3 + 0.2) + 0.1)]
        assert (0.3 + 0.2) + 0.1 != (0.1 + 0.2) + 0.3

    def test_set_major_trace_lists_first_touches_in_drain_order(self):
        # every query vector drains both centroids, so the pass runs set by
        # set; the trace still lists each event's sets in drain order
        postings, _ = make_postings([[1, 1], [0, 1], [0]])
        tops = fixed_tops([[(0, 0.25), (1, 0.75)], [(1, 0.5), (0, 0.875)]])
        counts, trace = {}, RefinementTrace()
        got = refine(3, 2, tops, postings, phi_c=2, phi_ref=3, trace=trace, counts=counts)
        assert counts == {"events": 4, "touches": 2 * 4, "first_touches": 2 * 3}
        want = RefinementTrace()
        assert got == reference_refine(3, 2, tops, postings, 2, 3, want)
        assert trace == want
        # drain order: (q1, c0, .875), (q0, c1, .75), (q1, c1, .5), (q0, c0, .25)
        assert trace.accepted == [
            (1, 1, 0, 0.875), (2, 1, 0, 0.875), (0, 0, 1, 0.75), (1, 0, 1, 0.75), (0, 1, 1, 0.5),
        ]
        assert trace.blocked == [(2, 0, 0)]

    def test_ties_at_the_cut_go_to_the_lower_set_id(self):
        # set 4 leads; sets 1, 2, 5 and 7 tie behind it and the cut keeps two
        postings, _ = make_postings([[0], [1], [1], [0], [2], [1], [0], [1]])
        tops = fixed_tops([[(2, 0.875), (1, 0.5), (0, 0.25)]])
        got = refine(8, 1, tops, postings, phi_c=3, phi_ref=3)
        assert got == [(4, 0.875), (1, 0.5), (2, 0.5)]


QUARTERS = [q / 4 for q in range(-4, 5)]


@st.composite
def refinement_instances(draw):
    """Small stage-1 inputs with similarities mostly on a quarter grid (tied
    within and across query vectors, some negative) and otherwise anywhere
    in [-1, 1], so sums round; per-query lists in any order and of any
    length, centroids without vectors, and few member vectors per (set,
    centroid), so capacities bind."""
    n_c = draw(st.integers(1, 6))
    owned = draw(st.integers(1, n_c))  # centroids n_c - owned .. hold nothing
    n_sets = draw(st.integers(1, 7))
    assignments = [
        draw(st.lists(st.integers(0, owned - 1), min_size=1, max_size=5)) for _ in range(n_sets)
    ]
    n_query = draw(st.integers(1, 6))
    sim = st.one_of(st.sampled_from(QUARTERS), st.floats(-1.0, 1.0))
    per_query = [
        [(c, draw(sim))
         for c in draw(st.permutations(range(n_c)))[: draw(st.integers(0, n_c))]]
        for _ in range(n_query)
    ]
    phi_ref = draw(st.integers(1, n_sets + 1))
    return assignments, n_c, per_query, phi_ref


def check_against_heap_drain(assignments, n_c, per_query, phi_ref) -> dict:
    """``refine`` equals ``reference_refine`` in its list, its trace and its
    counts; returns the counts."""
    postings, _ = make_postings(assignments, n_c=n_c)
    n_sets, n_query = len(assignments), len(per_query)
    phi_c = max(1, max(len(r) for r in per_query))
    got_trace, want_trace, counts = RefinementTrace(), RefinementTrace(), {}
    got = refine(n_sets, n_query, fixed_tops(per_query), postings, phi_c, phi_ref, got_trace, counts=counts)
    want = reference_refine(n_sets, n_query, fixed_tops(per_query), postings, phi_c, phi_ref, want_trace)
    assert got == want
    assert got_trace.events == want_trace.events
    assert got_trace.accepted == want_trace.accepted
    assert got_trace.blocked == want_trace.blocked
    assert got_trace.used == want_trace.used
    # live events, distinct (query vector, slot) pairs, (query vector, set) chances
    distinct = {(qi, cid) for qi, cid, _ in want_trace.events}
    assert counts == {
        "events": len(want_trace.events),
        "touches": sum(len(postings[cid][0]) for _, cid in distinct),
        "first_touches": len(want_trace.accepted) + len(want_trace.blocked),
    }
    return counts


@settings(max_examples=300, deadline=None)
@given(refinement_instances())
def test_matches_heap_drain(case):
    check_against_heap_drain(*case)


@st.composite
def full_drain_instances(draw):
    """Stage-1 inputs that run set by set: every query vector lists every
    centroid, in any order, and some list one of them a second time with
    another similarity."""
    assignments, n_c, per_query, phi_ref = draw(refinement_instances())
    sim = st.one_of(st.sampled_from(QUARTERS), st.floats(-1.0, 1.0))
    full = []
    for _ in per_query:
        row = [(c, draw(sim)) for c in draw(st.permutations(range(n_c)))]
        if draw(st.booleans()):
            row.insert(draw(st.integers(0, n_c)), (draw(st.integers(0, n_c - 1)), draw(sim)))
        full.append(row)
    return assignments, n_c, full, phi_ref


@settings(max_examples=300, deadline=None)
@given(full_drain_instances())
def test_full_drain_matches_heap_drain(case):
    assignments, n_c, per_query, phi_ref = case
    counts = check_against_heap_drain(assignments, n_c, per_query, phi_ref)
    n_slots = len(make_postings(assignments, n_c=n_c)[0].sets)
    assert counts["touches"] == len(per_query) * n_slots  # the set-major form ran
