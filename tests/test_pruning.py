"""Double-ended queue behavior and lossless top-m pruning."""

import math

import numpy as np
import pytest

from oracles import NaiveDepqModel
from tusearch.errors import UsageError
from tusearch.pruning import (
    BOUND_SLACK,
    BoundedCandidate,
    DoubleEndedQueue,
    base_prune,
    enhanced_prune,
    exhaustive_rank,
    run_pruner,
)


def random_candidates(rng, n, spread=0.3):
    """Candidate list with valid bounds built around hidden true scores."""
    ids = rng.permutation(10 * n)[:n]
    scores = {}
    bounds = {}
    for sid in ids:
        s = float(rng.uniform(0, 1))
        lo = s - float(rng.uniform(0, spread))
        hi = s + float(rng.uniform(0, spread))
        scores[int(sid)] = s
        bounds[int(sid)] = (lo, hi)
    order = [int(s) for s in ids]
    return order, bounds, scores


def counted(fn):
    calls = [0]

    def wrapper(sid):
        calls[0] += 1
        return fn(sid)

    return wrapper, calls


class TestDoubleEndedQueue:
    def test_three_element_extremes(self):
        q = DoubleEndedQueue()
        q.insert(BoundedCandidate(1, lb=0.2, ub=0.9))
        q.insert(BoundedCandidate(2, lb=0.1, ub=0.5))
        q.insert(BoundedCandidate(3, lb=0.3, ub=0.7))
        assert q.min_lb().set_id == 2
        assert q.min_ub().set_id == 2
        assert q.extract_max_ub().set_id == 1
        assert len(q) == 2

    def test_removed_never_surfaces(self):
        q = DoubleEndedQueue()
        for sid in range(5):
            q.insert(BoundedCandidate(sid, lb=sid / 10, ub=1 - sid / 10))
        q.remove(0)  # has the max ub
        seen = [q.extract_max_ub().set_id for _ in range(len(q))]
        assert 0 not in seen
        assert seen == [1, 2, 3, 4]

    def test_empty_queue_signals(self):
        q = DoubleEndedQueue()
        q.insert(BoundedCandidate(7, lb=0.0, ub=1.0))
        q.remove(7)
        for op in (q.min_lb, q.min_ub, q.extract_max_ub):
            with pytest.raises(IndexError):
                op()

    def test_duplicate_insert_rejected(self):
        q = DoubleEndedQueue()
        q.insert(BoundedCandidate(7, lb=0.0, ub=1.0))
        with pytest.raises(UsageError):
            q.insert(BoundedCandidate(7, lb=0.5, ub=0.6))

    def test_remove_unknown_rejected(self):
        q = DoubleEndedQueue()
        with pytest.raises(UsageError):
            q.remove(3)

    def test_reinsert_after_removal(self):
        q = DoubleEndedQueue()
        q.insert(BoundedCandidate(1, lb=0.9, ub=0.95))
        q.remove(1)
        q.insert(BoundedCandidate(1, lb=0.1, ub=0.2))
        assert q.min_lb().lb == pytest.approx(0.1)

    def _run_against_model(self, n_ops, seed, max_live=128):
        rng = np.random.default_rng(seed)
        q = DoubleEndedQueue()
        model = NaiveDepqModel()
        next_id = 0
        for _ in range(n_ops):
            choice = rng.uniform()
            if len(model) == 0 or (choice < 0.45 and len(model) < max_live):
                lb = float(rng.uniform(0, 1))
                ub = lb + float(rng.uniform(0, 1))
                q.insert(BoundedCandidate(next_id, lb=lb, ub=ub))
                model.insert(next_id, lb, ub)
                next_id += 1
            elif choice < 0.6:
                got = q.extract_max_ub().set_id
                assert got == model.extract_max_ub()
            elif choice < 0.75:
                sid = model.min_lb() if rng.uniform() < 0.5 else model.min_ub()
                q.remove(sid)
                model.remove(sid)
            else:
                assert q.min_lb().set_id == model.min_lb()
                assert q.min_ub().set_id == model.min_ub()
            assert len(q) == len(model)
        return q, next_id

    def test_model_equivalence_small(self):
        self._run_against_model(4000, seed=0)

    def test_amortized_heap_ops(self):
        n_ops = 20_000
        q, _ = self._run_against_model(n_ops, seed=1, max_live=256)
        # every logical op costs O(log n) sifts amortized: pushes are 3 per
        # insert, and each pushed entry is popped at most once
        bound = 8 * n_ops * max(1.0, math.log2(258))
        assert q.op_count <= bound


class TestBasePrune:
    def test_tight_bounds_equal_exhaustive(self):
        rng = np.random.default_rng(2)
        order, _, scores = random_candidates(rng, 60)
        bound_fn = lambda sid: (scores[sid], scores[sid])
        got, _ = base_prune(order, 10, bound_fn, scores.__getitem__)
        want, _ = exhaustive_rank(order, 10, scores.__getitem__)
        assert got == want

    def test_fully_dominated_tail_costs_m_calls(self):
        # first m candidates score near 1; everyone after has ub below all
        # resolved scores, so exactly m score calls happen
        m = 5
        order = list(range(20))
        scores = {sid: (0.9 + sid / 100 if sid < m else 0.1) for sid in order}
        bound_fn = lambda sid: (0.05, 0.2)
        score_fn, calls = counted(scores.__getitem__)
        got, stats = base_prune(order, m, bound_fn, score_fn)
        assert calls[0] == m
        assert stats.score_calls == m
        assert {sid for sid, _ in got} == set(range(m))

    def test_matches_exhaustive_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            n = int(rng.integers(1, 80))
            m = int(rng.integers(1, 20))
            order, bounds, scores = random_candidates(rng, n)
            got, _ = base_prune(order, m, bounds.__getitem__, scores.__getitem__)
            want, _ = exhaustive_rank(order, m, scores.__getitem__)
            assert got == want

    def test_score_tie_breaks_by_lower_set_id(self):
        order = [9, 4, 7]
        scores = {9: 0.5, 4: 0.5, 7: 0.5}
        bounds = {sid: (0.5, 0.5) for sid in order}
        got, _ = base_prune(order, 2, bounds.__getitem__, scores.__getitem__)
        assert [sid for sid, _ in got] == [4, 7]

    def test_m_must_be_positive(self):
        with pytest.raises(UsageError):
            base_prune([], 0, lambda s: (0, 0), lambda s: 0)


class TestEnhancedPrune:
    def test_m_at_least_candidates_scores_everything(self):
        rng = np.random.default_rng(4)
        order, bounds, scores = random_candidates(rng, 12)
        score_fn, calls = counted(scores.__getitem__)
        got, stats = enhanced_prune(order, 20, bounds.__getitem__, score_fn)
        assert calls[0] == len(order)
        want, _ = exhaustive_rank(order, 20, scores.__getitem__)
        assert got == want

    def test_disjoint_intervals_cost_exactly_m_calls(self):
        # bounds are pairwise disjoint, so bound order equals score order and
        # only the true top-m ever get scored, whatever the arrival order
        rng = np.random.default_rng(5)
        n, m = 40, 7
        ids = list(range(n))
        scores = {sid: 10.0 * (n - sid) for sid in ids}
        bounds = {sid: (scores[sid] - 1, scores[sid] + 1) for sid in ids}
        for trial in range(5):
            order = list(rng.permutation(ids))
            score_fn, calls = counted(scores.__getitem__)
            got, _ = enhanced_prune(order, m, bounds.__getitem__, score_fn)
            assert calls[0] == m
            assert [sid for sid, _ in got] == ids[:m]

    def test_heap_ops_count_one_push_per_candidate_and_each_pop(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(1, 60))
            m = int(rng.integers(1, 15))
            order, bounds, scores = random_candidates(rng, n)
            _, stats = enhanced_prune(order, m, bounds.__getitem__, scores.__getitem__)
            # the pop that meets a dominated bound is counted, then stops
            stopped = stats.score_calls < n
            assert stats.heap_ops == n + stats.score_calls + stopped

    def test_matches_exhaustive_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(150):
            n = int(rng.integers(1, 80))
            m = int(rng.integers(1, 20))
            order, bounds, scores = random_candidates(rng, n)
            got, _ = enhanced_prune(order, m, bounds.__getitem__, scores.__getitem__)
            want, _ = exhaustive_rank(order, m, scores.__getitem__)
            assert got == want

    def test_never_scores_more_than_once_per_candidate(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            m = int(rng.integers(1, 15))
            order, bounds, scores = random_candidates(rng, n)
            seen = []
            def score_fn(sid):
                seen.append(sid)
                return scores[sid]
            _, stats = enhanced_prune(order, m, bounds.__getitem__, score_fn)
            assert len(seen) == len(set(seen))
            assert stats.score_calls == len(seen) <= n

    def test_discards_are_justified_by_resolved_scores(self):
        # every candidate a pruner leaves unscored must have an upper bound,
        # plus the slack, below the m-th score it returns
        rng = np.random.default_rng(8)
        unscored = 0
        for _ in range(40):
            n = int(rng.integers(5, 80))
            m = int(rng.integers(1, 10))
            order, bounds, scores = random_candidates(rng, n)
            for prune in (base_prune, enhanced_prune):
                seen = set()
                ranked, _ = prune(order, m, bounds.__getitem__, lambda sid: seen.add(sid) or scores[sid])
                mth = ranked[-1][1]
                for sid in set(order) - seen:
                    assert len(ranked) == m
                    assert bounds[sid][1] + BOUND_SLACK < mth
                    unscored += 1
        assert unscored > 0

    def test_scores_the_descending_upper_bound_prefix(self):
        # scores and bounds on a coarse grid, so upper bounds tie; some upper
        # bounds sit up to BOUND_SLACK below the score they bound
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            m = int(rng.integers(1, 15))
            ids = [int(s) for s in rng.permutation(10 * n)[:n]]
            scores = {sid: float(rng.integers(0, 20)) / 20 for sid in ids}
            bounds = {}
            for sid in ids:
                if rng.uniform() < 0.2:
                    ub = scores[sid] - float(rng.uniform(0, BOUND_SLACK / 2))
                else:
                    ub = scores[sid] + float(rng.integers(0, 6)) / 20
                bounds[sid] = (scores[sid] - 0.1, ub)
            # the prefix of the (-ub, id) order before the first upper bound
            # that m resolved scores exceed by more than the slack
            prefix = []
            resolved = []
            for sid in sorted(ids, key=lambda s: (-bounds[s][1], s)):
                if len(resolved) >= m and bounds[sid][1] + BOUND_SLACK < sorted(resolved)[-m]:
                    break
                prefix.append(sid)
                resolved.append(scores[sid])
            seen = []
            got, stats = enhanced_prune(ids, m, bounds.__getitem__, lambda sid: seen.append(sid) or scores[sid])
            assert seen == prefix
            assert stats.score_calls == len(prefix)
            assert got == exhaustive_rank(ids, m, scores.__getitem__)[0]
            _, base_stats = base_prune(ids, m, bounds.__getitem__, scores.__getitem__)
            assert stats.score_calls <= base_stats.score_calls

    def test_suite_level_work_reduction_on_unordered_streams(self):
        rng = np.random.default_rng(9)
        base_calls = []
        enh_calls = []
        for _ in range(100):
            order, bounds, scores = random_candidates(rng, 300, spread=0.15)
            m = 30
            _, sb = base_prune(order, m, bounds.__getitem__, scores.__getitem__)
            _, se = enhanced_prune(order, m, bounds.__getitem__, scores.__getitem__)
            base_calls.append(sb.score_calls)
            enh_calls.append(se.score_calls)
        assert float(np.mean(enh_calls)) <= float(np.mean(base_calls))


class TestCrossStrategy:
    def test_all_three_agree(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(1, 120))
            m = int(rng.integers(1, 25))
            order, bounds, scores = random_candidates(rng, n)
            bf, _ = exhaustive_rank(order, m, scores.__getitem__)
            bp, _ = run_pruner("base", order, m, bounds.__getitem__, scores.__getitem__)
            ep, _ = run_pruner("enhanced", order, m, bounds.__getitem__, scores.__getitem__)
            assert bf == bp == ep

    def test_bound_rounded_below_a_tied_score_keeps_the_lower_id(self):
        # set 3 ties set 5 exactly, but its bound was summed in another order
        # and sits one ulp below the score it bounds
        s = 2.5361
        scores = {5: s, 3: s, 9: 0.4}
        bounds = {5: (s, s), 3: (s - 0.1, float(np.nextafter(s, -np.inf))), 9: (0.3, 0.5)}
        for name in ("bf", "base", "enhanced"):
            got, _ = run_pruner(name, [5, 3, 9], 1, bounds.__getitem__, scores.__getitem__)
            assert got == [(3, s)], name

    def test_unknown_pruner(self):
        with pytest.raises(UsageError):
            run_pruner("hybrid", [], 1, None, None)
