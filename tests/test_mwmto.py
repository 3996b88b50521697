"""Capacitated many-to-one matching: similarity tables, exact score, bounds."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    enumerate_mwmto,
    random_unit_rows,
    reference_partition_sims,
    reference_row_best,
    solver_pairs,
)
from tusearch.errors import InvariantError
from tusearch.matching import assignment_shift, solve_shifted_assignment, unionability
from tusearch.mwmto import (
    BoundPair,
    PartitionSimTable,
    bounds_for_mwmto,
    mwmto_exact,
    partition_sims,
)
from tusearch.partitions import PartitionGroup, PartitionIndex, PartitionSet
from tusearch.quantizer import Codebook


def table_from(rows, capacities):
    return PartitionSimTable([list(r) for r in rows], list(capacities))


def rows_of(table):
    """The table's valid entries as per-query (group_id, similarity) lists."""
    return [
        [(int(g), float(table.sims[qi, g])) for g in np.flatnonzero(table.valid[qi])]
        for qi in range(table.sims.shape[0])
    ]


def row_best_of(table):
    """The table's row-best matching as ``reference_row_best`` returns it."""
    return table.weight, table.count, table.settled, table.choice.tolist(), table.lb


def trimmed_expansion(table):
    """Each group of the table repeated ``min(capacity, reach)`` times: the
    group of each column, and the expanded similarities and valid mask."""
    copies = np.minimum(table.capacities, table.valid.sum(axis=0))
    col_group = np.repeat(np.arange(len(copies)), copies)
    return col_group, table.sims[:, col_group], table.valid[:, col_group]


def solver_result(table):
    """The assignment solver on the table's trimmed expansion."""
    _, sims, valid = trimmed_expansion(table)
    return solve_shifted_assignment(sims, valid)


def matching_of(table):
    """The matching whose score ``mwmto_exact`` returns, as query index ->
    group id: a settled table's row-best choice, else the solver's on the
    table's trimmed expansion, whose profit is the table's prepared problem
    (``test_batched_solve_equals_the_expanded_solver``).  Checks that it
    weighs that score."""
    if table.settled:
        pairs = [(qi, g) for qi, g in enumerate(table.choice.tolist()) if g >= 0]
    else:
        col_group, sims, valid = trimmed_expansion(table)
        pairs = [(qi, int(col_group[c])) for qi, c in solver_pairs(sims, valid)]
    res = mwmto_exact(table)
    assert (res.score, res.cardinality) == (float(sum(table.sims[qi, g] for qi, g in pairs)), len(pairs))
    return dict(pairs)


def random_dense_table(rng, tau=0.5):
    """Every (query, group) pair present with weight in [tau, 1]."""
    n_q = int(rng.integers(1, 7))
    n_g = int(rng.integers(1, 5))
    caps = [int(rng.integers(1, 4)) for _ in range(n_g)]
    rows = [
        [(g, float(rng.uniform(tau, 1.0))) for g in range(n_g)]
        for _ in range(n_q)
    ]
    return table_from(rows, caps)


def random_sparse_table(rng, tau=0.5):
    n_q = int(rng.integers(1, 7))
    n_g = int(rng.integers(1, 5))
    caps = [int(rng.integers(1, 4)) for _ in range(n_g)]
    rows = []
    for _ in range(n_q):
        row = [
            (g, float(rng.uniform(tau, 1.0)))
            for g in range(n_g)
            if rng.uniform() < 0.6
        ]
        rows.append(row)
    return table_from(rows, caps)


def one_set_index(groups, cascade):
    return PartitionIndex.pack([PartitionSet(0, groups, cascade)])


def random_partition_index(rng, cb, n_sets, d, max_centroids=3):
    """Sets of three shapes: singleton groups over distinct codebook ids,
    merged groups of up to ``max_centroids`` codebook ids, and cascade sets
    whose groups reference private rows (now and then mixed with a codebook
    id when ``max_centroids`` allows two)."""
    psets = []
    for sid in range(n_sets):
        kind = sid % 3
        n_groups = int(rng.integers(1, 6))
        cascade = np.empty((0, d), dtype=np.float32)
        if kind == 2:
            cascade = random_unit_rows(rng, int(rng.integers(1, 4)), d)
        groups = []
        for gid in range(n_groups):
            if kind == 0:
                cids = (int(rng.integers(cb.n_c)),)
            elif kind == 1:
                cids = tuple(sorted({int(c) for c in rng.integers(cb.n_c, size=rng.integers(1, max_centroids + 1))}))
            else:
                cids = (cb.n_c + int(rng.integers(len(cascade))),)
                if rng.uniform() < 0.3 and max_centroids > 1:
                    cids = (int(rng.integers(cb.n_c)),) + cids
            members = np.arange(int(rng.integers(1, 5)), dtype=np.int32)
            groups.append(PartitionGroup(gid, cids, members))
        psets.append(PartitionSet(sid, groups, cascade))
    return PartitionIndex.pack(psets)


class TestPartitionSims:
    def make(self):
        cents = np.array(
            [[1.0, 0.0, 0.0], [0.4, 0.0, 0.0], [0.0, 0.75, 0.0]], dtype=np.float32
        )
        cb = Codebook(cents, train_seed=0)
        groups = [
            PartitionGroup(0, (1, 2), np.array([0, 1])),
            PartitionGroup(1, (0,), np.array([2])),
        ]
        return cb, one_set_index(groups, np.empty((0, 3), dtype=np.float32))

    def test_max_over_group_centroids(self):
        cb, pindex = self.make()
        q = np.array([[0.0, 1.0, 0.0]])
        table = partition_sims(q, pindex, cb, [0], tau=0.5)[0]
        # group 0 sims: <q,c1>=0.0, <q,c2>=0.75 -> max 0.75; group 1 below tau
        assert table.valid.tolist() == [[True, False]]
        assert table.sims[0].tolist() == pytest.approx([0.75, 0.0], abs=1e-9)
        assert table.capacities.tolist() == [2, 1]

    def test_all_below_tau_gives_empty_row(self):
        cb, pindex = self.make()
        q = np.array([[0.0, 0.0, 1.0]])
        table = partition_sims(q, pindex, cb, [0], tau=0.5)[0]
        assert not table.valid.any()
        assert table.sims.tolist() == [[0.0, 0.0]]

    def test_singleton_group_is_plain_inner_product(self):
        cb, pindex = self.make()
        q = np.array([[1.0, 0.0, 0.0]])
        table = partition_sims(q, pindex, cb, [0], tau=0.5)[0]
        assert table.valid[0, 1]
        assert table.sims[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_cascade_centroids_resolved(self):
        cb, _ = self.make()
        cascade = np.array([[0.0, 0.0, 0.9]], dtype=np.float32)
        pindex = one_set_index([PartitionGroup(0, (cb.n_c,), np.array([0]))], cascade)
        q = np.array([[0.0, 0.0, 1.0]])
        table = partition_sims(q, pindex, cb, [0], tau=0.5)[0]
        assert table.valid.tolist() == [[True]]
        assert table.sims[0, 0] == pytest.approx(0.9, abs=1e-6)


class TestBatchedTables:
    """One batched product over the partition index against the per-group
    reference loop."""

    def test_tables_equal_per_group_reference(self):
        rng = np.random.default_rng(21)
        for trial in range(60):
            d = int(rng.integers(2, 6))
            cb = Codebook(random_unit_rows(rng, int(rng.integers(1, 9)), d), train_seed=0)
            pindex = random_partition_index(rng, cb, int(rng.integers(1, 13)), d)
            q = random_unit_rows(rng, int(rng.integers(1, 7)), d).astype(np.float64)
            tau = float(rng.uniform(0.05, 0.6))
            n_sets = pindex.n_sets
            pick = rng.permutation(n_sets)[: int(rng.integers(1, n_sets + 1))].tolist()
            tables = partition_sims(q, pindex, cb, pick, tau)
            assert sorted(tables) == sorted(pick)
            for sid in pick:
                pset = pindex.of(sid)
                want = reference_partition_sims(q, pset, cb, tau)
                got = tables[sid]
                assert got.sims.shape == (len(q), len(pset.groups))
                assert got.capacities.tolist() == [g.capacity for g in pset.groups]
                for g_rows, w_rows in zip(rows_of(got), want):
                    assert [g for g, _ in g_rows] == [g for g, _ in w_rows]
                    for (_, a), (_, b) in zip(g_rows, w_rows):
                        assert abs(a - b) <= 1e-12
                assert (got.sims[~got.valid] == 0.0).all()
                alone = table_from(want, [g.capacity for g in pset.groups])
                assert (got.count, got.settled) == (alone.count, alone.settled)
                assert got.choice.tolist() == alone.choice.tolist()
                for a, b in ((got.weight, alone.weight), (got.lb, alone.lb), (got.ub, alone.ub)):
                    assert abs(a - b) <= 1e-12

    def test_no_candidates_gives_no_tables(self):
        rng = np.random.default_rng(22)
        cb = Codebook(random_unit_rows(rng, 4, 3), train_seed=0)
        pindex = random_partition_index(rng, cb, 3, 3)
        assert partition_sims(random_unit_rows(rng, 2, 3), pindex, cb, [], 0.5) == {}

    def test_greedy_equals_reference_on_batched_tables(self):
        """The row-best matching behind each batched table's lower bound
        equals the per-row reference loop."""
        rng = np.random.default_rng(23)
        for _ in range(40):
            cb = Codebook(random_unit_rows(rng, 6, 3), train_seed=0)
            pindex = random_partition_index(rng, cb, 9, 3)
            q = random_unit_rows(rng, int(rng.integers(1, 8)), 3)
            for table in partition_sims(q, pindex, cb, range(9), 0.2).values():
                rows = rows_of(table)
                assert row_best_of(table) == reference_row_best(rows, table.capacities.tolist())

    def test_greedy_equals_reference_on_tied_similarities(self):
        rng = np.random.default_rng(24)
        grid = [0.5, 0.6, 0.6, 0.7, 0.7, 0.7]
        for _ in range(300):
            n_q, n_g = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            rows = [
                [(g, float(rng.choice(grid))) for g in rng.permutation(n_g) if rng.uniform() < 0.7]
                for _ in range(n_q)
            ]
            caps = [int(rng.integers(0, 3)) for _ in range(n_g)]
            assert row_best_of(table_from(rows, caps)) == reference_row_best(rows, caps)

    def test_ub_is_the_descending_pool_sum(self):
        """The upper bound sums the largest min(query vectors, set vectors)
        row maxima in descending order, and never exceeds the sum of as
        many of the pooled entries."""
        rng = np.random.default_rng(25)
        for _ in range(200):
            table = random_sparse_table(rng)
            rows = rows_of(table)
            row_max = sorted((max(s for _, s in row) if row else 0.0 for row in rows), reverse=True)
            pool = sorted((s for row in rows for _, s in row), reverse=True)
            take = min(table.sims.shape[0], table.capacities.sum())
            ub = bounds_for_mwmto(table).ub
            assert ub == float(sum(row_max[:take]))
            assert ub <= float(sum(pool[:take]))

    def test_settled_tables_equal_the_solver_bit_for_bit(self):
        """Where the row-best matching is settled, its weight is the
        solver's, compared with ==, and its cardinality too."""
        rng = np.random.default_rng(26)
        settled = 0
        for _ in range(60):
            cb = Codebook(random_unit_rows(rng, 8, 4), train_seed=0)
            pindex = random_partition_index(rng, cb, 12, 4)
            q = random_unit_rows(rng, int(rng.integers(1, 9)), 4)
            for table in partition_sims(q, pindex, cb, range(12), float(rng.uniform(0.1, 0.6))).values():
                res = mwmto_exact(table)
                assert res.row_best == table.settled
                if table.settled:
                    settled += 1
                    solved = solver_result(table)
                    assert (res.score, res.cardinality) == (solved.weight, solved.cardinality)
        assert settled > 100
        # tall tables, where numpy's pairwise column sums would differ
        for _ in range(30):
            n_q, n_g = int(rng.integers(20, 61)), int(rng.integers(1, 4))
            table = table_from([[(g, float(rng.uniform(0.5, 1.0))) for g in range(n_g)] for _ in range(n_q)],
                               [n_q] * n_g)
            assert table.settled
            assert mwmto_exact(table).score == solver_result(table).weight


    def check_against_references(self, rng, max_centroids):
        """Every batched table equals the per-group reference, and its exact
        score the solver's on its trimmed expansion, with ==.  Returns the
        indexes' largest group and the settled and solved tables seen."""
        largest = settled = solved = 0
        for _ in range(40):
            cb = Codebook(random_unit_rows(rng, 8, 4), train_seed=0)
            pindex = random_partition_index(rng, cb, 9, 4, max_centroids)
            largest = max(largest, int(np.diff(pindex.cid_ptr).max()))
            q = random_unit_rows(rng, int(rng.integers(1, 12)), 4)
            tau = float(rng.uniform(0.05, 0.5))
            for sid, table in partition_sims(q, pindex, cb, range(9), tau).items():
                want = reference_partition_sims(q, pindex.of(sid), cb, tau)
                for g_rows, w_rows in zip(rows_of(table), want):
                    assert [g for g, _ in g_rows] == [g for g, _ in w_rows]
                    assert all(abs(a - b) <= 1e-12 for (_, a), (_, b) in zip(g_rows, w_rows))
                res, ref = mwmto_exact(table), solver_result(table)
                assert (res.score, res.cardinality) == (ref.weight, ref.cardinality)
                settled += table.settled
                solved += table.profit is not None
        return largest, settled, solved

    def test_single_centroid_groups(self):
        largest, settled, solved = self.check_against_references(np.random.default_rng(27), 1)
        assert largest == 1 and settled > 50 and solved > 50

    def test_groups_of_up_to_five_centroids(self):
        largest, settled, solved = self.check_against_references(np.random.default_rng(28), 5)
        assert largest == 5 and settled > 50 and solved > 50


class TestMwmtoExact:
    def test_unconstrained_capacities_take_row_maxima(self):
        rng = np.random.default_rng(0)
        rows = [
            [(0, 0.8), (1, 0.6)],
            [(0, 0.7), (1, 0.9)],
            [(0, 0.55)],
        ]
        table = table_from(rows, [5, 5])
        res = mwmto_exact(table)
        assert res.cardinality == 3
        assert res.score == pytest.approx(0.8 + 0.9 + 0.55, abs=1e-9)

    def test_capacity_one_blocks_second_query(self):
        table = table_from([[(0, 0.9)], [(0, 0.8)]], [1])
        res = mwmto_exact(table)
        assert res.cardinality == 1
        assert res.score == pytest.approx(0.9, abs=1e-12)
        assert matching_of(table) == {0: 0}

    def test_settled_table_keeps_the_best_proposer(self):
        # three rows reach only group 0, of capacity one: keeping proposers
        # in row order would take 0.8, and the optimum takes 0.9
        rows = [[(0, 0.8)], [(0, 0.9)], [(0, 0.85)]]
        table = table_from(rows, [1])
        assert reference_row_best(rows, [1]) == (0.9, 1, True, [-1, 0, -1], 0.9)
        assert row_best_of(table) == (0.9, 1, True, [-1, 0, -1], 0.9)
        res = mwmto_exact(table)
        assert (res.score, res.cardinality, res.row_best, matching_of(table)) == (0.9, 1, True, {1: 0})
        assert enumerate_mwmto(rows, [1]) == (1, 0.9)
        # 1 - 2**-52 + W and 1 + W round to the same profit, so the solver
        # cannot tell these two apart; the settled matching keeps 1.0
        rows = [[(0, 1 - 2**-52)], [(0, 1.0)]]
        assert mwmto_exact(table_from(rows, [1])).score == enumerate_mwmto(rows, [1])[1] == 1.0

    def test_proposer_with_another_group_leaves_the_table_unsettled(self):
        # group 0 turns row 1 away for row 0, which could take group 1
        rows = [[(0, 0.9), (1, 0.85)], [(0, 0.8)]]
        table = table_from(rows, [1, 1])
        assert (table.settled, table.choice.tolist()) == (False, [0, -1])
        res = mwmto_exact(table)
        assert (res.cardinality, res.score, res.row_best) == (2, pytest.approx(1.65, abs=1e-12), False)
        assert matching_of(table) == {0: 1, 1: 0}

    def test_empty_table(self):
        for rows in ([[], []], []):
            table = table_from(rows, [2])
            res = mwmto_exact(table)
            assert (res.score, res.cardinality, matching_of(table)) == (0.0, 0, {})

    @pytest.mark.parametrize("maker", [random_dense_table, random_sparse_table])
    def test_matches_exhaustive_enumeration(self, maker):
        rng = np.random.default_rng(5 if maker is random_dense_table else 6)
        for _ in range(200):
            table = maker(rng)
            res = mwmto_exact(table)
            want_card, want_weight = enumerate_mwmto(rows_of(table), table.capacities.tolist())
            assert res.cardinality == want_card
            assert res.score == pytest.approx(want_weight, abs=1e-9)

    def test_assignment_respects_capacities(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            table = random_sparse_table(rng)
            usage = {}
            for qi, gid in matching_of(table).items():
                usage[gid] = usage.get(gid, 0) + 1
                assert table.valid[qi, gid]
            for gid, used in usage.items():
                assert used <= table.capacities[gid]

    def test_capacity_one_singletons_equal_bipartite_matching(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n_q = int(rng.integers(1, 6))
            n_g = int(rng.integers(1, 6))
            cents = random_unit_rows(rng, n_g, 5).astype(np.float64)
            q = random_unit_rows(rng, n_q, 5).astype(np.float64)
            sims = q @ cents.T
            tau = 0.2
            rows = [
                [(g, float(sims[qi, g])) for g in range(n_g) if sims[qi, g] >= tau]
                for qi in range(n_q)
            ]
            table = table_from(rows, [1] * n_g)
            res = mwmto_exact(table)
            direct = unionability(q, cents, tau)
            assert res.cardinality == direct.cardinality
            assert res.score == pytest.approx(direct.weight, abs=1e-9)


class TestBounds:
    def test_capacity_one_example(self):
        # both queries hit the same capacity-1 group; the second group has no
        # thresholded entries but its vector still counts toward the pool cap
        table = table_from([[(0, 0.9)], [(0, 0.8)]], [1, 1])
        bounds = bounds_for_mwmto(table)
        assert bounds.lb == pytest.approx(0.9, abs=1e-12)
        assert bounds.ub == pytest.approx(1.7, abs=1e-12)

    def test_pool_cap_uses_whole_set_size(self):
        # with a single one-vector set the pool keeps only the best entry
        table = table_from([[(0, 0.9)], [(0, 0.8)]], [1])
        bounds = bounds_for_mwmto(table)
        assert bounds.ub == pytest.approx(0.9, abs=1e-12)

    def test_empty_table_is_zero_zero(self):
        bounds = bounds_for_mwmto(table_from([[], []], [3]))
        assert (bounds.lb, bounds.ub) == (0.0, 0.0)

    def test_single_group_unconstrained(self):
        rows = [[(0, 0.8)], [(0, 0.6)], [(0, 0.7)]]
        table = table_from(rows, [5])
        bounds = bounds_for_mwmto(table)
        assert bounds.lb == pytest.approx(0.8 + 0.6 + 0.7, abs=1e-12)
        assert bounds.ub >= bounds.lb - 1e-12

    def test_ub_caps_at_set_size(self):
        # set has two vectors overall, so at most two pool entries count
        rows = [[(0, 0.9)], [(0, 0.8)], [(0, 0.7)]]
        table = table_from(rows, [2])
        bounds = bounds_for_mwmto(table)
        assert bounds.ub == pytest.approx(0.9 + 0.8, abs=1e-12)

    def test_sandwich_on_dense_tables(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            table = random_dense_table(rng)
            res = mwmto_exact(table)
            bounds = bounds_for_mwmto(table)
            assert bounds.lb <= res.score + 1e-9
            assert res.score <= bounds.ub + 1e-9

    def test_ub_valid_even_on_sparse_tables(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            table = random_sparse_table(rng)
            res = mwmto_exact(table)
            bounds = bounds_for_mwmto(table)
            assert bounds.lb <= res.score + 1e-9
            assert res.score <= bounds.ub + 1e-9

    def test_sandwich_on_sparse_batched_tables(self):
        """Batched tables at a high threshold, so rows miss most groups."""
        rng = np.random.default_rng(13)
        for _ in range(40):
            cb = Codebook(random_unit_rows(rng, 6, 3), train_seed=0)
            pindex = random_partition_index(rng, cb, 9, 3)
            q = random_unit_rows(rng, int(rng.integers(1, 7)), 3)
            for table in partition_sims(q, pindex, cb, range(9), 0.6).values():
                _, weight = enumerate_mwmto(rows_of(table), table.capacities.tolist())
                bounds = bounds_for_mwmto(table)
                assert bounds.lb <= weight + 1e-9
                assert weight <= bounds.ub + 1e-9

    def test_lb_valid_when_greedy_blocks_a_row(self):
        # Every row proposes its .99 group and the last row its only one,
        # group 0, which the first row already holds: 2.97 over three rows,
        # where the exact score matches all four at .7 (2.8).  Three is
        # below the four rows a matching can take, so the four row minima
        # (2.8) cap the bound.
        rows = [[(0, .99), (1, .7)], [(1, .99), (2, .7)], [(2, .99), (3, .7)], [(0, .7)]]
        table = table_from(rows, [1, 1, 1, 1])
        assert (table.weight, table.count, table.settled) == (pytest.approx(2.97, abs=1e-9), 3, False)
        exact = mwmto_exact(table)
        assert (exact.cardinality, exact.score) == (4, pytest.approx(2.8, abs=1e-9))
        assert bounds_for_mwmto(table).lb == pytest.approx(2.8, abs=1e-9)

    def test_lb_caps_greedy_only_below_the_largest_cardinality(self):
        # greedy matches one row (0.9) where two fit; the two row minima sum
        # to 1.4, above the greedy weight, so the greedy weight stands
        table = table_from([[(0, 0.9), (1, 0.6)], [(0, 0.8)]], [1, 1])
        assert bounds_for_mwmto(table).lb == pytest.approx(0.9, abs=1e-9)
        # two groups of capacity one take two rows, so no assignment matches
        # the third: the greedy weight 1.8 stands although the three row
        # minima sum to 1.05
        table = table_from([[(0, 0.9), (1, 0.1)], [(1, 0.9)], [(0, 0.05)]], [1, 1])
        assert bounds_for_mwmto(table).lb == pytest.approx(1.8, abs=1e-9)
        # below the largest cardinality, the row minima cap it
        table = table_from([[(0, 0.9), (1, 0.1)], [(0, 0.2)]], [1, 1])
        assert bounds_for_mwmto(table).lb == pytest.approx(0.3, abs=1e-9)
        assert mwmto_exact(table).score == pytest.approx(0.3, abs=1e-9)

    def test_lb_assignment_is_feasible(self):
        """The row-best matching behind the lower bound uses only valid
        entries, no group beyond its capacity, and weighs what it says."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            table = random_sparse_table(rng)
            usage = {}
            total = 0.0
            for qi, gid in enumerate(table.choice.tolist()):
                if gid < 0:
                    continue
                assert table.valid[qi, gid]
                usage[gid] = usage.get(gid, 0) + 1
                total += table.sims[qi, gid]
            for gid, used in usage.items():
                assert used <= table.capacities[gid]
            assert (table.weight, table.count) == (total, sum(usage.values()))
            assert bounds_for_mwmto(table).lb <= table.weight

    def test_greedy_breaks_ties_by_lower_group(self):
        table = table_from([[(1, 0.8), (0, 0.8)]], [1, 1])
        assert table.choice.tolist() == [0]
        assert matching_of(table) == {0: 0}

    def test_ub_monotone_in_tau(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n_q, n_g = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            sims = rng.uniform(0, 1, (n_q, n_g))
            caps = [int(rng.integers(1, 4))] * n_g
            ubs = []
            for tau in (0.2, 0.4, 0.6, 0.8):
                rows = [
                    [(g, float(sims[qi, g])) for g in range(n_g) if sims[qi, g] >= tau]
                    for qi in range(n_q)
                ]
                ubs.append(bounds_for_mwmto(table_from(rows, caps)).ub)
            assert ubs == sorted(ubs, reverse=True)

    def test_bound_pair_order_enforced(self):
        with pytest.raises(InvariantError):
            BoundPair(2.0, 1.0)


@st.composite
def capacitated_rows(draw):
    """Per-query entries over a few groups, with tied similarities, groups
    that no query reaches, and capacities above the query count."""
    n_q = draw(st.integers(1, 5))
    n_g = draw(st.integers(1, 4))
    caps = draw(st.lists(st.integers(1, 7), min_size=n_g, max_size=n_g))
    reached = draw(st.lists(st.booleans(), min_size=n_g, max_size=n_g))
    sim = st.one_of(st.sampled_from([0.5, 0.75, 1.0]), st.floats(0.5, 1.0))
    rows = [
        [(g, draw(sim)) for g in range(n_g) if reached[g] and draw(st.booleans())]
        for _ in range(n_q)
    ]
    return rows, caps


@settings(max_examples=300, deadline=None)
@given(capacitated_rows())
def test_trimmed_expansion_matches_enumeration(case):
    rows, caps = case
    table = table_from(rows, caps)
    res = mwmto_exact(table)
    want_card, want_weight = enumerate_mwmto(rows, caps)
    assert res.cardinality == want_card
    assert res.score == pytest.approx(want_weight, abs=1e-9)
    bounds = bounds_for_mwmto(table)
    assert bounds.lb <= want_weight + 1e-9
    assert want_weight <= bounds.ub + 1e-9
    used = {}
    for qi, gid in matching_of(table).items():
        assert gid in dict(rows[qi])
        used[gid] = used.get(gid, 0) + 1
    assert all(n <= caps[gid] for gid, n in used.items())


@st.composite
def mixed_batches(draw):
    """A partition index, codebook and query whose tables mix settled and contested
    ones: groups of one to five centroids, cascade rows next to codebook
    rows, tied similarities from a coarse grid, groups no query vector
    reaches and query vectors with no valid entry."""
    d = draw(st.integers(2, 4))
    coord = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-1.0, 1.0, width=32))

    def rows(n):
        vals = draw(st.lists(coord, min_size=n * d, max_size=n * d))
        return np.array(vals, dtype=np.float32).reshape(n, d)

    n_c = draw(st.integers(1, 6))
    psets = []
    for sid in range(draw(st.integers(1, 6))):
        cascade = rows(draw(st.integers(0, 3)))
        cid = st.integers(0, n_c + len(cascade) - 1)
        groups = [
            PartitionGroup(gid, tuple(draw(st.lists(cid, min_size=1, max_size=5))),
                           np.arange(draw(st.integers(1, 3)), dtype=np.int32))
            for gid in range(draw(st.integers(1, 5)))
        ]
        psets.append(PartitionSet(sid, groups, cascade))
    cb = Codebook(rows(n_c), train_seed=0)
    q = rows(draw(st.integers(1, 8))).astype(np.float64)
    return PartitionIndex.pack(psets), cb, q, draw(st.sampled_from([0.05, 0.25, 0.5, 0.75]))


def near_tie_batch():
    """One set, one group of capacity one, and two query vectors at
    1 - 2**-52 and 1.0 to it: the solver keeps the first, a settled table
    the second."""
    group = PartitionGroup(0, (0,), np.arange(1, dtype=np.int32))
    pindex = PartitionIndex.pack([PartitionSet(0, [group], np.zeros((0, 2), dtype=np.float32))])
    cb = Codebook(np.array([[1.0, 0.0]], dtype=np.float32), train_seed=0)
    return pindex, cb, np.array([[1 - 2**-52, 0.0], [1.0, 0.0]]), 0.5


@settings(max_examples=200, deadline=None)
@given(mixed_batches())
@example(near_tie_batch())
def test_batched_solve_equals_the_expanded_solver(case):
    pindex, cb, q, tau = case
    tables = partition_sims(q, pindex, cb, range(pindex.n_sets), tau)
    for table in tables.values():
        res, ref = mwmto_exact(table), solver_result(table)
        assert res.row_best == table.settled
        assert row_best_of(table) == reference_row_best(rows_of(table), table.capacities.tolist())
        matching = matching_of(table)
        if table.settled and res.score != ref.weight:
            # The solver maximizes s + W rounded to the spacing of W, so it
            # may keep the smaller of two entries closer than that, which
            # the settled matching does not (see the test of the best
            # proposer).  In exact arithmetic, the settled matching is then
            # the enumerated optimum and outweighs the solver's.
            exact = [[(g, Fraction(v)) for g, v in row] for row in rows_of(table)]
            optimum = enumerate_mwmto(exact, table.capacities.tolist())
            settled = sum(Fraction(table.sims[qi, g]) for qi, g in matching.items())
            _, sims, valid = trimmed_expansion(table)
            solved = sum(Fraction(sims[qi, c]) for qi, c in solver_pairs(sims, valid))
            assert (res.cardinality, settled) == optimum
            assert ref.cardinality == res.cardinality and solved <= settled
        else:
            assert (res.score, res.cardinality) == (ref.weight, ref.cardinality)
        if table.profit is not None:
            # the prepared problem is the solver's, bit for bit
            col_group, sims, valid = trimmed_expansion(table)
            assert table.groups.tolist() == col_group.tolist()
            shift = assignment_shift(*sims.shape, sims[valid].max())
            assert np.array_equal(table.profit, np.where(valid, sims + shift, 0.0))
        used = np.bincount(list(matching.values()), minlength=len(table.capacities))
        assert (used <= table.capacities).all()
        assert all(table.valid[qi, g] for qi, g in matching.items())
