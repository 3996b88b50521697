"""Acceptance suite: every release gate in one module, one test per
criterion, each printing a single PASS line with its measured numbers.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math

import numpy as np
import pytest

from oracles import NaiveDepqModel, enumerate_mwmto, sets_from_sims
from tusearch.bundle import component_sizes, load_bundle, save_bundle
from tusearch.evaluation import (
    BenchConfig,
    ground_truth_rankings,
    make_workload,
    recall,
)
from tusearch.matching import brute_force_unionability, unionability
from tusearch.mwmto import PartitionSimTable, bounds_for_mwmto, mwmto_exact
from tusearch.partitions import build_partition_index, dispersion
from tusearch.pipeline import SearchParams, build_engine
from tusearch.pruning import (
    BoundedCandidate,
    DoubleEndedQueue,
    base_prune,
    enhanced_prune,
    exhaustive_rank,
)
from tusearch.quantizer import ClusterAssignment, Codebook, build_indexes
from tusearch.refinement import RefinementTrace, refine
from tusearch.repository import VectorSetRepository


def ok(line: str) -> None:
    print(f"\n[PASS] {line}")


@pytest.fixture(scope="module")
def default_workload():
    """The default synthetic workload: 2000 sets, 50 queries, exact ground
    truth, and an engine built with the default configuration."""
    config = BenchConfig()
    repo, queries = make_workload(config)
    engine = build_engine(repo, seed=config.seed)
    truth = ground_truth_rankings(queries, repo, config.tau, config.k)
    return config, repo, queries, engine, truth


def test_criterion_1_exact_matching_oracle_equivalence():
    """Assignment-solver scores match exhaustive enumeration on 1000 random
    instances, sides up to 7, weights uniform in [tau, 1]."""
    rng = np.random.default_rng(101)
    taus = [0.3, 0.5, 0.7]
    mismatches = 0
    for trial in range(1000):
        tau = taus[trial % 3]
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        sims = rng.uniform(tau, 1.0, (m, n))
        q, v = sets_from_sims(sims)
        got = unionability(q, v, tau)
        want = brute_force_unionability(q, v, tau)
        if got.cardinality != want.cardinality or abs(got.weight - want.weight) > 1e-9:
            mismatches += 1
    assert mismatches == 0
    ok("criterion 1: exact matching equals brute force on 1000 instances "
       f"(taus {taus}, tolerance 1e-9, mismatches {mismatches})")


def test_criterion_2_capacitated_bounds_sandwich():
    """Greedy lower bound <= exact capacitated score <= pooled upper bound on
    1000 instances, exact score verified against exhaustive enumeration."""
    rng = np.random.default_rng(202)
    violations = 0
    for _ in range(1000):
        tau = 0.5
        n_q = int(rng.integers(1, 7))
        n_g = int(rng.integers(1, 5))
        caps = [int(rng.integers(1, 4)) for _ in range(n_g)]
        rows = [
            [(g, float(rng.uniform(tau, 1.0))) for g in range(n_g)]
            for _ in range(n_q)
        ]
        table = PartitionSimTable(rows, caps)
        res = mwmto_exact(table)
        want_card, want_weight = enumerate_mwmto(rows, caps)
        bounds = bounds_for_mwmto(table)
        if res.cardinality != want_card or abs(res.score - want_weight) > 1e-9:
            violations += 1
        if not (bounds.lb <= res.score + 1e-9 and res.score <= bounds.ub + 1e-9):
            violations += 1
    assert violations == 0
    ok("criterion 2: lb <= exact capacitated score <= ub on 1000 instances, "
       f"exact score equals enumeration (tolerance 1e-9, violations {violations})")


def test_criterion_3_pruning_losslessness():
    """bf, base, and enhanced return identical top-m sets on 500 random
    bound-equipped candidate lists."""
    rng = np.random.default_rng(303)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(1, 501))
        m = int(rng.integers(1, 51))
        ids = [int(s) for s in rng.permutation(5 * n)[:n]]
        scores = {sid: float(rng.uniform(0, 1)) for sid in ids}
        bounds = {
            sid: (scores[sid] - float(rng.uniform(0, 0.3)),
                  scores[sid] + float(rng.uniform(0, 0.3)))
            for sid in ids
        }
        bf, _ = exhaustive_rank(ids, m, scores.__getitem__)
        bp, _ = base_prune(ids, m, bounds.__getitem__, scores.__getitem__)
        ep, _ = enhanced_prune(ids, m, bounds.__getitem__, scores.__getitem__)
        if not (bf == bp == ep):
            mismatches += 1
    assert mismatches == 0
    ok(f"criterion 3: bf/base/enhanced identical top-m on 500 lists (mismatches {mismatches})")


def test_criterion_4_pruning_work_reduction(default_workload):
    """On the default workload at the standard operating point, the deferred
    strategy needs at most 0.9x the exact-score computations of the
    streaming one (suite-level mean)."""
    config, repo, queries, engine, _ = default_workload
    base_calls = []
    enhanced_calls = []
    for query in queries:
        pb = SearchParams(k=config.k, tau=config.tau, phi_c=32, pruner="base")
        pe = SearchParams(k=config.k, tau=config.tau, phi_c=32, pruner="enhanced")
        base_calls.append(engine.search(query, pb).diagnostics.total_score_calls)
        enhanced_calls.append(engine.search(query, pe).diagnostics.total_score_calls)
    mean_base = float(np.mean(base_calls))
    mean_enhanced = float(np.mean(enhanced_calls))
    assert mean_enhanced <= 0.9 * mean_base
    ok("criterion 4: mean exact-score calls enhanced "
       f"{mean_enhanced:.1f} <= 0.9 x base {mean_base:.1f} "
       f"(ratio {mean_enhanced / mean_base:.3f})")


def test_criterion_5_pipeline_exactness_limit():
    """Single-partition build, every centroid probed, no pool pressure: the
    pipeline's top-k equals the exact oracle's top-k for 50 queries on a
    500-set repository."""
    config = BenchConfig(n_sets=500, n_queries=50)
    repo, queries = make_workload(config)
    engine = build_engine(repo, seed=config.seed, single_partition=True)
    truth = ground_truth_rankings(queries, repo, config.tau, config.k)
    n = repo.n_sets
    k = config.k
    params = SearchParams(
        k=k, tau=config.tau, phi_c=engine.codebook.n_c,
        phi_ref=n, phi_r=n, pruner="enhanced",
    )
    mismatches = 0
    for qi, query in enumerate(queries):
        got = [sid for sid, _, _ in engine.search(query, params).items]
        want = [sid for sid, _, _ in truth[qi][:k]]
        if got != want:
            mismatches += 1
    assert mismatches == 0
    ok(f"criterion 5: pipeline top-{k} equals oracle top-{k} for 50 queries "
       f"on {n} sets (mismatches {mismatches})")


def test_criterion_6_recall_monotone_in_refinement_pool(default_workload):
    """Mean recall@10 is non-decreasing across phi_ref in {k,2k,3k,5k,10k}
    at fixed phi_c and reaches at least 0.9 at 10k."""
    config, repo, queries, engine, truth = default_workload
    k = config.k
    truth_topk = [set(sid for sid, _, _ in r[:k]) for r in truth]
    means = []
    for mult in (1, 2, 3, 5, 10):
        phi_ref = mult * k
        params = SearchParams(
            k=k, tau=config.tau, phi_c=32,
            phi_ref=phi_ref, phi_r=min(3 * k, phi_ref), pruner="enhanced",
        )
        recalls = [
            recall([sid for sid, _, _ in engine.search(q, params).items], truth_topk[qi])
            for qi, q in enumerate(queries)
        ]
        means.append(float(np.mean(recalls)))
    assert all(b >= a - 1e-12 for a, b in zip(means, means[1:])), means
    assert means[-1] >= 0.9, means
    ok("criterion 6: mean recall@10 non-decreasing over phi_ref sweep "
       f"{[round(m, 3) for m in means]}, reaching {means[-1]:.3f} >= 0.9")


def test_criterion_7_depq_model_equivalence():
    """100k randomized queue operations match a naive list-scan model
    exactly, and total sift work stays within the amortized budget."""
    rng = np.random.default_rng(707)
    q = DoubleEndedQueue()
    model = NaiveDepqModel()
    next_id = 0
    max_live = 128
    n_ops = 100_000
    checks = 0
    for _ in range(n_ops):
        choice = rng.uniform()
        if len(model) == 0 or (choice < 0.45 and len(model) < max_live):
            lb = float(rng.uniform(0, 1))
            ub = lb + float(rng.uniform(0, 1))
            q.insert(BoundedCandidate(next_id, lb=lb, ub=ub))
            model.insert(next_id, lb, ub)
            next_id += 1
        elif choice < 0.6:
            assert q.extract_max_ub().set_id == model.extract_max_ub()
            checks += 1
        elif choice < 0.75:
            sid = model.min_lb() if rng.uniform() < 0.5 else model.min_ub()
            q.remove(sid)
            model.remove(sid)
        else:
            assert q.min_lb().set_id == model.min_lb()
            assert q.min_ub().set_id == model.min_ub()
            checks += 2
        assert len(q) == len(model)
    budget = 8 * n_ops * max(1.0, math.log2(max_live + 2))
    assert q.op_count <= budget
    ok(f"criterion 7: {n_ops} queue ops match the reference model "
       f"({checks} extreme checks); {q.op_count} sifts <= budget {budget:.0f}")


def test_criterion_8_bundle_determinism_and_compression(default_workload, tmp_path_factory):
    """Identical seeds give byte-identical bundles; quantized index
    components stay under 60% of the raw vector payload."""
    config, repo, _, engine, _ = default_workload
    root = tmp_path_factory.mktemp("bundles")
    save_bundle(root / "a", engine)
    engine_again = build_engine(repo, seed=config.seed)
    save_bundle(root / "b", engine_again)
    names_a = sorted(p.name for p in (root / "a").iterdir())
    names_b = sorted(p.name for p in (root / "b").iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (root / "a" / name).read_bytes() == (root / "b" / name).read_bytes(), name
    load_bundle(root / "a")  # checksums verify
    sizes = component_sizes(root / "a")
    raw = sizes["repository.f32"]
    quantized = sum(
        v for k, v in sizes.items() if k not in ("repository.f32", "repository.tsv")
    )
    ratio = quantized / raw
    assert ratio < 0.6
    ok("criterion 8: rebuild is byte-identical; index components use "
       f"{quantized} bytes = {100 * ratio:.1f}% of raw vectors ({raw} bytes)")


def test_criterion_9_partitioning_postconditions():
    """On 1000 random sets spanning all three dispersion branches, output
    partitions are disjoint, covering, capacity-consistent, and
    middle-branch sets keep their singleton groups."""
    rng = np.random.default_rng(909)
    n_c = 24
    cb = Codebook(
        (lambda raw: (raw / np.linalg.norm(raw, axis=1)[:, None]).astype(np.float32))(
            rng.standard_normal((n_c, 8))
        ),
        train_seed=0,
    )
    owner_lists = []
    for trial in range(1000):
        size = int(rng.integers(2, 18))
        branch = trial % 3
        if branch == 0:
            owners = np.full(size, int(rng.integers(n_c)))  # concentrated
        elif branch == 1:
            owners = rng.permutation(n_c)[: min(size, n_c)]  # dispersed
            size = len(owners)
        else:
            owners = rng.integers(0, max(2, size // 2), size)  # mixed
        owner_lists.append(np.asarray(owners))
    sizes = [len(o) for o in owner_lists]
    raw = rng.standard_normal((sum(sizes), 8))
    matrix = (raw / np.linalg.norm(raw, axis=1)[:, None]).astype(np.float32)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    repo = VectorSetRepository(matrix, offsets)
    assignment = ClusterAssignment(
        np.concatenate(owner_lists).astype(np.int32), repo.offsets.copy()
    )
    rho_low, rho_high = 0.25, 0.75
    pidx = build_partition_index(repo, cb, assignment, rho_low=rho_low, rho_high=rho_high, seed=11)
    violations = 0
    for sid, owners in enumerate(owner_lists):
        pset = pidx.of(sid)
        members = np.concatenate([g.member_indices for g in pset.groups])
        if len(members) != len(owners) or len(np.unique(members)) != len(owners):
            violations += 1
        if sum(g.capacity for g in pset.groups) != len(owners):
            violations += 1
        rho = dispersion(owners)
        if rho_low < rho < rho_high:
            want = [
                (int(c), tuple(np.flatnonzero(owners == c)))
                for c in np.unique(owners)
            ]
            got = [
                (g.centroid_ids[0], tuple(g.member_indices))
                for g in sorted(pset.groups, key=lambda g: g.centroid_ids)
            ]
            if [(c, m) for c, m in want] != [(c, m) for c, m in got]:
                violations += 1
    assert violations == 0
    ok(f"criterion 9: 1000 partitioned sets disjoint, covering, "
       f"capacity-consistent, middle band unchanged (violations {violations})")


def test_criterion_10_refinement_bookkeeping():
    """Traced drain runs never exceed per-centroid capacity, never let one
    query vector pay twice for one set, and drain in non-increasing
    similarity order."""
    rng = np.random.default_rng(1010)
    violations = 0
    instances = 200
    for _ in range(instances):
        n_sets = int(rng.integers(2, 8))
        n_c = int(rng.integers(2, 6))
        owner_lists = []
        weights = {}
        for sid in range(n_sets):
            owners = rng.integers(0, n_c, size=int(rng.integers(1, 6)))
            owner_lists.append(owners)
            weights[sid] = {}
            for c in owners:
                weights[sid][int(c)] = weights[sid].get(int(c), 0) + 1
        offsets = np.concatenate([[0], np.cumsum([len(o) for o in owner_lists])])
        postings = build_indexes(
            ClusterAssignment(np.concatenate(owner_lists).astype(np.int32), offsets), n_c
        )
        n_query = int(rng.integers(1, 5))
        per_query = []
        for _ in range(n_query):
            cids = rng.permutation(n_c)[: int(rng.integers(1, n_c + 1))]
            per_query.append([(int(c), float(rng.uniform(-1, 1))) for c in cids])
        trace = RefinementTrace()
        refine(
            n_sets, n_query, lambda qi: per_query[qi], postings,
            phi_c=max(len(r) for r in per_query), phi_ref=n_sets, trace=trace,
        )
        for (sid, cid), used in trace.used.items():
            if used > weights[sid].get(cid, 0):
                violations += 1
        pairs = [(sid, qi) for sid, qi, _, _ in trace.accepted]
        if len(pairs) != len(set(pairs)):
            violations += 1
        sims = [s for _, _, s in trace.events]
        if any(b > a + 1e-12 for a, b in zip(sims, sims[1:])):
            violations += 1
    assert violations == 0
    ok(f"criterion 10: drain bookkeeping clean on {instances} traced instances "
       f"(violations {violations})")
