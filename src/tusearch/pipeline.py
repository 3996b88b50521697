"""End-to-end top-k search: candidate generation, capacity-matching filter,
then exact scoring, with bound-based pruning in the last two stages.

Stage 1 takes every query column's top ``phi_c`` centroids from one exact
flat scan of the codebook and ranks sets by accumulated centroid
similarities.  Stage 2 keeps the top phi_r of them by the exact
capacitated many-to-one score against each set's partitions, pruning with
the row-best bounds; one batched pass over the engine's flat partition
layout gives the similarity tables of all stage-1 candidates, their
row-best bounds, their exact scores where every query column's best group
has room, and the assignment problems of the rest.  Stage 3 scores each
survivor with the exact thresholded matching against all of the set's
vectors, pruning with the bounds of ``matching.set_bounds``: one product
of the query with every survivor's rows gives all of them.
Queries are independent; every search call builds its own scratch state,
so one engine serves many threads.
"""

from __future__ import annotations

import numbers
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import matching
from .errors import DataError, UsageError
from .mwmto import BoundPair, PartitionLayout, bounds_for_mwmto, mwmto_exact, partition_sims
from .partitions import PartitionIndex
from .pruning import PRUNERS, run_pruner
from .quantizer import Codebook, ClusterAssignment, top_centroids
from .refinement import Postings, refine
from .repository import QueryTable, VectorSetRepository


@dataclass
class SearchParams:
    """Knobs for one search.  phi_ref defaults to 5k and phi_r to 3k; the
    stages nest, so k <= phi_r <= phi_ref is enforced.  The sizes must be
    integers (numpy integers too, bools not) and tau a real number."""

    k: int = 10
    tau: float = 0.7
    phi_c: int = 32
    phi_ref: int | None = None
    phi_r: int | None = None
    pruner: str = "enhanced"

    def resolve(self, n_sets: int) -> "ResolvedParams":
        for name in ("k", "phi_c", "phi_ref", "phi_r"):
            value = getattr(self, name)
            if value is None and name in ("phi_ref", "phi_r"):
                continue  # defaulted below
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise UsageError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.tau, bool) or not isinstance(self.tau, numbers.Real):
            raise UsageError(f"tau must be a real number, got {self.tau!r}")
        if self.k < 1:
            raise UsageError(f"k must be >= 1, got {self.k}")
        if not 0 < self.tau <= 1:
            raise UsageError(f"tau must be in (0, 1], got {self.tau}")
        if self.phi_c < 1:
            raise UsageError(f"phi_c must be >= 1, got {self.phi_c}")
        if self.pruner not in PRUNERS:
            raise UsageError(f"pruner must be one of {tuple(PRUNERS)}, got {self.pruner!r}")
        phi_r = 3 * self.k if self.phi_r is None else self.phi_r
        phi_ref = 5 * self.k if self.phi_ref is None else self.phi_ref
        if not self.k <= phi_r <= phi_ref:
            raise UsageError(
                f"stage sizes must nest: k={self.k} <= phi_r={phi_r} <= phi_ref={phi_ref}"
            )
        if self.k > n_sets:
            warnings.warn(
                f"k={self.k} exceeds the repository size ({n_sets}); returning all sets",
                stacklevel=2,
            )
        return ResolvedParams(
            k=min(self.k, n_sets),
            tau=self.tau,
            phi_c=self.phi_c,
            phi_ref=min(phi_ref, n_sets),
            phi_r=min(phi_r, n_sets),
            pruner=self.pruner,
        )


@dataclass(frozen=True)
class ResolvedParams:
    k: int
    tau: float
    phi_c: int
    phi_ref: int
    phi_r: int
    pruner: str


@dataclass
class SearchDiagnostics:
    refine_candidates: int = 0
    filter_candidates: int = 0
    result_count: int = 0
    filter_score_calls: int = 0
    filter_bound_calls: int = 0
    filter_row_best_scores: int = 0  # stage-2 exact scores taken without an assignment solve
    filter_exact_s: float = 0.0  # seconds inside the stage-2 exact scorer
    score_exact_s: float = 0.0  # seconds inside the stage-3 exact scorer
    scoring_score_calls: int = 0
    scoring_bound_calls: int = 0
    depq_ops: int = 0
    stage_seconds: dict = field(default_factory=dict)

    @property
    def total_score_calls(self) -> int:
        return self.filter_score_calls + self.scoring_score_calls

    def lines(self) -> list[str]:
        out = [
            f"stage=refine candidates={self.refine_candidates} "
            f"ms={1e3 * self.stage_seconds.get('refine', 0.0):.3f}",
            f"stage=filter candidates={self.filter_candidates} "
            f"score_calls={self.filter_score_calls} bound_calls={self.filter_bound_calls} "
            f"row_best_scores={self.filter_row_best_scores} "
            f"ms={1e3 * self.stage_seconds.get('filter', 0.0):.3f} "
            f"exact_ms={1e3 * self.filter_exact_s:.3f}",
            f"stage=score results={self.result_count} "
            f"score_calls={self.scoring_score_calls} bound_calls={self.scoring_bound_calls} "
            f"ms={1e3 * self.stage_seconds.get('score', 0.0):.3f} "
            f"exact_ms={1e3 * self.score_exact_s:.3f}",
            f"depq_ops={self.depq_ops}",
        ]
        return out


@dataclass
class SearchResult:
    items: list[tuple[int, float, int]]  # (set_id, score, cardinality), score-descending
    diagnostics: SearchDiagnostics


class _QueryState:
    """Per-search scratch: the query matrix in float64, plus a per-candidate
    memo so stage-3 exact scores are computed at most once."""

    def __init__(self, query: QueryTable):
        self.q64 = query.vectors.astype(np.float64)
        self.clustered: dict[int, tuple[float, int]] = {}


class SearchEngine:
    """Immutable index bundle plus the search pipeline over it."""

    def __init__(
        self,
        repo: VectorSetRepository,
        codebook: Codebook,
        assignment: ClusterAssignment,
        postings: Postings,
        partition_index: PartitionIndex,
        build_config: dict | None = None,
    ):
        self.repo = repo
        self.codebook = codebook
        self.assignment = assignment
        self.postings = postings
        self.partition_index = partition_index
        self.build_config = dict(build_config or {})
        self.partition_layout = PartitionLayout.build(partition_index, codebook)
        # Seconds of each build phase, filled by ``build_engine`` and never
        # saved, so identical builds stay byte-identical.
        self.phase_seconds: dict[str, float] = {}

    # -- stage pieces -----------------------------------------------------

    def _clustered(self, state: _QueryState, set_id: int, tau: float) -> tuple[float, int]:
        cached = state.clustered.get(set_id)
        if cached is None:
            res = matching.unionability(state.q64, self.repo.vectors_of(set_id), tau)
            cached = state.clustered[set_id] = (res.weight, res.cardinality)
        return cached

    # -- public operations --------------------------------------------------

    def clustered_score(self, query: QueryTable, set_id: int, tau: float) -> tuple[float, int]:
        """Stage-3 score of one candidate: the exact thresholded matching of
        the query against all of the set's vectors, as (weight, cardinality)."""
        self._check_query(query)
        return self._clustered(_QueryState(query), set_id, tau)

    def clustered_bounds(self, query: QueryTable, set_id: int, tau: float) -> BoundPair:
        """The ``matching.set_bounds`` pair around ``clustered_score``."""
        self._check_query(query)
        lb, ub = matching.set_bounds(query.vectors, self.repo, [set_id], tau)
        return BoundPair(float(lb[0]), float(ub[0]))

    def refine(self, query: QueryTable, params: SearchParams | None = None, trace=None):
        """Run only the first stage; returns (set_id, score) ranked."""
        self._check_query(query)
        resolved = (params or SearchParams()).resolve(self.repo.n_sets)
        state = _QueryState(query)
        return self._refine(state, resolved, trace)

    def _refine(self, state: _QueryState, params: ResolvedParams, trace=None):
        ids, sims = top_centroids(self.codebook, state.q64, params.phi_c)
        pairs = np.stack((ids, sims), axis=-1)  # per query vector, (centroid id, sim) rows
        return refine(
            self.repo.n_sets,
            len(state.q64),
            pairs.__getitem__,
            self.postings,
            params.phi_c,
            params.phi_ref,
            trace=trace,
        )

    def _check_query(self, query: QueryTable) -> None:
        if query.dimension != self.repo.dimension:
            raise DataError(
                f"dimension mismatch: {query.dimension} vs {self.repo.dimension}"
            )

    def search(self, query: QueryTable, params: SearchParams | None = None) -> SearchResult:
        """Full three-stage top-k search."""
        self._check_query(query)
        resolved = (params or SearchParams()).resolve(self.repo.n_sets)
        state = _QueryState(query)
        diag = SearchDiagnostics()
        tau = resolved.tau

        t0 = time.perf_counter()
        stage1 = self._refine(state, resolved)
        stage1_ids = [sid for sid, _ in stage1]
        diag.refine_candidates = len(stage1_ids)
        t1 = time.perf_counter()
        diag.stage_seconds["refine"] = t1 - t0

        tables = partition_sims(state.q64, self.partition_layout, stage1_ids, tau)

        def filter_score(sid: int) -> float:
            start = time.perf_counter()
            res = mwmto_exact(tables[sid])
            diag.filter_exact_s += time.perf_counter() - start
            diag.filter_row_best_scores += res.row_best
            return res.score

        def scoring_score(sid: int) -> float:
            start = time.perf_counter()
            weight = self._clustered(state, sid, tau)[0]
            diag.score_exact_s += time.perf_counter() - start
            return weight

        ranked2, stats2 = run_pruner(
            resolved.pruner,
            stage1_ids,
            resolved.phi_r,
            lambda sid: _pair(bounds_for_mwmto(tables[sid])),
            filter_score,
        )
        diag.filter_candidates = len(ranked2)
        diag.filter_score_calls = stats2.score_calls
        diag.filter_bound_calls = stats2.bound_calls
        diag.depq_ops += stats2.heap_ops
        t2 = time.perf_counter()
        diag.stage_seconds["filter"] = t2 - t1

        ids3 = [sid for sid, _ in ranked2]
        lb3, ub3 = matching.set_bounds(state.q64, self.repo, ids3, tau)
        bounds3 = dict(zip(ids3, zip(lb3.tolist(), ub3.tolist())))
        ranked3, stats3 = run_pruner(
            resolved.pruner,
            ids3,
            resolved.k,
            bounds3.__getitem__,
            scoring_score,
        )
        diag.scoring_score_calls = stats3.score_calls
        diag.scoring_bound_calls = stats3.bound_calls
        diag.depq_ops += stats3.heap_ops
        t3 = time.perf_counter()
        diag.stage_seconds["score"] = t3 - t2

        items = []
        for sid, score in ranked3:
            _, cardinality = self._clustered(state, sid, tau)
            items.append((sid, score, cardinality))
        items.sort(key=lambda t: (-t[1], -t[2], t[0]))
        diag.result_count = len(items)
        return SearchResult(items, diag)


def _pair(bounds: BoundPair) -> tuple[float, float]:
    return bounds.lb, bounds.ub


def build_engine(
    repo: VectorSetRepository,
    n_c: int | None = None,
    rho_low: float = 0.2,
    rho_high: float = 0.8,
    seed: int = 0,
    kmeans_iters: int = 25,
    single_partition: bool = False,
) -> SearchEngine:
    """Train the codebook and assemble every index for a repository; the
    engine's ``phase_seconds`` holds the time of each phase."""
    from .partitions import build_partition_index
    from .quantizer import assign_all, build_indexes, train_codebook

    times = [time.perf_counter()]
    codebook = train_codebook(repo, n_c=n_c, max_iters=kmeans_iters, seed=seed)
    times.append(time.perf_counter())
    assignment = assign_all(repo, codebook)
    times.append(time.perf_counter())
    postings = build_indexes(assignment, codebook.n_c)
    times.append(time.perf_counter())
    pindex = build_partition_index(
        repo, codebook, assignment,
        rho_low=rho_low, rho_high=rho_high, seed=seed,
        single_partition=single_partition,
    )
    times.append(time.perf_counter())
    config = {
        "n_c": codebook.n_c,
        "rho_low": rho_low,
        "rho_high": rho_high,
        "seed": seed,
        "kmeans_iters": kmeans_iters,
        "single_partition": single_partition,
        "dimension": repo.dimension,
        "n_sets": repo.n_sets,
        "total_vectors": repo.total_vectors,
    }
    engine = SearchEngine(repo, codebook, assignment, postings, pindex, config)
    engine.phase_seconds = dict(zip(("train", "assign", "postings", "partitions"), np.diff(times).tolist()))
    return engine
