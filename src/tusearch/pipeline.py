"""End-to-end top-k search: candidate generation, capacity-matching filter,
then exact scoring, with bound-based pruning in the last two stages.

Stage 1 takes every query column's top ``phi_c`` centroids from one exact
flat scan of the codebook and ranks sets by accumulated centroid
similarities.  Stage 2 keeps the top phi_r of them by the exact
capacitated many-to-one score against each set's partitions, pruning with
the row-best bounds; one batched pass over the ``PartitionIndex`` arrays,
as build wrote them or the bundle stored them and each checked them with
``PartitionIndex.validate``, gives the similarity tables of all stage-1
candidates, their row-best bounds, their exact scores where the row-best
matching is settled (every query column a group turned away reaches no
other group), and the assignment problems of the rest.  Stage 3 scores
each survivor with the exact thresholded matching against all of the
set's vectors, pruning with the bounds of ``matching.set_bounds``, whose
upper bound also weighs a vertex cover of each threshold graph: one
product of the query with every survivor's rows gives all of them.
Queries are independent; every search call keeps its own scratch state,
so one engine serves many threads.  Search reads none of the build
settings in ``build_config``.
"""

from __future__ import annotations

import numbers
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import matching
from .errors import DataError, UsageError
from .mwmto import BoundPair, bounds_for_mwmto, mwmto_exact, partition_sims
from .partitions import PartitionIndex, check_thresholds
from .pruning import PRUNERS, run_pruner
from .quantizer import Codebook, ClusterAssignment, default_n_c, top_centroids
from .refinement import Postings, refine
from .repository import QueryTable, VectorSetRepository


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class SearchParams:
    """Knobs for one search.  An unset phi_r takes min(3k, phi_ref) and an
    unset phi_ref max(5k, phi_r); the stages nest, so k <= phi_r <= phi_ref
    is enforced.  The sizes must be integers (numpy integers too, bools not)
    and tau a real number."""

    k: int = 10
    tau: float = 0.7
    phi_c: int = 32
    phi_ref: int | None = None
    phi_r: int | None = None
    pruner: str = "enhanced"

    def resolve(self, n_sets: int) -> SearchParams:
        """A checked copy with both pool sizes set and every size clamped to
        the repository."""
        for name in ("k", "phi_c", "phi_ref", "phi_r"):
            value = getattr(self, name)
            if value is None and name in ("phi_ref", "phi_r"):
                continue  # defaulted below
            if not _is_integer(value):
                raise UsageError(f"{name} must be an integer, got {value!r}")
        matching.check_tau(self.tau)
        if self.k < 1:
            raise UsageError(f"k must be >= 1, got {self.k}")
        if self.phi_c < 1:
            raise UsageError(f"phi_c must be >= 1, got {self.phi_c}")
        if self.pruner not in PRUNERS:
            raise UsageError(f"pruner must be one of {tuple(PRUNERS)}, got {self.pruner!r}")
        phi_r, phi_ref = self.phi_r, self.phi_ref
        if phi_r is None:
            phi_r = 3 * self.k if phi_ref is None else min(3 * self.k, phi_ref)
        if phi_ref is None:
            phi_ref = max(5 * self.k, phi_r)
        if not self.k <= phi_r <= phi_ref:
            raise UsageError(
                f"stage sizes must nest: k={self.k} <= phi_r={phi_r} <= phi_ref={phi_ref}"
            )
        if self.k > n_sets:
            warnings.warn(
                f"k={self.k} exceeds the repository size ({n_sets}); returning all sets",
                stacklevel=2,
            )
        return replace(
            self, k=min(self.k, n_sets), phi_ref=min(phi_ref, n_sets), phi_r=min(phi_r, n_sets)
        )


@dataclass
class SearchDiagnostics:
    refine_events: int = 0  # stage-1 (query vector, centroid) events on centroids that own slots
    refine_touches: int = 0  # distinct (query vector, posting slot) pairs those events visit
    refine_first_touches: int = 0  # (query vector, set) pairs touched: each one's first touch
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
            f"stage=refine candidates={self.refine_candidates} events={self.refine_events} "
            f"touches={self.refine_touches} first_touches={self.refine_first_touches} "
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


class SearchEngine:
    """Immutable index bundle plus the search pipeline over it."""

    def __init__(
        self,
        repo: VectorSetRepository,
        codebook: Codebook,
        assignment: ClusterAssignment,
        postings: Postings,
        partition_index: PartitionIndex,
        build_config: dict,
    ):
        self.repo = repo
        self.codebook = codebook
        self.assignment = assignment
        self.postings = postings
        self.partition_index = partition_index
        self.build_config = dict(build_config)
        # Seconds of each build phase, filled by ``build_engine`` and never
        # saved, so identical builds stay byte-identical.
        self.phase_seconds: dict[str, float] = {}

    def refine(self, query: QueryTable, params: SearchParams | None = None, trace=None):
        """Run only the first stage; returns (set_id, score) ranked."""
        self._check_query(query)
        resolved = (params or SearchParams()).resolve(self.repo.n_sets)
        return self._refine(query.vectors.astype(np.float64), resolved, trace)

    def _refine(self, q64: np.ndarray, params: SearchParams, trace=None, counts=None):
        ids, sims = top_centroids(self.codebook, q64, params.phi_c)
        pairs = np.stack((ids, sims), axis=-1)  # per query vector, (centroid id, sim) rows
        return refine(
            self.repo.n_sets,
            len(q64),
            pairs.__getitem__,
            self.postings,
            params.phi_c,
            params.phi_ref,
            trace=trace,
            counts=counts,
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
        q64 = query.vectors.astype(np.float64)
        diag = SearchDiagnostics()
        tau = resolved.tau

        t0 = time.perf_counter()
        counts: dict = {}
        stage1 = self._refine(q64, resolved, counts=counts)
        stage1_ids = [sid for sid, _ in stage1]
        diag.refine_candidates = len(stage1_ids)
        diag.refine_events = counts["events"]
        diag.refine_touches = counts["touches"]
        diag.refine_first_touches = counts["first_touches"]
        t1 = time.perf_counter()
        diag.stage_seconds["refine"] = t1 - t0

        tables = partition_sims(q64, self.partition_index, self.codebook, stage1_ids, tau)

        def filter_score(sid: int) -> float:
            start = time.perf_counter()
            res = mwmto_exact(tables[sid])
            diag.filter_exact_s += time.perf_counter() - start
            diag.filter_row_best_scores += res.row_best
            return res.score

        # (weight, cardinality) of every set stage 3 scores; a pruner scores
        # each candidate at most once
        scored: dict[int, tuple[float, int]] = {}

        def scoring_score(sid: int) -> float:
            start = time.perf_counter()
            res = matching.unionability(q64, self.repo.vectors_of(sid), tau)
            scored[sid] = res.weight, res.cardinality
            diag.score_exact_s += time.perf_counter() - start
            return res.weight

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
        lb3, ub3 = matching.set_bounds(q64, self.repo, ids3, tau)
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

        items = [(sid, score, scored[sid][1]) for sid, score in ranked3]
        items.sort(key=lambda t: (-t[1], -t[2], t[0]))
        diag.result_count = len(items)
        return SearchResult(items, diag)


def _pair(bounds: BoundPair) -> tuple[float, float]:
    return bounds.lb, bounds.ub


BUILD_SETTINGS = ("n_c", "seed", "rho_low", "rho_high", "single_partition")


def check_build_config(config: dict) -> dict:
    """``config`` with Python ``int``, ``float`` and ``bool`` values; raises
    ``UsageError`` unless it holds exactly the five build settings: ``n_c``
    an integer >= 1 and ``seed`` an integer >= 0 (numpy integers count,
    bools do not), thresholds that pass ``check_thresholds`` and
    ``single_partition`` a bool or numpy bool.  Build, bundle save and
    bundle load all apply this rule."""
    if set(config) != set(BUILD_SETTINGS):
        raise UsageError(f"build config must hold exactly {', '.join(BUILD_SETTINGS)}, got {', '.join(config)}")
    n_c, seed, single = config["n_c"], config["seed"], config["single_partition"]
    if not (_is_integer(n_c) and n_c >= 1):
        raise UsageError(f"n_c must be int >= 1, got {n_c!r}")
    if not (_is_integer(seed) and seed >= 0):
        raise UsageError(f"seed must be int >= 0, got {seed!r}")
    check_thresholds(config["rho_low"], config["rho_high"])
    if not isinstance(single, (bool, np.bool_)):
        raise UsageError(f"single_partition must be bool or numpy bool, got {single!r}")
    return {
        "n_c": int(n_c),
        "seed": int(seed),
        "rho_low": float(config["rho_low"]),
        "rho_high": float(config["rho_high"]),
        "single_partition": bool(single),
    }


def build_engine(
    repo: VectorSetRepository,
    n_c: int | None = None,
    rho_low: float = 0.2,
    rho_high: float = 0.8,
    seed: int = 0,
    single_partition: bool = False,
) -> SearchEngine:
    """Train the codebook and assemble every index for a repository; an
    ``n_c`` of None takes ``default_n_c``.  The engine's ``build_config``
    holds the five build settings as ``check_build_config`` returns them,
    checked before any training, and its ``phase_seconds`` the time of
    each phase."""
    from .partitions import build_partition_index
    from .quantizer import assign_all, build_indexes, train_codebook

    n_c = default_n_c(repo.total_vectors) if n_c is None else n_c
    config = check_build_config(dict(zip(BUILD_SETTINGS, (n_c, seed, rho_low, rho_high, single_partition))))
    times = [time.perf_counter()]
    codebook = train_codebook(repo, n_c=config["n_c"], seed=config["seed"])
    times.append(time.perf_counter())
    assignment = assign_all(repo, codebook)
    times.append(time.perf_counter())
    postings = build_indexes(assignment, codebook.n_c)
    times.append(time.perf_counter())
    pindex = build_partition_index(
        repo, codebook, assignment,
        rho_low=config["rho_low"], rho_high=config["rho_high"], seed=config["seed"],
        single_partition=config["single_partition"],
    )
    times.append(time.perf_counter())
    engine = SearchEngine(repo, codebook, assignment, postings, pindex, config)
    engine.phase_seconds = dict(zip(("train", "assign", "postings", "partitions"), np.diff(times).tolist()))
    return engine
