"""Ground truth, recall measurement, and the benchmark harness.

Ground truth is the exact top-k of ``matching.exact_topk``: one product of
the query with the whole repository bounds every set's score, and sets
are verified with the exact thresholded matching in descending upper
bound until no unverified set can reach the k-th weight.  Recall@k is the
overlap of retrieved ids with that top-k.  The harness sweeps the
probe/pool parameter grids over the same query batch with each pruning
strategy, timing single-threaded and reporting medians so runs stay
comparable across machines.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .bundle import index_components
from .errors import UsageError
from .matching import exact_topk
from .pipeline import SearchEngine, SearchParams, build_engine
from .repository import QueryTable, VectorSetRepository, normalize_rows


def oracle_topk(
    query: QueryTable,
    repo: VectorSetRepository,
    tau: float,
    k: int,
) -> list[tuple[int, float, int]]:
    """The exact best ``min(k, n_sets)`` sets, sorted by (score desc,
    cardinality desc, set_id asc)."""
    return exact_topk(query.vectors, repo, tau, k)


def recall(retrieved, truth) -> float:
    """|retrieved intersect truth| / |truth|; truth must be non-empty."""
    truth = set(truth)
    if not truth:
        raise UsageError("recall is undefined for an empty truth set")
    return len(set(retrieved) & truth) / len(truth)


def ground_truth_rankings(
    queries: list[QueryTable],
    repo: VectorSetRepository,
    tau: float,
    k: int,
) -> list[list[tuple[int, float, int]]]:
    """The exact top-k of every query in a batch."""
    return [oracle_topk(q, repo, tau, k) for q in queries]


@dataclass
class BenchConfig:
    """Everything needed to reproduce one benchmark run.

    The workload mirrors how unionable tables arise in data lakes: a pool of
    ``n_topics`` column concepts, prototype tables drawn as concept subsets,
    and each repository table (and each query) materialized as a noisy view
    of one prototype.  Tables sharing a prototype are strongly unionable;
    others overlap only through shared concepts.
    """

    n_sets: int = 2000
    n_queries: int = 50
    cols_lo: int = 5
    cols_hi: int = 15
    dimension: int = 32
    n_topics: int = 100
    sets_per_prototype: int = 25
    noise: float = 0.07
    seed: int = 7
    k: int = 10
    tau: float = 0.7
    phi_c_grid: list[int] = field(default_factory=lambda: [1, 2, 4, 8, 16, 32, 64])
    phi_ref_multiples: list[int] = field(default_factory=lambda: [1, 2, 3, 5, 10])
    phi_r_multiple: int = 3
    methods: list[str] = field(default_factory=lambda: ["bf", "base", "enhanced"])
    reps: int = 3
    warmup: int = 1
    n_c: int | None = None
    rho_low: float = 0.2
    rho_high: float = 0.8

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "BenchConfig":
        data = json.loads(text)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise UsageError(f"unknown bench config keys: {sorted(unknown)}")
        return cls(**data)

    def validate(self) -> None:
        if self.reps < 1 or self.warmup < 0:
            raise UsageError("bench needs reps >= 1 and warmup >= 0")
        if not self.methods:
            raise UsageError("bench needs at least one method")
        bad = [m for m in self.methods if m not in ("bf", "base", "enhanced")]
        if bad:
            raise UsageError(f"unknown bench methods: {bad}")


REPORT_COLUMNS = [
    "method", "phi_c", "phi_ref", "phi_r",
    "recall", "p50_ms", "p95_ms", "score_calls",
]


@dataclass
class BenchReport:
    rows: list[dict]
    index_bytes: dict
    config: BenchConfig

    def to_tsv(self) -> str:
        lines = ["\t".join(REPORT_COLUMNS)]
        for row in self.rows:
            lines.append(
                "\t".join(
                    f"{row[c]:.6g}" if isinstance(row[c], float) else str(row[c])
                    for c in REPORT_COLUMNS
                )
            )
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        meta = {"record": "meta", "index_bytes": self.index_bytes,
                "config": json.loads(self.config.to_json())}
        lines = [json.dumps(meta, sort_keys=True)]
        for row in self.rows:
            lines.append(json.dumps({"record": "point", **row}, sort_keys=True))
        return "\n".join(lines) + "\n"


def make_workload(config: BenchConfig):
    """Synthesize the prototype-structured repository + query batch.

    Repository set ``i`` instantiates prototype ``i % n_prototypes``; query
    ``j`` is a fresh instantiation of prototype ``j % n_prototypes``, so each
    query has a cohort of strongly unionable sibling tables plus a long tail
    of concept-overlap relatives.  Deterministic given the config.
    """
    rng = np.random.default_rng(config.seed)
    raw = rng.standard_normal((config.n_topics, config.dimension))
    concepts = raw / np.linalg.norm(raw, axis=1)[:, None]
    n_protos = max(1, config.n_sets // max(1, config.sets_per_prototype))
    prototypes = [
        rng.choice(
            config.n_topics,
            size=int(rng.integers(config.cols_lo, config.cols_hi + 1)),
            replace=config.n_topics < config.cols_hi,
        )
        for _ in range(n_protos)
    ]

    def instantiate(proto: int) -> np.ndarray:
        base = concepts[prototypes[proto]]
        noisy = base + config.noise * rng.standard_normal(base.shape)
        return normalize_rows(noisy, where="workload")

    blocks = [instantiate(i % n_protos) for i in range(config.n_sets)]
    offsets = np.concatenate([[0], np.cumsum([len(b) for b in blocks])])
    repo = VectorSetRepository(np.vstack(blocks), offsets)
    queries = [QueryTable(instantiate(j % n_protos)) for j in range(config.n_queries)]
    return repo, queries


def index_component_bytes(engine: SearchEngine) -> dict:
    """Byte accounting of the bundle's index components, keyed by file stem,
    versus raw vectors."""
    sizes = {name.split(".")[0]: len(raw) for name, raw in index_components(engine).items()}
    return {"raw_vectors": int(engine.repo.matrix.nbytes), **sizes}


def run_bench(config: BenchConfig, progress=None) -> BenchReport:
    """Sweep the grid and measure recall + latency per (method, point).

    Pruning is lossless, so all methods see identical result sets; the
    interesting deltas are score-call counts and latency.  Searches run on
    one thread; each query is warmed up before the timed repetitions and the
    per-query median is kept.
    """
    config.validate()
    repo, queries = make_workload(config)
    engine = build_engine(
        repo, n_c=config.n_c, rho_low=config.rho_low, rho_high=config.rho_high,
        seed=config.seed,
    )
    truth = ground_truth_rankings(queries, repo, config.tau, config.k)
    truth_topk = [set(sid for sid, _, _ in r) for r in truth]
    rows = []
    for phi_c in config.phi_c_grid:
        for mult in config.phi_ref_multiples:
            phi_ref = max(config.k, mult * config.k)
            phi_r = min(max(config.k, config.phi_r_multiple * config.k), phi_ref)
            for method in config.methods:
                params = SearchParams(
                    k=config.k, tau=config.tau, phi_c=phi_c,
                    phi_ref=phi_ref, phi_r=phi_r, pruner=method,
                )
                recalls = []
                med_lat = []
                calls = []
                for qi, query in enumerate(queries):
                    for _ in range(config.warmup):
                        engine.search(query, params)
                    laps = []
                    result = None
                    for _ in range(config.reps):
                        t0 = time.perf_counter()
                        result = engine.search(query, params)
                        laps.append(time.perf_counter() - t0)
                    retrieved = [sid for sid, _, _ in result.items]
                    recalls.append(recall(retrieved, truth_topk[qi]))
                    med_lat.append(statistics.median(laps))
                    calls.append(result.diagnostics.total_score_calls)
                rows.append({
                    "method": method,
                    "phi_c": phi_c,
                    "phi_ref": phi_ref,
                    "phi_r": phi_r,
                    "recall": float(np.mean(recalls)),
                    "p50_ms": float(np.percentile(med_lat, 50) * 1e3),
                    "p95_ms": float(np.percentile(med_lat, 95) * 1e3),
                    "score_calls": float(np.mean(calls)),
                })
                if progress is not None:
                    progress(rows[-1])
    return BenchReport(rows, index_component_bytes(engine), config)
