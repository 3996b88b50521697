"""Ground truth, recall measurement, and the criteria workload.

Ground truth is the exact top-k of ``matching.exact_topk``: one product of
the query with the whole repository bounds every set's score, and sets
are verified with the exact thresholded matching in descending upper
bound until no unverified set can reach the k-th weight.  Recall@k is the
overlap of retrieved ids with that top-k.  ``make_workload`` synthesizes
the prototype-structured repository and query batch that the acceptance
criteria run on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .matching import exact_topk
from .repository import QueryTable, VectorSetRepository, normalize_rows


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
    return [exact_topk(q.vectors, repo, tau, k) for q in queries]


@dataclass
class BenchConfig:
    """A synthetic workload, and the ``k`` and ``tau`` it is queried at.

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
