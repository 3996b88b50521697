"""Seeded input generation for the benchmark's workloads.

Written apart from ``tusearch`` on purpose: the program under test receives
only the files and query matrices made here.  Every table is a noisy copy of
a *prototype*, a list of concept ids; tables that share a prototype are
strongly unionable, tables that share only some concepts are partially
unionable, so the exact top-k is graded rather than a tie.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

MANIFEST_MAGIC = "VSETS v1"
# Expected norm of the noise added to a unit concept vector, so siblings of
# one concept have an expected cosine near 1 / (1 + NOISE**2) whatever the
# dimension.
NOISE = 0.5
# Chance an instance keeps a prototype column rather than a random concept.
KEEP = 0.8


@dataclass(frozen=True)
class Shape:
    """Make-up of one workload.

    Every workload uses the same ``NOISE`` and ``KEEP``.  ``concept_pool`` is
    None for tables of distinct concepts; a (low, high) range draws each
    prototype's columns with repetition from that many concepts.
    """

    name: str
    n_sets: int
    cols: tuple[int, int]
    dim: int
    n_concepts: int
    sets_per_prototype: int
    n_c: int | None
    n_queries: int
    slice_sets: int  # repository prefix used by the exactness-limit check
    concept_pool: tuple[int, int] | None = None


SHAPES = {
    "narrow": Shape(
        name="narrow", n_sets=2000, cols=(5, 15), dim=32, n_concepts=100,
        sets_per_prototype=10, n_c=None, n_queries=100, slice_sets=300,
    ),
    "wide": Shape(
        name="wide", n_sets=200, cols=(40, 80), dim=64, n_concepts=120,
        sets_per_prototype=8, n_c=None, n_queries=50, slice_sets=120,
    ),
    "concentrated": Shape(
        name="concentrated", n_sets=600, cols=(30, 60), dim=32, n_concepts=6,
        sets_per_prototype=10, n_c=12, n_queries=100,
        slice_sets=200, concept_pool=(2, 6),
    ),
}


@dataclass
class Inputs:
    """One workload's generated tables and queries, all unit float32 rows."""

    shape: Shape
    tables: list[np.ndarray]
    queries: list[np.ndarray]


def _unit(rows: np.ndarray) -> np.ndarray:
    return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)


def generate(shape: Shape, seed: int) -> Inputs:
    """Tables and queries of ``shape``; the same seed gives the same bytes.

    The concept directions and the prototypes are part of the workload and
    do not depend on the seed; the seed draws every table and query from
    them (column order, swapped columns, noise, extra columns).  A seed
    thus changes every vector without changing the structure that sets the
    workload's cost and recall.
    """
    fixed = np.random.default_rng([sum(map(ord, shape.name)), shape.dim, shape.n_sets])
    rng = np.random.default_rng([seed, shape.dim, shape.n_sets])
    concepts = _unit(fixed.standard_normal((shape.n_concepts, shape.dim))).astype(np.float64)
    n_protos = max(1, shape.n_sets // shape.sets_per_prototype)
    lo, hi = shape.cols

    def prototype(m: int, size: int) -> np.ndarray:
        if shape.concept_pool is None:
            return fixed.choice(shape.n_concepts, size=m, replace=False)
        # A few concepts in skewed proportions: tables differ in which
        # concepts they repeat and how often, so dispersion spreads around
        # the cascade threshold.
        pool = fixed.choice(shape.n_concepts, size=size, replace=False)
        weights = fixed.dirichlet(np.ones(len(pool)))
        return fixed.choice(pool, size=m, replace=True, p=weights)

    # Prototype widths and concept-pool sizes are spread evenly over their
    # ranges, so the size mix of the repository is even as well as fixed.
    widths = fixed.permutation(np.linspace(lo, hi, n_protos).round().astype(int))
    pool_lo, pool_hi = shape.concept_pool or (0, 0)
    pools = fixed.permutation(pool_lo + np.arange(n_protos) % (pool_hi - pool_lo + 1))
    protos = [prototype(int(m), int(p)) for m, p in zip(widths, pools)]

    def instance(proto: np.ndarray, m: int) -> np.ndarray:
        if shape.concept_pool is None:
            extra = rng.integers(0, shape.n_concepts, size=max(0, m - len(proto)))
            ids = np.concatenate([rng.permutation(proto), extra])[:m]
        else:
            ids = rng.choice(proto, size=m, replace=True)
        swap = rng.random(m) >= KEEP
        ids = np.where(swap, rng.integers(0, shape.n_concepts, size=m), ids)
        sigma = NOISE / np.sqrt(shape.dim)
        return _unit(concepts[ids] + sigma * rng.standard_normal((m, shape.dim)))

    tables = []
    for i in range(shape.n_sets):
        proto = protos[i % n_protos]
        tables.append(instance(proto, int(np.clip(len(proto) + rng.integers(-2, 3), lo, hi))))
    # Queries copy prototypes spread evenly over the list, with widths
    # spread evenly over the column range.
    queries = [
        instance(protos[qi * n_protos // shape.n_queries], int(m))
        for qi, m in enumerate(np.linspace(lo, hi, shape.n_queries).round().astype(int))
    ]
    return Inputs(shape, tables, queries)


def write_manifest(tables: list[np.ndarray], directory: Path) -> Path:
    """Write tables in the program's manifest + float32 payload format."""
    directory.mkdir(parents=True, exist_ok=True)
    dim = tables[0].shape[1]
    payload = directory / "tables.f32"
    lines = [f"{MANIFEST_MAGIC}\tdimension={dim}"]
    offset = 0
    with open(payload, "wb") as fh:
        for sid, t in enumerate(tables):
            raw = np.ascontiguousarray(t, dtype="<f4").tobytes()
            fh.write(raw)
            lines.append(f"{sid}\t{len(t)}\t{payload.name}\t{offset}")
            offset += len(raw)
    manifest = directory / "tables.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest
