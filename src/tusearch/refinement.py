"""First-stage candidate generation.

Every query vector contributes its top centroids, found by one exact flat
scan of the codebook, to one global max-heap keyed by the centroid-query
inner product.  Pairs drain in descending order; each drained (centroid,
query vector) event visits every set with a member vector in that
centroid.  A query vector has one chance per set: its first event that
touches the set.  That event adds to the set's score only while the set
has fewer accepted increments in that centroid than member vectors there;
a blocked event still spends the chance.  Scores accumulate raw inner
products; no similarity threshold applies at this stage, so negative
contributions are possible and simply rank low.

Posting lists are pre-deduplicated to distinct set ids per centroid: the
per-query-vector visit flag makes per-vector iteration redundant, so one
touch per set per event is semantically identical and much cheaper.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, UsageError
from .quantizer import SetWeightIndex, VectorInvertedIndex


def build_postings(iv: VectorInvertedIndex, iw: SetWeightIndex) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per centroid: (distinct set ids, per-set member counts), id-sorted."""
    postings: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for cid, handles in iv.lists.items():
        sets, counts = np.unique(handles[:, 0], return_counts=True)
        postings[cid] = (sets.astype(np.int64), counts.astype(np.int64))
    return postings


@dataclass
class RefinementTrace:
    """Per-event record of the drain loop, for small-instance verification."""

    events: list[tuple[int, int, float]] = field(default_factory=list)  # (query, centroid, sim)
    accepted: list[tuple[int, int, int, float]] = field(default_factory=list)  # (set, query, centroid, sim)
    blocked: list[tuple[int, int, int]] = field(default_factory=list)  # (set, query, centroid)
    used: dict[tuple[int, int], int] = field(default_factory=dict)  # (set, centroid) -> count


def refine(
    n_sets: int,
    n_query: int,
    top_centroids_of,
    postings: dict[int, tuple[np.ndarray, np.ndarray]],
    phi_c: int,
    phi_ref: int,
    trace: RefinementTrace | None = None,
) -> list[tuple[int, float]]:
    """Return up to ``phi_ref`` set ids ranked by accumulated score.

    ``top_centroids_of(qi)`` supplies the (centroid id, similarity) list for
    query vector ``qi``, best first.
    """
    if phi_c < 1 or phi_ref < 1:
        raise UsageError(f"phi_c and phi_ref must be >= 1, got {phi_c}, {phi_ref}")
    heap: list[tuple[float, int, int]] = []
    for qi in range(n_query):
        for cid, sim in top_centroids_of(qi):
            heap.append((-sim, qi, cid))
    heapq.heapify(heap)

    scores = np.zeros(n_sets, dtype=np.float64)
    touched = np.zeros(n_sets, dtype=bool)
    visited = np.zeros((n_sets, n_query), dtype=bool)
    used: dict[int, np.ndarray] = {}
    last_sim = np.inf
    while heap:
        neg_sim, qi, cid = heapq.heappop(heap)
        sim = -neg_sim
        if sim > last_sim + 1e-12:
            raise InvariantError("drain order not descending in similarity")
        last_sim = sim
        entry = postings.get(cid)
        if entry is None:
            continue
        sets, caps = entry
        if trace is not None:
            trace.events.append((qi, cid, sim))
        used_c = used.get(cid)
        if used_c is None:
            used_c = np.zeros(len(sets), dtype=np.int64)
            used[cid] = used_c
        unvisited = ~visited[sets, qi]
        has_cap = used_c < caps
        take = unvisited & has_cap
        used_c[take] += 1
        scores[sets[take]] += sim
        touched[sets] = True
        visited[sets, qi] = True
        if trace is not None:
            for s in sets[take]:
                trace.accepted.append((int(s), qi, cid, sim))
            for s in sets[unvisited & ~has_cap]:
                trace.blocked.append((int(s), qi, cid))
            for i, s in enumerate(sets):
                trace.used[(int(s), cid)] = int(used_c[i])

    cand = np.flatnonzero(touched)
    order = np.lexsort((cand, -scores[cand]))
    ranked = cand[order][:phi_ref]
    return [(int(s), float(scores[s])) for s in ranked]
