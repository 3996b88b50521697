"""First-stage candidate generation.

Every query vector contributes its top centroids, found by one exact flat
scan of the codebook, as (centroid, query vector, similarity) *events*.
Events are taken in drain order: descending similarity, ties to the lower
query vector and then the lower centroid id.  Each event touches every set
with a member vector in that centroid.  A query vector has one chance per
set: its first touch of the set in drain order.  That touch adds to the
set's score only while fewer of the set's increments in that centroid were
accepted before it than the set has member vectors there; a blocked touch
still spends the chance.  Scores accumulate raw inner products; no
similarity threshold applies at this stage, so negative contributions are
possible and simply rank low.

The drain is one array pass, not a loop over events.  The sorted events
are expanded into their posting slots (the *touches*), the first touch of
each (query vector, set) is kept, and a first touch is accepted when its
rank among the first touches of the same slot, in drain order, is below
the slot's member count.  Scores are summed over the accepted touches in
drain order, so they equal an event-by-event drain bit for bit.

Posting lists are pre-deduplicated to distinct set ids per centroid: one
chance per (query vector, set) makes per-vector iteration redundant, so one
touch per set per event is semantically identical and much cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError


@dataclass(frozen=True)
class Postings:
    """Per centroid, the distinct set ids with a member vector in it and
    their member counts, id-sorted, in compressed sparse rows: centroid
    ``c`` owns the *slots* ``ptr[c]:ptr[c + 1]`` of ``sets`` and ``counts``."""

    ptr: np.ndarray  # (n_c + 1,) int32
    sets: np.ndarray  # (n_slots,) int32
    counts: np.ndarray  # (n_slots,) int32

    def __getitem__(self, cid: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.ptr[cid], self.ptr[cid + 1]
        return self.sets[lo:hi], self.counts[lo:hi]


@dataclass
class RefinementTrace:
    """Per-event record of the drain, for small-instance verification."""

    events: list[tuple[int, int, float]] = field(default_factory=list)  # (query, centroid, sim)
    accepted: list[tuple[int, int, int, float]] = field(default_factory=list)  # (set, query, centroid, sim)
    blocked: list[tuple[int, int, int]] = field(default_factory=list)  # (set, query, centroid)
    used: dict[tuple[int, int], int] = field(default_factory=dict)  # (set, centroid) -> count


def refine(
    n_sets: int,
    n_query: int,
    top_centroids_of,
    postings: Postings,
    phi_c: int,
    phi_ref: int,
    trace: RefinementTrace | None = None,
) -> list[tuple[int, float]]:
    """Return up to ``phi_ref`` set ids ranked by accumulated score, ties to
    the lower set id.

    ``top_centroids_of(qi)`` supplies query vector ``qi``'s (centroid id,
    similarity) rows in any order: a list of pairs or an ``(n, 2)`` array.
    """
    if phi_c < 1 or phi_ref < 1:
        raise UsageError(f"phi_c and phi_ref must be >= 1, got {phi_c}, {phi_ref}")
    rows = [np.asarray(top_centroids_of(qi), dtype=np.float64).reshape(-1, 2) for qi in range(n_query)]
    pairs = np.concatenate(rows) if rows else np.zeros((0, 2))
    qi = np.repeat(np.arange(n_query, dtype=np.int32), [len(r) for r in rows])
    cid = pairs[:, 0].astype(np.int32)
    sim = pairs[:, 1]

    # Events on centroids that own slots, in drain order.
    ptr = postings.ptr
    n_c = len(ptr) - 1
    known = (cid >= 0) & (cid < n_c)
    degree = np.zeros(len(cid), dtype=np.int32)
    degree[known] = ptr[cid[known] + 1] - ptr[cid[known]]
    live = np.flatnonzero(degree)
    ev = live[np.lexsort((cid[live], qi[live], -sim[live]))]
    qi, cid, sim, degree = qi[ev], cid[ev], sim[ev], degree[ev]

    # Touches: each event's slots, in drain order.  ``take`` gathers by an
    # int32 index without first widening it, unlike fancy indexing.
    ends = np.cumsum(degree, dtype=np.int32)
    n_touch = int(ends[-1]) if len(ends) else 0
    touch = np.arange(n_touch, dtype=np.int32)
    slot = np.repeat(ptr[cid] - (ends - degree), degree)
    slot += touch
    touch_set = postings.sets.take(slot)

    # The first touch of each (query vector, set).
    key_type = np.int32 if n_query * n_sets < 2**31 else np.int64
    key = np.repeat(qi.astype(key_type) * n_sets, degree)
    key += touch_set
    earliest = np.full(n_query * n_sets, n_touch, dtype=np.int32)
    np.minimum.at(earliest, key, touch)
    first = np.flatnonzero(earliest.take(key) == touch)
    first_slot = slot.take(first)

    # Accept while the slot's earlier first touches leave room under its
    # count.  Only slots with more first touches than members need ranks:
    # sorting (slot << 32) | position orders them by slot, stably.
    cap = postings.counts.take(first_slot)
    accept = np.ones(len(first), dtype=bool)
    over = np.flatnonzero(np.bincount(first_slot).take(first_slot) > cap)
    if len(over):
        order = np.sort((first_slot.take(over).astype(np.int64) << 32) | over)
        grouped, over = order >> 32, order & 0xFFFFFFFF
        starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        rank = np.arange(len(over)) - np.repeat(starts, np.diff(np.r_[starts, len(over)]))
        accept[over] = rank < cap[over]

    first_event = np.repeat(np.arange(len(qi), dtype=np.int32), degree).take(first)
    first_set = touch_set.take(first)
    scores = np.bincount(first_set[accept], weights=sim[first_event[accept]], minlength=n_sets)

    # Rank every touched set; only those at or above the phi_ref-th score
    # can make the cut, so the tie-breaking sort runs on those alone.
    touched = np.zeros(n_sets, dtype=bool)
    touched[first_set] = True
    cand = np.flatnonzero(touched)
    neg = -scores[cand]
    if phi_ref < len(cand):
        keep = neg <= np.partition(neg, phi_ref - 1)[phi_ref - 1]
        cand, neg = cand[keep], neg[keep]
    ranked = cand[np.lexsort((cand, neg))[:phi_ref]]
    if trace is not None:
        _record(trace, postings, qi, cid, sim, first_set, first_event, accept, slot, first_slot)
    return list(zip(ranked.tolist(), scores[ranked].tolist()))


def _record(trace, postings, qi, cid, sim, first_set, first_event, accept, slot, first_slot) -> None:
    """Fill ``trace`` from the pass's arrays, as an event-by-event drain would."""
    trace.events.extend(zip(qi.tolist(), cid.tolist(), sim.tolist()))
    ev_a, ev_b = first_event[accept], first_event[~accept]
    trace.accepted.extend(
        zip(first_set[accept].tolist(), qi[ev_a].tolist(), cid[ev_a].tolist(), sim[ev_a].tolist())
    )
    trace.blocked.extend(zip(first_set[~accept].tolist(), qi[ev_b].tolist(), cid[ev_b].tolist()))
    slots = np.unique(slot)
    used = np.bincount(first_slot[accept], minlength=len(postings.sets))[slots]
    owner = np.searchsorted(postings.ptr, slots, side="right") - 1
    trace.used.update(
        zip(zip(postings.sets[slots].tolist(), owner.tolist()), used.tolist())
    )
