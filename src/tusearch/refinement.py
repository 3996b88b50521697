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

The drain is one array pass, not a loop over events.  It finds the first
touch of each (query vector, set) in one of two forms, chosen by the input:

* *Set-major*, when every query vector drains every centroid that owns
  slots, so the touches number ``n_query × n_slots`` (``phi_c >= n_c``).
  An ``n_c × n_query`` table of drain positions is gathered along the
  slots in set order and reduced by minimum over each set's run of slots:
  every (query vector, set)'s first touch, with no scatter.  A sort of each
  set's row puts its first touches in drain order.
* *Touch-major* otherwise: the sorted events are expanded into their
  posting slots (the *touches*), and the earliest touch of each (query
  vector, set) is kept.

A first touch is accepted when its rank among the first touches of the
same slot, in drain order, is below the slot's member count.  Each set's
score is summed over its accepted touches in drain order, so it equals an
event-by-event drain bit for bit.  A query vector that lists a centroid
twice drains it at the first of the two events; the second touches only
sets it has already spent its chance on.

Posting lists are pre-deduplicated to distinct set ids per centroid: one
chance per (query vector, set) makes per-vector iteration redundant, so one
touch per set per event is semantically identical and much cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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

    @cached_property
    def set_major(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The slots regrouped for the set-major drain.  Each slot-owning
        set is a *row*; ``rows`` lists their set ids by descending slot
        count, ties to the lower id.  A set's slots take ranks 0, 1, ... in
        centroid order, and the rows with a rank-r slot are a prefix of the
        row order.  ``slot`` lists the slots by rank and then row, ``owner``
        each one's centroid, and rank r fills ``slot[blocks[r]:blocks[r +
        1]]``.  Derived once per engine, O(n_slots) int32."""
        per_set = np.bincount(self.sets)
        rows = np.flatnonzero(per_set)
        rows = rows[np.argsort(-per_set[rows], kind="stable")]
        row_of = np.zeros(len(per_set), dtype=np.int64)
        row_of[rows] = np.arange(len(rows))
        by_set = np.argsort(self.sets, kind="stable")
        rank = np.empty(len(self.sets), dtype=np.int64)
        rank[by_set] = np.arange(len(by_set)) - (np.cumsum(per_set) - per_set)[self.sets[by_set]]
        slot = np.lexsort((row_of[self.sets], rank))
        owner = np.searchsorted(self.ptr, slot, side="right") - 1
        blocks = np.r_[0, np.cumsum(np.bincount(rank))]
        return slot.astype(np.int32), owner.astype(np.int32), rows.astype(np.int32), blocks


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
    *,
    counts: dict | None = None,
) -> list[tuple[int, float]]:
    """Return up to ``phi_ref`` set ids ranked by accumulated score, ties to
    the lower set id.

    ``top_centroids_of(qi)`` supplies query vector ``qi``'s (centroid id,
    similarity) rows in any order: a list of pairs or an ``(n, 2)`` array.
    A ``counts`` dict receives ``events`` (live events, repeats included),
    ``touches`` (distinct (query vector, slot) pairs visited) and
    ``first_touches``.
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

    # The drain position of each (centroid, query vector), a repeated event
    # keeping its first; the later copies touch nothing.
    n_ev = len(ev)
    position = np.arange(n_ev, dtype=np.int32)
    at = np.full(n_c * n_query, n_ev, dtype=np.int32)
    ekey = cid.astype(np.int64) * n_query + qi
    np.minimum.at(at, ekey, position)
    degree[at.take(ekey) != position] = 0
    n_touch = int(degree.sum())

    if n_touch and n_touch == n_query * len(postings.sets):
        first_set, first_event, first_slot = _first_by_set(postings, at.reshape(n_c, n_query), n_ev)
        touched_slots = np.arange(len(postings.sets))
    else:
        first_set, first_event, first_slot, touched_slots = _first_by_touch(
            postings, n_sets, n_query, qi, cid, degree, n_touch, trace is not None
        )

    # Accept while the slot's earlier first touches leave room under its
    # count.  Only slots with more first touches than members need ranks:
    # sorting (slot << 32) | position orders them by slot, stably.
    cap = postings.counts.take(first_slot)
    accept = np.ones(len(first_slot), dtype=bool)
    over = np.flatnonzero(np.bincount(first_slot).take(first_slot) > cap)
    if len(over):
        order = np.sort((first_slot.take(over).astype(np.int64) << 32) | over)
        grouped, over = order >> 32, order & 0xFFFFFFFF
        starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        rank = np.arange(len(over)) - np.repeat(starts, np.diff(np.r_[starts, len(over)]))
        accept[over] = rank < cap[over]

    # Each set's first touches are in drain order on both paths, so the
    # bincount sums each set's score in drain order.
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
    if counts is not None:
        counts.update(events=n_ev, touches=n_touch, first_touches=len(first_slot))
    if trace is not None:
        # the trace lists first touches in drain order, within an event by set
        drain = np.lexsort((first_set, first_event))
        _record(trace, postings, qi, cid, sim, first_set[drain], first_event[drain],
                first_slot[drain], accept[drain], touched_slots)
    return list(zip(ranked.tolist(), scores[ranked].tolist()))


def _first_by_set(postings: Postings, at: np.ndarray, n_ev: int):
    """The first touch of every (query vector, slot-owning set) when every
    query vector drains every slot-owning centroid: ``at[c, q]`` is the
    drain position of the event (c, q).  The table is gathered along
    ``Postings.set_major``, each entry carrying its drain position above
    its slot's rank, and each rank's block is folded into the rows it
    covers by an elementwise minimum: a segmented minimum over every set's
    slots, whose low bits name the first touch's slot.  Returns (set,
    event, slot) arrays, row by row, each row in drain order."""
    slot, owner, rows, blocks = postings.set_major
    n_query = at.shape[1]
    bits = (len(blocks) - 2).bit_length()
    dtype = np.int32 if (n_ev + 1) << bits < 2**31 else np.int64
    gathered = (at.astype(dtype) << bits).take(owner, axis=0)
    first = gathered[: blocks[1]]
    for r in range(1, len(blocks) - 1):
        block = gathered[blocks[r] : blocks[r + 1]]
        block |= r
        head = first[: len(block)]
        np.minimum(head, block, out=head)
    first.sort(axis=1)
    first_event = (first >> bits).ravel()
    row = np.arange(len(rows))[:, None]
    first_slot = slot.take((blocks.take(first & ((1 << bits) - 1)) + row).ravel())
    return np.repeat(rows, n_query), first_event, first_slot


def _first_by_touch(postings: Postings, n_sets, n_query, qi, cid, degree, n_touch, traced: bool):
    """Expand the events into their ``n_touch`` touches, in drain order, and
    keep the earliest of each (query vector, set).  Returns (set, event,
    slot) arrays of the first touches in drain order, and the touched slots
    when ``traced``."""
    # ``take`` gathers by an int32 index without first widening it, unlike
    # fancy indexing.
    ends = np.cumsum(degree, dtype=np.int32)
    touch = np.arange(n_touch, dtype=np.int32)
    slot = np.repeat(postings.ptr[cid] - (ends - degree), degree)
    slot += touch
    touch_set = postings.sets.take(slot)

    key_type = np.int32 if n_query * n_sets < 2**31 else np.int64
    key = np.repeat(qi.astype(key_type) * n_sets, degree)
    key += touch_set
    earliest = np.full(n_query * n_sets, n_touch, dtype=np.int32)
    np.minimum.at(earliest, key, touch)
    first = np.flatnonzero(earliest.take(key) == touch)
    first_event = np.repeat(np.arange(len(qi), dtype=np.int32), degree).take(first)
    return touch_set.take(first), first_event, slot.take(first), np.unique(slot) if traced else None


def _record(trace, postings, qi, cid, sim, first_set, first_event, first_slot, accept, slots) -> None:
    """Fill ``trace`` from the pass's arrays, as an event-by-event drain
    would: the first touches in drain order, ``slots`` the touched slots."""
    trace.events.extend(zip(qi.tolist(), cid.tolist(), sim.tolist()))
    ev_a, ev_b = first_event[accept], first_event[~accept]
    trace.accepted.extend(
        zip(first_set[accept].tolist(), qi[ev_a].tolist(), cid[ev_a].tolist(), sim[ev_a].tolist())
    )
    trace.blocked.extend(zip(first_set[~accept].tolist(), qi[ev_b].tolist(), cid[ev_b].tolist()))
    used = np.bincount(first_slot[accept], minlength=len(postings.sets))
    owner = np.searchsorted(postings.ptr, slots, side="right") - 1
    trace.used.update(
        zip(zip(postings.sets[slots].tolist(), owner.tolist()), used[slots].tolist())
    )
