"""Top-m selection over bound-equipped candidates.

Three interchangeable strategies, all generic over a bound estimator and an
exact scorer so the same code serves every pipeline stage:

* ``exhaustive_rank``  scores everything (the reference baseline),
* ``base_prune``       gates each candidate's exact scoring on its upper
                       bound against a min-heap of resolved scores,
* ``enhanced_prune``   bounds every candidate first, then resolves exact
                       scores in descending upper bound from one max-heap
                       and stops at the first upper bound the top heap
                       dominates (Fagin's threshold rule), which no
                       strategy that prunes by upper bounds alone can beat
                       in exact calls.

All three break score ties by the lower set id so their outputs are
directly comparable.  A candidate is only ever dropped without scoring
when the top heap already holds m resolved scores above its upper bound
by more than ``BOUND_SLACK``, so the selected top-m set is exact whenever
the upper bounds are valid up to summation-order rounding; lower bounds
are treated as hints only and never affect which candidates survive.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import UsageError

BOUND_SLACK = 1e-9  # a bound summed in another order than its score can sit ulps below it


@dataclass
class BoundedCandidate:
    set_id: int
    lb: float
    ub: float


@dataclass
class PruneStats:
    score_calls: int = 0
    bound_calls: int = 0
    heap_ops: int = 0


class DoubleEndedQueue:
    """Bound-keyed double-ended priority queue with tombstone lazy deletion.

    Live candidates are indexed by set id; three heap views (min lower
    bound, min upper bound, max upper bound) share them.  Removal marks the
    entry dead everywhere except the view the caller popped from; dead
    entries are purged when they surface at a root.  ``op_count`` counts
    individual sift operations (heap pushes and pops) for cost accounting.
    No pruner uses it: ``enhanced_prune`` pops only by maximum upper bound,
    which one heap serves.
    """

    def __init__(self):
        self._live: dict[int, tuple[int, BoundedCandidate]] = {}
        self._min_lb: list[tuple[float, int, int]] = []  # (lb, set_id, version)
        self._min_ub: list[tuple[float, int, int]] = []
        self._max_ub: list[tuple[float, int, int]] = []  # (-ub, set_id, version)
        self._version = 0
        self.op_count = 0

    def __len__(self) -> int:
        return len(self._live)

    def _is_live(self, set_id: int, version: int) -> bool:
        entry = self._live.get(set_id)
        return entry is not None and entry[0] == version

    def insert(self, cand: BoundedCandidate) -> None:
        if cand.set_id in self._live:
            raise UsageError(f"set_id {cand.set_id} already live in queue")
        self._version += 1
        self._live[cand.set_id] = (self._version, cand)
        heapq.heappush(self._min_lb, (cand.lb, cand.set_id, self._version))
        heapq.heappush(self._min_ub, (cand.ub, cand.set_id, self._version))
        heapq.heappush(self._max_ub, (-cand.ub, cand.set_id, self._version))
        self.op_count += 3

    def _purge(self, heap: list[tuple[float, int, int]]) -> None:
        while heap and not self._is_live(heap[0][1], heap[0][2]):
            heapq.heappop(heap)
            self.op_count += 1

    def min_lb(self) -> BoundedCandidate:
        self._purge(self._min_lb)
        if not self._min_lb:
            raise IndexError("queue is empty")
        return self._live[self._min_lb[0][1]][1]

    def min_ub(self) -> BoundedCandidate:
        self._purge(self._min_ub)
        if not self._min_ub:
            raise IndexError("queue is empty")
        return self._live[self._min_ub[0][1]][1]

    def extract_max_ub(self) -> BoundedCandidate:
        self._purge(self._max_ub)
        if not self._max_ub:
            raise IndexError("queue is empty")
        _, set_id, _ = heapq.heappop(self._max_ub)
        self.op_count += 1
        cand = self._live.pop(set_id)[1]  # tombstones the other two views
        return cand

    def remove(self, set_id: int) -> BoundedCandidate:
        entry = self._live.pop(set_id, None)
        if entry is None:
            raise UsageError(f"set_id {set_id} not live in queue")
        return entry[1]


class _TopHeap:
    """Min-heap of the best m (score, set id) pairs seen so far.  Orders by
    (score, -set_id) so equal scores favor the lower id uniformly."""

    def __init__(self, m: int):
        self.m = m
        self._heap: list[tuple[float, int]] = []  # (score, -set_id)

    def full(self) -> bool:
        return len(self._heap) >= self.m

    def offer(self, score: float, set_id: int) -> None:
        """Keep the pair if the heap has room or it beats the m-th."""
        if not self.full():
            heapq.heappush(self._heap, (score, -set_id))
        elif (score, -set_id) > self._heap[0]:
            heapq.heapreplace(self._heap, (score, -set_id))

    def dominates(self, ub: float) -> bool:
        """True when m resolved scores already exceed ub by more than
        ``BOUND_SLACK``, so a candidate bounded by ub cannot enter the top m
        even if ub was rounded below its score.  A candidate whose bound
        ties the m-th score is scored, and ``offer`` applies the
        tie order."""
        return self.full() and ub + BOUND_SLACK < self._heap[0][0]

    def ranked(self) -> list[tuple[int, float]]:
        out = sorted(self._heap, key=lambda t: (-t[0], -t[1]))
        return [(-neg_id, score) for score, neg_id in out]


def exhaustive_rank(candidates, m: int, score_fn) -> tuple[list[tuple[int, float]], PruneStats]:
    """Score every candidate; the no-pruning baseline."""
    if m < 1:
        raise UsageError(f"m must be >= 1, got {m}")
    stats = PruneStats()
    scored = []
    for sid in candidates:
        s = score_fn(sid)
        stats.score_calls += 1
        scored.append((sid, s))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:m], stats


def base_prune(
    candidates,
    m: int,
    bound_fn,
    score_fn,
) -> tuple[list[tuple[int, float]], PruneStats]:
    """Streaming top-m with per-candidate bound gating.

    The first m candidates are scored outright.  After that each candidate
    is scored only if its upper bound could still beat the current m-th
    score.  A lower bound above the heap minimum implies that gate passes
    (lb <= ub), so the gate alone decides; the post-scoring comparison keeps
    the heap correct even if a bound estimator overshoots.
    """
    if m < 1:
        raise UsageError(f"m must be >= 1, got {m}")
    stats = PruneStats()
    heap = _TopHeap(m)
    for sid in candidates:
        if heap.full():
            _, ub = bound_fn(sid)
            stats.bound_calls += 1
            if heap.dominates(ub):
                continue
        heap.offer(score_fn(sid), sid)
        stats.score_calls += 1
    return heap.ranked(), stats


def enhanced_prune(
    candidates,
    m: int,
    bound_fn,
    score_fn,
) -> tuple[list[tuple[int, float]], PruneStats]:
    """Top-m selection in descending upper-bound order.

    Every candidate is bounded and pushed onto one heap of (-ub, set id);
    candidates are then popped by maximum upper bound, ties by the lower
    set id, and scored until the top heap dominates the popped upper
    bound.  Every candidate still queued is bounded no higher, so it is
    dropped unscored.  ``heap_ops`` counts that heap's pushes and pops.
    """
    if m < 1:
        raise UsageError(f"m must be >= 1, got {m}")
    stats = PruneStats()
    heap = _TopHeap(m)
    pool: list[tuple[float, int]] = []
    for sid in candidates:
        heapq.heappush(pool, (-bound_fn(sid)[1], sid))
        stats.bound_calls += 1
    stats.heap_ops = len(pool)
    while pool:
        neg_ub, sid = heapq.heappop(pool)
        stats.heap_ops += 1
        if heap.dominates(-neg_ub):
            break
        heap.offer(score_fn(sid), sid)
        stats.score_calls += 1
    return heap.ranked(), stats


PRUNERS = {
    "bf": lambda cands, m, bound_fn, score_fn: exhaustive_rank(cands, m, score_fn),
    "base": base_prune,
    "enhanced": enhanced_prune,
}


def run_pruner(name: str, candidates, m: int, bound_fn, score_fn):
    if name not in PRUNERS:
        raise UsageError(f"unknown pruner {name!r}; expected one of {sorted(PRUNERS)}")
    return PRUNERS[name](candidates, m, bound_fn, score_fn)
