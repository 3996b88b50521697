"""Independent reference implementations used only by tests.

These deliberately avoid the production code paths: cardinality by plain
augmenting paths, capacitated matching by exhaustive recursion over
capacity states, the row-best matching one row at a time, a list-scan
model of the double-ended queue, the stage-1 drain as a global max-heap
popped one event at a time, the stage-1 postings built one centroid at a
time, ground truth as one exact matching per set with no bounds and no
early stop, k-means with full distance matrices and a scatter-add, and
partition merging as a per-pair similarity cache over group objects.
"""

from __future__ import annotations

import heapq

import numpy as np

from tusearch.matching import assignment_shift, unionability
from tusearch.partitions import LOCAL_KMEANS_ITERS, PartitionGroup, PartitionIndex, PartitionSet, cascade_k, dispersion
from tusearch.quantizer import Codebook, train_kmeans


def kuhn_matching_cardinality(valid: np.ndarray) -> int:
    """Maximum bipartite matching size via augmenting paths only."""
    n_left, n_right = valid.shape
    match_right = [-1] * n_right

    def try_augment(u: int, seen: list[bool]) -> bool:
        for v in range(n_right):
            if valid[u, v] and not seen[v]:
                seen[v] = True
                if match_right[v] == -1 or try_augment(match_right[v], seen):
                    match_right[v] = u
                    return True
        return False

    size = 0
    for u in range(n_left):
        if try_augment(u, [False] * n_right):
            size += 1
    return size


def solver_pairs(sims: np.ndarray, valid: np.ndarray) -> list[tuple[int, int]]:
    """The (row, column) pairs over ``valid`` cells that
    ``scipy.optimize.linear_sum_assignment`` keeps on the shifted profit
    ``matching.solve_shifted_assignment`` solves: ``sims + W`` on valid
    cells, W from ``matching.assignment_shift``, and 0 elsewhere."""
    from scipy.optimize import linear_sum_assignment

    if not valid.any():
        return []
    shift = assignment_shift(*sims.shape, sims[valid].max())
    rows, cols = linear_sum_assignment(np.where(valid, sims + shift, 0.0), maximize=True)
    return [(r, c) for r, c in zip(rows.tolist(), cols.tolist()) if valid[r, c]]


def enumerate_best_matching(sims: np.ndarray, valid: np.ndarray) -> tuple[int, float]:
    """(cardinality, weight)-lexicographic best one-to-one matching by
    explicit recursion over rows; no memoization, no shared code."""
    n_left, n_right = sims.shape

    best = [(0, 0.0)]

    def go(row: int, used: int, card: int, weight: float) -> None:
        if row == n_left:
            if (card, weight) > best[0]:
                best[0] = (card, weight)
            return
        go(row + 1, used, card, weight)
        for col in range(n_right):
            if valid[row, col] and not used & (1 << col):
                go(row + 1, used | (1 << col), card + 1, weight + float(sims[row, col]))

    go(0, 0, 0, 0.0)
    return best[0]


def enumerate_mwmto(rows: list[list[tuple[int, float]]], capacities: list[int]) -> tuple[int, float]:
    """Exhaustive capacity-respecting many-to-one assignment, maximizing
    (cardinality, weight) lexicographically.  Weights are summed in row
    order in the entries' own arithmetic: exactly for ``Fraction``s."""
    best = [(0, 0.0)]
    caps = list(capacities)

    def go(qi: int, card: int, weight: float) -> None:
        if qi == len(rows):
            if (card, weight) > best[0]:
                best[0] = (card, weight)
            return
        go(qi + 1, card, weight)  # leave this query vector unmatched
        for gid, s in rows[qi]:
            if caps[gid] > 0:
                caps[gid] -= 1
                go(qi + 1, card + 1, weight + s)
                caps[gid] += 1

    go(0, 0, 0)
    return best[0]


def reference_ranking(q_mat, repo, tau: float) -> list[tuple[int, float, int]]:
    """Every set's exact score, one ``unionability`` call per set, sorted by
    (score desc, cardinality desc, set id asc)."""
    rows = []
    for sid in range(repo.n_sets):
        res = unionability(q_mat, repo.vectors_of(sid), tau)
        rows.append((sid, res.weight, res.cardinality))
    rows.sort(key=lambda t: (-t[1], -t[2], t[0]))
    return rows


def reference_partition_sims(q_mat, pset, cb, tau: float) -> list[list[tuple[int, float]]]:
    """Per query vector, the (group_id, similarity) entries clearing tau,
    one small product per group over its centroids (codebook ids below
    ``n_c``, the set's cascade rows at ``id - n_c`` above)."""
    q64 = np.asarray(q_mat, dtype=np.float64)
    cents64 = cb.centroids.astype(np.float64)
    cascade64 = pset.cascade_centroids.astype(np.float64)
    rows: list[list[tuple[int, float]]] = [[] for _ in range(len(q64))]
    for g in pset.groups:
        mats = [
            cents64[cid] if cid < cb.n_c else cascade64[cid - cb.n_c]
            for cid in g.centroid_ids
        ]
        sims = (q64 @ np.stack(mats).T).max(axis=1)
        for qi in np.flatnonzero(sims >= tau):
            rows[int(qi)].append((g.group_id, float(sims[qi])))
    return rows


def reference_row_best(
    rows: list[list[tuple[int, float]]], capacities: list[int]
) -> tuple[float, int, bool, list[int], float]:
    """One table's row-best matching by loops over its rows and groups:
    each row proposes its best entry (ties to the lower group) and a group
    keeps its best proposers, ties to the lower row, as many as its
    capacity.  Returns the weight (added in row order), the rows kept,
    whether the table is settled (every row a group turned away has no
    other entry), each row's kept group (-1 for none) and the lower bound:
    the weight if the table is settled or the rows kept are min(rows with
    an entry, sum of min(capacity, rows reaching the group)), else the
    smaller of the weight and the sum of the count + 1 smallest row
    minima."""
    reach = [0] * len(capacities)
    proposals: dict[int, list[tuple[float, int]]] = {}
    for qi, row in enumerate(rows):
        for gid, _ in row:
            reach[gid] += 1
        if row:
            gid, s = min(row, key=lambda e: (-e[1], e[0]))
            proposals.setdefault(gid, []).append((-s, qi))
    choice = [-1] * len(rows)
    settled = True
    for gid, props in proposals.items():
        props.sort()
        for _, qi in props[: capacities[gid]]:
            choice[qi] = gid
        if len(props) > capacities[gid] and any(len(rows[qi]) > 1 for _, qi in props):
            settled = False
    weight, count = 0.0, 0
    for row, gid in zip(rows, choice):
        if gid >= 0:
            weight += dict(row)[gid]
            count += 1
    most = min(sum(1 for row in rows if row), sum(min(c, r) for c, r in zip(capacities, reach)))
    lb = weight
    if count < most and not settled:
        mins = sorted(min(s for _, s in row) for row in rows if row)
        lb = min(weight, sum(mins[: count + 1]))
    return weight, count, settled, choice, lb


def reference_refine(n_sets, n_query, top_centroids_of, postings, phi_c, phi_ref, trace=None):
    """Stage 1 as an event-by-event drain: every (centroid, query vector)
    event goes on one max-heap keyed by similarity and pops in descending
    order (ties to the lower query vector, then centroid).  Each popped event
    visits its centroid's posting list; a set not yet visited by the query
    vector takes the similarity while its used count in the centroid is
    below its member count, and is marked visited either way.  Returns the
    same ranked list as ``refinement.refine`` and fills the same trace."""
    assert phi_c >= 1 and phi_ref >= 1
    heap = [(-sim, qi, cid) for qi in range(n_query) for cid, sim in top_centroids_of(qi)]
    heapq.heapify(heap)
    n_c = len(postings.ptr) - 1
    scores = np.zeros(n_sets, dtype=np.float64)
    touched = np.zeros(n_sets, dtype=bool)
    visited = np.zeros((n_sets, n_query), dtype=bool)
    used: dict[int, np.ndarray] = {}
    while heap:
        neg_sim, qi, cid = heapq.heappop(heap)
        sim = -neg_sim
        if not 0 <= cid < n_c or len(postings[cid][0]) == 0:
            continue
        sets, caps = postings[cid]
        if trace is not None:
            trace.events.append((qi, cid, sim))
        used_c = used.setdefault(cid, np.zeros(len(sets), dtype=np.int64))
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
    ranked = cand[np.lexsort((cand, -scores[cand]))][:phi_ref]
    return [(int(s), float(scores[s])) for s in ranked]


def reference_postings(owner_lists, n_c: int):
    """Per centroid, one ``np.unique`` over the set ids of its member
    vectors: the (ptr, sets, counts) arrays of ``refinement.Postings``."""
    handles = [(c, sid) for sid, owners in enumerate(owner_lists) for c in owners]
    ptr = np.zeros(n_c + 1, dtype=np.int64)
    sets, counts = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for cid in range(n_c):
        s, n = np.unique(np.array([sid for c, sid in handles if c == cid], dtype=np.int64), return_counts=True)
        sets.append(s)
        counts.append(n)
        ptr[cid + 1] = ptr[cid] + len(s)
    return ptr, np.concatenate(sets), np.concatenate(counts)


def reference_kmeans(points: np.ndarray, k: int, max_iters: int, seed: int) -> tuple[np.ndarray, list[float]]:
    """``train_kmeans`` with one full (n, k) distance matrix per step and
    ``np.add.at`` for the cluster sums: the float32 centroids and the
    inertia history."""
    points = np.asarray(points, dtype=np.float64)

    def sq_dists(cents):
        p2 = np.einsum("ij,ij->i", points, points)
        c2 = np.einsum("ij,ij->i", cents, cents)
        return np.maximum(p2[:, None] - 2.0 * points @ cents.T + c2[None, :], 0.0)

    rng = np.random.default_rng(seed)
    n = len(points)
    cents = np.empty((k, points.shape[1]))
    cents[0] = points[int(rng.integers(n))]
    d2 = sq_dists(cents[0:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        cents[j] = points[int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, sq_dists(cents[j : j + 1])[:, 0])
    labels, history = None, []
    for _ in range(max_iters):
        d2 = sq_dists(cents)
        new_labels = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), new_labels].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        counts = np.bincount(labels, minlength=k)
        sums = np.zeros_like(cents)
        np.add.at(sums, labels, points)
        cents[counts > 0] = sums[counts > 0] / counts[counts > 0, None]
        assigned = d2[np.arange(n), labels].copy()
        for c in np.flatnonzero(counts == 0):
            far = int(np.argmax(assigned))
            cents[c] = points[far]
            assigned[far] = -1.0
    return cents.astype(np.float32), history


def group_similarity(a: PartitionGroup, b: PartitionGroup, cb: Codebook) -> float:
    """Maximum inner product over cross pairs of the two groups' codebook
    centroids, one small product per call."""
    cents = cb.centroids64()
    mat_a = np.stack([cents[c] for c in a.centroid_ids])
    mat_b = np.stack([cents[c] for c in b.centroid_ids])
    return float((mat_a @ mat_b.T).max())


def _reference_merge(groups: list[PartitionGroup], size: int, rho_high: float, cb: Codebook) -> list[PartitionGroup]:
    """Pairwise merging by a dict of group-pair similarities, re-scanned in
    sorted pair order after every merge; the merged group keeps the smaller
    id and its similarity to every other group is computed afresh."""
    alive = {g.group_id: g for g in groups}
    gsim: dict[tuple[int, int], float] = {}
    ids = sorted(alive)
    for i, p in enumerate(ids):
        for q in ids[i + 1 :]:
            gsim[(p, q)] = group_similarity(alive[p], alive[q], cb)
    while len(alive) / size >= rho_high and len(alive) > 1:
        best_pair, best_sim = None, -np.inf
        for pair in sorted(gsim):
            if pair[0] in alive and pair[1] in alive and gsim[pair] > best_sim:
                best_sim, best_pair = gsim[pair], pair
        p, q = best_pair
        merged = PartitionGroup(
            p,
            tuple(sorted(set(alive[p].centroid_ids) | set(alive[q].centroid_ids))),
            np.sort(np.concatenate([alive[p].member_indices, alive[q].member_indices])),
        )
        del alive[q]
        alive[p] = merged
        for other in alive:
            if other != p:
                gsim[(min(other, p), max(other, p))] = group_similarity(merged, alive[other], cb)
    return [alive[i] for i in sorted(alive)]


def reference_partition_index(
    repo, cb: Codebook, assignment, rho_low=0.2, rho_high=0.8, seed=0, single_partition=False,
) -> PartitionIndex:
    """``build_partition_index`` one set and one group object at a time:
    singleton groups from ``np.flatnonzero`` per owning centroid, the
    per-pair merge above, and the cascade's local clusters kept in cluster
    order, then ``PartitionIndex.pack``."""
    psets = []
    for sid in range(repo.n_sets):
        owners = assignment.set_owners(sid)
        size = len(owners)
        cascade = np.empty((0, repo.dimension), dtype=np.float32)
        singletons = [
            PartitionGroup(gid, (int(cid),), np.flatnonzero(owners == cid).astype(np.int32))
            for gid, cid in enumerate(np.unique(owners))
        ]
        rho = dispersion(owners)
        if single_partition:
            groups = [PartitionGroup(0, tuple(int(c) for c in np.unique(owners)), np.arange(size, dtype=np.int32))]
        elif rho <= rho_low:
            vectors = repo.vectors_of(sid)
            local = train_kmeans(
                vectors.astype(np.float64), cascade_k(size, rho_low, rho_high), max_iters=LOCAL_KMEANS_ITERS,
                seed=(seed * 1_000_003 + sid) & 0x7FFFFFFF,
            )
            cents = local.centroids64()
            d2 = (
                np.einsum("ij,ij->i", vectors, vectors)[:, None]
                - 2.0 * vectors @ cents.T
                + np.einsum("ij,ij->i", cents, cents)[None, :]
            )
            labels = np.argmin(d2, axis=1)
            groups, rows = [], []
            for j in range(local.n_c):
                members = np.flatnonzero(labels == j).astype(np.int32)
                if len(members):
                    groups.append(PartitionGroup(len(groups), (cb.n_c + len(rows),), members))
                    rows.append(local.centroids[j])
            cascade = np.stack(rows).astype(np.float32)
        elif rho >= rho_high:
            groups = _reference_merge(singletons, size, rho_high, cb)
        else:
            groups = singletons
        psets.append(PartitionSet(sid, groups, cascade))
    return PartitionIndex.pack(psets)


class NaiveDepqModel:
    """List-backed reference for the double-ended queue: linear scans for
    every extreme, eager removal, no heaps anywhere."""

    def __init__(self):
        self.items: dict[int, tuple[float, float]] = {}  # set_id -> (lb, ub)

    def __len__(self) -> int:
        return len(self.items)

    def insert(self, set_id: int, lb: float, ub: float) -> None:
        assert set_id not in self.items
        self.items[set_id] = (lb, ub)

    def min_lb(self) -> int:
        return min(self.items, key=lambda s: (self.items[s][0], s))

    def min_ub(self) -> int:
        return min(self.items, key=lambda s: (self.items[s][1], s))

    def max_ub(self) -> int:
        return min(self.items, key=lambda s: (-self.items[s][1], s))

    def extract_max_ub(self) -> int:
        sid = self.max_ub()
        del self.items[sid]
        return sid

    def remove(self, set_id: int) -> None:
        del self.items[set_id]


def random_unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    raw = rng.standard_normal((n, d))
    return (raw / np.linalg.norm(raw, axis=1)[:, None]).astype(np.float32)


def sets_from_sims(sims) -> tuple[np.ndarray, np.ndarray]:
    """Two vector blocks whose pairwise inner products equal ``sims``: rows of
    Q are orthonormal basis vectors and columns of V copy the matrix."""
    sims = np.asarray(sims, dtype=np.float64)
    m, _ = sims.shape
    return np.eye(m, dtype=np.float64), sims.T.copy()
