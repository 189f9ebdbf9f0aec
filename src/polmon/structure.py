"""Influencer selection (NetShield) and community detection (Louvain).

NetShield greedily picks the k nodes maximizing the shield value

    Sv(S) = sum_{i in S} 2 lambda u_i^2 - sum_{i,j in S} A_ij u_i u_j

where (lambda, u) is the leading adjacency eigenpair, found by power
iteration; picking and score updates run in O(n k + m), within the
O(n k^2 + m) class.

Louvain is the standard two-phase modularity heuristic: local moves to the
best positive-gain neighbouring community, then graph aggregation, repeated
until no move gains more than 1e-12.  The local moves run from a FIFO
queue: first every node in ascending dense-index order, then only the
neighbours of nodes that moved (Leiden's fast local move).  All
randomization is removed, so a given graph always yields the same
partition.  The local-move loop is plain Python over lists, which is where
the interpreter indexes fastest.  Each level is logged at DEBUG with its
size, visits, moves and Q.  Modularity is
Q = sum_c [e_c/m - (d_c/(2m))^2].
"""

from __future__ import annotations

import itertools
import logging
from collections import deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .graphkit import InteractionGraph
from .polarization import ConvergenceError
from .stance import Stance, StanceAssignment

log = logging.getLogger(__name__)

_MIN_GAIN = 1e-12


@dataclass
class ShieldRanking:
    selected: list[str]
    shield_scores: list[float]


@dataclass
class CommunityProfile:
    community_id: int
    size: int
    n_left: int = 0
    n_right: int = 0
    n_center: int = 0
    n_neutral: int = 0

    @property
    def lean(self) -> float:
        """Signed tilt, positive = Left-majority."""
        poles = self.n_left + self.n_right
        if poles == 0:
            return 0.0
        return (self.n_left - self.n_right) / poles


@dataclass
class CommunityPartition:
    assignment: dict[str, int]
    modularity: float
    per_community: list[CommunityProfile]

    @property
    def n_communities(self) -> int:
        return len({c for c in self.assignment.values()})


# ---------------------------------------------------------------------------
# leading eigenpair
# ---------------------------------------------------------------------------


def leading_eigenpair(g: InteractionGraph, tol: float = 1e-10,
                      max_iter: int = 100_000) -> tuple[float, np.ndarray]:
    """Leading adjacency eigenvalue and Perron-oriented unit eigenvector.

    Power iteration on A + I (the unit shift keeps bipartite graphs, whose
    spectrum is symmetric, from oscillating between +/- lambda rays) from a
    uniform positive start, so the iterate stays nonnegative; lambda and
    the residual are reported for A itself.  Converged when
    ||A u - lambda u||_inf <= tol * max(1, lambda).
    """
    if g.n < 1:
        raise ValueError("graph must have at least one node")
    indptr, indices = g.indptr, g.indices
    # A u is one np.add.reduceat over the starts of the non-empty rows:
    # empty rows in between contribute no entries, so each segment is
    # exactly one row.  This summation order fixes u's last bits, which
    # break NetShield's exact score ties, so it is part of the output.
    nonempty = np.diff(indptr) > 0
    starts = indptr[:-1][nonempty]
    au = np.zeros(g.n)
    u = np.full(g.n, 1.0 / np.sqrt(g.n))
    for it in range(max_iter + 1):
        if len(indices):
            au[nonempty] = np.add.reduceat(u[indices], starts)
        lam = float(np.dot(u, au))
        residual = float(np.max(np.abs(au - lam * u)))
        if residual <= tol * max(1.0, lam):
            return lam, u
        if it < max_iter:
            y = au + u
            u = y / np.linalg.norm(y)
    raise ConvergenceError(
        f"power iteration stalled at residual {residual:.3e} after "
        f"{max_iter} iterations (degenerate leading spectrum?)",
        residual, max_iter)


def netshield(g: InteractionGraph, k: int) -> ShieldRanking:
    """Greedy shield-value node selection; ties go to the ascending node id.

    The marginal score of candidate i given the selected set S is
    2 lambda u_i^2 - 2 u_i sum_{j in S} A_ij u_j; b holds that inner sum
    per node, so each pick costs O(n) plus the picked node's degree.
    """
    if k < 0 or k > g.n:
        raise ValueError(f"k must lie in [0, {g.n}], got {k}")
    if k == 0:
        return ShieldRanking([], [])
    lam, u = leading_eigenpair(g)
    indptr, indices = g.indptr, g.indices
    b = np.zeros(g.n)
    picked = np.zeros(g.n, bool)
    selected, scores = [], []
    for _ in range(k):
        score = 2.0 * lam * u * u - 2.0 * u * b
        score[picked] = -np.inf
        best = int(np.argmax(score))  # first max = lowest index on ties
        selected.append(g.nodes[best])
        scores.append(float(score[best]))
        picked[best] = True
        b[indices[indptr[best]:indptr[best + 1]]] += u[best]
    return ShieldRanking(selected=selected, shield_scores=scores)


# ---------------------------------------------------------------------------
# Louvain
# ---------------------------------------------------------------------------


def _louvain_level(indptr, indices, weights, k_arr, m):
    """Queue-driven local moves on one level; returns (comm, visits, moves).

    Every node is queued once in ascending order; a node that moves to
    community c queues each neighbour (in ascending order) that is not
    already queued and lies outside c, and the level ends when the queue is
    empty.  This is Leiden's fast local move (Traag, Waltman & van Eck
    2019): a node is re-examined only after its neighbourhood changed, so
    nodes that would flip back and forth between equal-looking communities
    are not swept again and again.  Gains are kept scaled by m: for node i
    and community c,
        g(c) = w(i->c) - tot(c) * k_i / (2m)
    and i moves only when the best candidate beats staying put by more
    than _MIN_GAIN * m.  Candidates are scanned in first-touch order (the
    insertion order of the weight dict), which the sorted CSR makes
    deterministic; ties keep the earlier candidate.  The CSR carries no
    diagonal: a node's self-loop weight cancels out of every gain
    difference.  The level's arrays become Python lists once, since the
    loop indexes them one element at a time.
    """
    ptr, nbr, w = indptr.tolist(), indices.tolist(), weights.tolist()
    rows = [list(zip(nbr[a:b], w[a:b])) for a, b in zip(ptr, ptr[1:])]
    k = k_arr.tolist()
    n = len(rows)
    comm = list(range(n))
    tot = list(k)
    two_m = 2.0 * m
    threshold = _MIN_GAIN * m
    queue = deque(range(n))
    queued = [True] * n
    visits = moves = 0
    while queue:
        i = queue.popleft()
        queued[i] = False
        visits += 1
        row = rows[i]
        c_old = comm[i]
        ki = k[i]
        tot[c_old] -= ki
        cw: dict[int, float] = {}
        for j, wj in row:
            c = comm[j]
            cw[c] = cw.get(c, 0.0) + wj
        scale = ki / two_m
        best_c = c_old
        best_g = cw.get(c_old, 0.0) - tot[c_old] * scale
        for c, wc in cw.items():
            if c == c_old:
                continue
            gain = wc - tot[c] * scale
            if gain > best_g + threshold:
                best_g = gain
                best_c = c
        comm[i] = best_c
        tot[best_c] += ki
        if best_c != c_old:
            moves += 1
            for j, _ in row:
                if not queued[j] and comm[j] != best_c:
                    queued[j] = True
                    queue.append(j)
    return np.array(comm, dtype=np.int64), visits, moves


def _aggregate(indptr, indices, weights, self_w, comm):
    """Collapse communities into supernodes; intra weight moves to self_w."""
    uniq, dense = np.unique(comm, return_inverse=True)
    nc = len(uniq)
    n = len(indptr) - 1
    rows = dense[np.repeat(np.arange(n), np.diff(indptr))]
    cols = dense[indices]
    intra = rows == cols
    new_self = np.bincount(rows[intra], weights=weights[intra],
                           minlength=nc) / 2.0
    new_self += np.bincount(dense, weights=self_w, minlength=nc)
    # one sorted key per (row, col) pair gives the CSR in row-major order;
    # the weights are whole numbers, so summing duplicates in any order is
    # exact (and bincount returns integers when there are no entries)
    inter = ~intra
    keys, entry = np.unique(rows[inter] * nc + cols[inter],
                            return_inverse=True)
    summed = np.bincount(entry, weights=weights[inter], minlength=len(keys))
    new_indptr = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // nc, minlength=nc), out=new_indptr[1:])
    return (new_indptr, keys % nc, summed.astype(np.float64, copy=False),
            new_self, dense)


def _assignment_modularity(indptr, indices, weights, self_w, comm) -> float:
    k_arr = np.bincount(
        np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)),
        weights=weights, minlength=len(indptr) - 1) + 2.0 * self_w
    m = weights.sum() / 2.0 + self_w.sum()
    if m == 0:
        return 0.0
    nc = int(comm.max()) + 1 if len(comm) else 0
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    intra = comm[rows] == comm[indices]
    e_c = np.bincount(comm[rows[intra]], weights=weights[intra],
                      minlength=nc) / 2.0
    e_c += np.bincount(comm, weights=self_w, minlength=nc)
    d_c = np.bincount(comm, weights=k_arr, minlength=nc)
    return float(np.sum(e_c / m - (d_c / (2.0 * m)) ** 2))


def louvain(g: InteractionGraph) -> CommunityPartition:
    """Deterministic Louvain partition with recomputed modularity.

    An edgeless graph degenerates to singleton communities with Q = 0.
    Community ids are dense, numbered by first appearance in ascending
    node order.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one node")
    indptr0, indices0 = g.indptr, g.indices
    weights0 = np.ones(len(indices0), dtype=np.float64)
    self_w = np.zeros(g.n, dtype=np.float64)
    m = g.m
    node_comm = np.arange(g.n, dtype=np.int64)

    if m > 0:
        indptr, indices, weights = indptr0, indices0, weights0
        level_self = self_w
        for level in itertools.count(1):
            k_arr = np.bincount(
                np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)),
                weights=weights, minlength=len(indptr) - 1) + 2.0 * level_self
            comm, visits, moves = _louvain_level(indptr, indices, weights,
                                                 k_arr, float(m))
            if log.isEnabledFor(logging.DEBUG):
                log.debug(
                    "louvain level %d: n=%d m=%d visits=%d moves=%d Q=%.6f",
                    level, len(indptr) - 1, len(indices) // 2, visits, moves,
                    _assignment_modularity(indptr, indices, weights,
                                           level_self, comm))
            if not moves:
                break
            # dense[i] is the aggregated node id of level node i, so the
            # original-node map composes through it; every level with a move
            # strictly shrinks the graph, which bounds the loop
            indptr, indices, weights, level_self, dense = _aggregate(
                indptr, indices, weights, level_self, comm)
            node_comm = dense[node_comm]

    # renumber by first appearance in ascending node order
    remap: dict[int, int] = {}
    assignment: dict[str, int] = {}
    final = np.empty(g.n, dtype=np.int64)
    for i, uid in enumerate(g.nodes):
        c = int(node_comm[i])
        if c not in remap:
            remap[c] = len(remap)
        final[i] = remap[c]
        assignment[uid] = remap[c]
    q = _assignment_modularity(indptr0, indices0, weights0,
                               np.zeros(g.n), final)
    profiles = [CommunityProfile(community_id=c, size=int(count))
                for c, count in enumerate(np.bincount(final, minlength=len(remap)))]
    return CommunityPartition(assignment=assignment, modularity=q,
                              per_community=profiles)


def decompose_communities(partition: CommunityPartition,
                          stances: Mapping[str, StanceAssignment]) -> None:
    """Fill in each community's stance tallies, and rank the communities.

    Users missing from the stance map count as Neutral.  The partition's
    per_community list is sorted in place by size descending, community id
    ascending on ties, so its first entries are the largest communities.
    """
    by_id: dict[int, CommunityProfile] = {}
    for profile in partition.per_community:
        profile.n_left = profile.n_right = 0
        profile.n_center = profile.n_neutral = 0
        by_id[profile.community_id] = profile
    for uid, c in partition.assignment.items():
        profile = by_id[c]
        entry = stances.get(uid)
        stance = entry.stance if entry is not None else Stance.NEUTRAL
        if stance is Stance.LEFT:
            profile.n_left += 1
        elif stance is Stance.RIGHT:
            profile.n_right += 1
        elif stance is Stance.CENTER:
            profile.n_center += 1
        else:
            profile.n_neutral += 1
    partition.per_community.sort(key=lambda p: (-p.size, p.community_id))
