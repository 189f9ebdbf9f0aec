"""Influencer selection (NetShield) and community detection (Louvain).

NetShield greedily picks the k nodes maximizing the shield value

    Sv(S) = sum_{i in S} 2 lambda u_i^2 - sum_{i,j in S} A_ij u_i u_j

where (lambda, u) is the leading adjacency eigenpair, found by power
iteration, with CG's A x and inner product, to a fixed tolerance; picking
and score updates run in O(n k + m), within the O(n k^2 + m) class.

Louvain is the standard two-phase modularity heuristic: local moves to the
best positive-gain neighbouring community, then graph aggregation, repeated
until no move gains more than 1e-12.  The local moves run from a FIFO
queue: first every node in ascending dense-index order, then only the
neighbours of nodes that moved (Leiden's fast local move).  All
randomization is removed, so a given graph always yields the same
partition, its communities numbered by first appearance in ascending node
order.  The local-move loop is plain Python over lists, which is where
the interpreter indexes fastest.  Every level is a multigraph of unit
entries: aggregation keeps each inter-community CSR entry, so an edge of
weight w between two supernodes is w adjacent entries, and no level holds
more entries than level 1's 2m.
Modularity is Q = sum_c [e_c/m - (d_c/(2m))^2].  Aggregation carries
each community's intra weight e_c and degree d_c into its supernode, so Q
of a level's partition is a sum over the next level's nodes (Blondel et
al. 2008), and the final Q one over the last level's.  Each level is
logged at DEBUG with its nodes, its edges counted with multiplicity,
visits, moves, that Q and its seconds.
"""

from __future__ import annotations

import itertools
import logging
from collections import deque
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .graphkit import InteractionGraph
from .polarization import ConvergenceError, _adjacency, _dot
from .stance import STANCES

log = logging.getLogger(__name__)

_MIN_GAIN = 1e-12
_EIGEN_TOL = 1e-10
_EIGEN_MAX_ITER = 100_000


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
        return len(self.per_community)


# ---------------------------------------------------------------------------
# leading eigenpair
# ---------------------------------------------------------------------------


def leading_eigenpair(g: InteractionGraph) -> tuple[float, np.ndarray]:
    """Leading adjacency eigenvalue and Perron-oriented unit eigenvector.

    Power iteration on A + I (the unit shift keeps bipartite graphs, whose
    spectrum is symmetric, from oscillating between +/- lambda rays) from a
    uniform positive start, so the iterate stays nonnegative; lambda and
    the residual are reported for A itself.  Converged when
    ||A u - lambda u||_inf <= _EIGEN_TOL * max(1, lambda).
    """
    if g.n < 1:
        raise ValueError("graph must have at least one node")
    adj = _adjacency(g.indptr, g.indices)
    u = np.full(g.n, 1.0 / np.sqrt(g.n))
    for it in range(_EIGEN_MAX_ITER + 1):
        au = adj(u)
        lam = _dot(u, au)
        residual = float(np.max(np.abs(au - lam * u)))
        if residual <= _EIGEN_TOL * max(1.0, lam):
            return lam, u
        if it < _EIGEN_MAX_ITER:
            y = au + u
            u = y / np.sqrt(_dot(y, y))
    raise ConvergenceError(
        f"power iteration stalled at residual {residual:.3e} after "
        f"{_EIGEN_MAX_ITER} iterations (degenerate leading spectrum?)",
        residual, _EIGEN_MAX_ITER)


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
    # a picked node's base is -inf, so its score stays below every other
    base, twice_u = 2.0 * lam * u * u, 2.0 * u
    selected, scores = [], []
    for _ in range(k):
        score = base - twice_u * b
        best = int(np.argmax(score))  # first max = lowest index on ties
        selected.append(g.nodes[best])
        scores.append(float(score[best]))
        base[best] = -np.inf
        b[indices[indptr[best]:indptr[best + 1]]] += u[best]
    return ShieldRanking(selected=selected, shield_scores=scores)


# ---------------------------------------------------------------------------
# Louvain
# ---------------------------------------------------------------------------


def _louvain_level(indptr, indices, k_arr, m):
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
    deterministic; ties keep the earlier candidate.  Every level is a
    multigraph of unit entries: an edge of weight w is w equal, adjacent
    entries of the sorted row, so a row is a plain neighbour list and
    adding 1.0 per entry sums w(i->c) exactly.  The CSR carries no
    diagonal: a node's self-loop weight cancels out of every gain
    difference.  The level's arrays become Python lists once, since the
    loop indexes them one element at a time.
    """
    ptr, nbr = indptr.tolist(), indices.tolist()
    rows = [nbr[a:b] for a, b in zip(ptr, ptr[1:])]
    del ptr, nbr  # only the rows are read from here on
    k = k_arr.tolist()
    n = len(rows)
    comm = list(range(n))
    tot = list(k)
    two_m = 2.0 * m
    threshold = _MIN_GAIN * m
    queue = deque(range(n) if m else ())  # no edge, no move to try
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
        for j in row:
            c = comm[j]
            cw[c] = cw.get(c, 0.0) + 1.0
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
            # a repeated entry finds its neighbour queued or in best_c
            for j in row:
                if not queued[j] and comm[j] != best_c:
                    queued[j] = True
                    queue.append(j)
    return np.array(comm, dtype=np.int64), visits, moves


def _aggregate(indptr, indices, self_w, k, comm):
    """Collapse communities into supernodes; intra edges move to self_w,
    a supernode's degree k is the sum of its members' degrees, and every
    inter-community entry is kept, so the supernodes form a multigraph."""
    uniq, dense = np.unique(comm, return_inverse=True)
    nc = len(uniq)
    n = len(indptr) - 1
    rows = dense[np.repeat(np.arange(n), np.diff(indptr))]
    cols = dense[indices]
    intra = rows == cols
    new_self = np.bincount(rows[intra], minlength=nc) / 2.0
    new_self += np.bincount(dense, weights=self_w, minlength=nc)
    # one sorted key per entry gives the CSR in row-major order
    inter = ~intra
    keys = np.sort(rows[inter] * nc + cols[inter])
    new_indptr = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // nc, minlength=nc), out=new_indptr[1:])
    return (new_indptr, keys % nc, new_self,
            np.bincount(dense, weights=k, minlength=nc), dense)


def _modularity(self_w, k, m: float) -> float:
    """Q of the partition whose communities are one level's nodes: a
    node's self weight is its community's e_c, and its degree d_c."""
    if m == 0:
        return 0.0
    return float(np.sum(self_w / m - (k / (2.0 * m)) ** 2))


def louvain(g: InteractionGraph) -> CommunityPartition:
    """Deterministic Louvain partition and its modularity.

    An edgeless graph degenerates to singleton communities with Q = 0.
    Community ids are dense, numbered by first appearance in ascending
    node order.  Q is read off the last level, whose nodes are the
    communities; e_c and d_c are whole numbers there, so they are exact.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one node")
    indptr, indices = g.indptr, g.indices
    self_w = np.zeros(g.n, dtype=np.float64)
    k = g.degrees.astype(np.float64)
    m = float(g.m)
    node_comm = np.arange(g.n, dtype=np.int64)
    for level in itertools.count(1):
        n_level, m_level = len(k), len(indices) // 2
        start = perf_counter()
        comm, visits, moves = _louvain_level(indptr, indices, k, m)
        if moves:
            # dense[i] is the aggregated node id of level node i, so the
            # original-node map composes through it; every level with a move
            # strictly shrinks the graph, which bounds the loop
            indptr, indices, self_w, k, dense = _aggregate(
                indptr, indices, self_w, k, comm)
            node_comm = dense[node_comm]
        if log.isEnabledFor(logging.DEBUG):
            seconds = perf_counter() - start
            log.debug("louvain level %d: n=%d m=%d visits=%d moves=%d "
                      "Q=%.6f in %.3f s", level, n_level, m_level, visits,
                      moves, _modularity(self_w, k, m), seconds)
        if not moves:
            break

    # the last level's nodes are the communities; renumber them by first
    # appearance in ascending node order: a community's new id is the rank
    # of its first node among the first nodes, and order lists them so
    _, first = np.unique(node_comm, return_index=True)
    order = np.argsort(first)
    final = np.argsort(order)[node_comm]
    q = _modularity(self_w[order], k[order], m)
    profiles = [CommunityProfile(community_id=c, size=count)
                for c, count in enumerate(np.bincount(final).tolist())]
    return CommunityPartition(assignment=dict(zip(g.nodes, final.tolist())),
                              modularity=q, per_community=profiles)


def decompose_communities(partition: CommunityPartition,
                          labels: np.ndarray) -> None:
    """Fill in each community's stance tallies, and rank the communities.

    labels[i] is the stance code (an index into STANCES) of the i-th user
    of partition.assignment, whose order is the graph's node order, as in
    ``stances.over(g.users)[g.ids]``; ValueError if the lengths differ.
    per_community is sorted in place by size descending, community id
    ascending on ties, so its first entries are the largest communities.
    """
    if len(labels) != len(partition.assignment):
        raise ValueError("one stance label per partitioned user is needed")
    n = len(partition.per_community)
    comm = np.fromiter(partition.assignment.values(), np.int64)
    counts = np.bincount(comm * len(STANCES) + labels,
                         minlength=n * len(STANCES)).reshape(n, -1).tolist()
    for p in partition.per_community:
        p.n_left, p.n_right, p.n_center, p.n_neutral = counts[p.community_id]
    partition.per_community.sort(key=lambda p: (-p.size, p.community_id))
