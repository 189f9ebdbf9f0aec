"""Independent reference implementations used as test oracles.

Everything here works from a graph's node/edge lists with dense numpy (or
plain enumeration), deliberately avoiding the package's CSR kernels, sparse
solves and greedy code paths.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def dense_adjacency(g) -> np.ndarray:
    A = np.zeros((g.n, g.n))
    idx = {u: i for i, u in enumerate(g.nodes)}
    for u, v in g.edges:
        A[idx[u], idx[v]] = 1.0
        A[idx[v], idx[u]] = 1.0
    return A


def remove_nodes_reference(g, victims: set[str], drop_isolated: bool = False
                           ) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """(nodes, edges) of g minus victims, from string lists and degree dicts.

    With drop_isolated, nodes whose degree fell to zero because of the
    removal are dropped too; nodes that were already isolated are kept.
    """
    surviving = [u for u in g.nodes if u not in victims]
    kept_edges = [e for e in g.edges
                  if e[0] not in victims and e[1] not in victims]
    if drop_isolated:
        deg_before: dict[str, int] = {u: 0 for u in surviving}
        for u, v in g.edges:
            if u in deg_before:
                deg_before[u] += 1
            if v in deg_before:
                deg_before[v] += 1
        deg_after = {u: 0 for u in surviving}
        for u, v in kept_edges:
            deg_after[u] += 1
            deg_after[v] += 1
        surviving = [u for u in surviving
                     if deg_after[u] > 0 or deg_before[u] == 0]
    return tuple(surviving), tuple(kept_edges)


def csr_reference(nodes, edges) -> tuple[list[int], list[int]]:
    """(indptr, indices) of the symmetric adjacency, one sorted row per node."""
    idx = {u: i for i, u in enumerate(nodes)}
    rows: list[list[int]] = [[] for _ in nodes]
    for u, v in edges:
        rows[idx[u]].append(idx[v])
        rows[idx[v]].append(idx[u])
    indptr, indices = [0], []
    for row in rows:
        indices.extend(sorted(row))
        indptr.append(len(indices))
    return indptr, indices


def dense_fj(g, s: np.ndarray) -> np.ndarray:
    """Solve (I + L) z = s densely."""
    A = dense_adjacency(g)
    L = np.diag(A.sum(axis=1)) - A
    return np.linalg.solve(np.eye(g.n) + L, np.asarray(s, dtype=float))


def leading_eigenpair_dense(g) -> tuple[float, np.ndarray]:
    A = dense_adjacency(g)
    vals, vecs = np.linalg.eigh(A)
    lam = float(vals[-1])
    u = vecs[:, -1]
    if u.sum() < 0:
        u = -u
    return lam, u


def shield_value_dense(g, subset_indices, lam: float, u: np.ndarray) -> float:
    """Sv(S) = sum 2*lam*u_i^2 - ordered pairwise sum of A_ij u_i u_j."""
    A = dense_adjacency(g)
    S = list(subset_indices)
    total = sum(2.0 * lam * u[i] ** 2 for i in S)
    for i in S:
        for j in S:
            total -= A[i, j] * u[i] * u[j]
    return float(total)


def best_shield_subset(g, k: int, lam: float, u: np.ndarray):
    """Exhaustive argmax of Sv over all k-subsets; returns (subset, value)."""
    best, best_value = (), -np.inf
    for subset in combinations(range(g.n), k):
        value = shield_value_dense(g, subset, lam, u)
        if value > best_value:
            best, best_value = subset, value
    return best, best_value


def modularity_of(g, assignment: dict[str, int], resolution: float = 1.0) -> float:
    """Q = sum_c [e_c/m - resolution * (d_c/(2m))^2] from raw edge lists."""
    m = g.m
    if m == 0:
        return 0.0
    degrees = {u: 0 for u in g.nodes}
    for u, v in g.edges:
        degrees[u] += 1
        degrees[v] += 1
    communities = set(assignment.values())
    q = 0.0
    for c in communities:
        members = {u for u in g.nodes if assignment[u] == c}
        e_c = sum(1 for u, v in g.edges if u in members and v in members)
        d_c = sum(degrees[u] for u in members)
        q += e_c / m - resolution * (d_c / (2.0 * m)) ** 2
    return q


def iter_partitions(items: list):
    """All set partitions (restricted-growth enumeration)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in iter_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


def best_partition_modularity(g) -> float:
    """Exhaustive maximum modularity over every partition (tiny graphs only)."""
    best = -np.inf
    for partition in iter_partitions(list(g.nodes)):
        assignment = {u: c for c, block in enumerate(partition) for u in block}
        best = max(best, modularity_of(g, assignment))
    return best
