"""Independent reference implementations used as test oracles.

The graph oracles work from a graph's node/edge lists with dense numpy (or
plain enumeration), deliberately avoiding the package's CSR kernels, sparse
solves and greedy code paths.  The corpus oracles are the plain archive
loader, follow-list loader and text fold that the package's ingest path
must reproduce: ``json.loads`` per line, ``csv.DictReader`` rows, and a
whole-string NFD -> strip marks -> NFC -> casefold fold of every text.
"""

from __future__ import annotations

import csv
import json
import unicodedata
from itertools import combinations
from pathlib import Path

import numpy as np

from polmon.corpus import (Category, CorpusFormatError, FollowRecord, Kind,
                           MediaItem, MediaKind, TweetRecord,
                           _parse_timestamp, normalize_hashtag)


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


# ---------------------------------------------------------------------------
# corpus ingest references
# ---------------------------------------------------------------------------


def fold_text_reference(s: str) -> str:
    """Casefold and strip accents, folding the whole string at once."""
    decomposed = unicodedata.normalize("NFD", s)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return unicodedata.normalize("NFC", stripped).casefold()


def parse_tweet_reference(obj: dict) -> TweetRecord:
    """A validated TweetRecord, building every field from scratch."""
    for name in ("tweet_id", "author_id", "timestamp", "text", "lang",
                 "kind"):
        if name not in obj or obj[name] is None:
            raise CorpusFormatError(f"missing field {name!r}")
    try:
        kind = Kind(str(obj["kind"]).lower())
    except ValueError:
        raise CorpusFormatError(f"unknown kind {obj['kind']!r}") from None
    try:
        ts = _parse_timestamp(str(obj["timestamp"]))
    except (ValueError, OverflowError):
        raise CorpusFormatError(
            f"unparseable timestamp {obj['timestamp']!r}") from None
    lists = {}
    for name in ("hashtags", "urls", "referenced_user_ids"):
        value = obj.get(name)
        if value is None:
            value = []
        try:
            if type(value) is not list:
                raise TypeError
            "".join(value)
        except TypeError:
            raise CorpusFormatError(
                f"{name} is not a list of strings: {value!r}") from None
        lists[name] = value
    refs = list(lists["referenced_user_ids"])
    if kind is not Kind.ORIGINAL and not refs:
        raise CorpusFormatError(
            f"{kind.value} tweet must reference at least one user")
    counts = {}
    for name in ("like_count", "retweet_count", "reply_count"):
        value = obj.get(name)
        if value is None:
            value = 0
        elif type(value) is not int or value < 0:
            raise CorpusFormatError(
                f"{name} is not a non-negative integer: {value!r}")
        counts[name] = value
    media = []
    items = obj.get("media")
    if items is not None and type(items) is not list:
        raise CorpusFormatError(f"media is not a list: {items!r}")
    for item in items or ():
        try:
            media.append(MediaItem(kind=MediaKind(str(item["kind"]).lower()),
                                   url=str(item["url"])))
        except (KeyError, ValueError, TypeError):
            raise CorpusFormatError(f"bad media item {item!r}") from None
    ref_tweet = obj.get("referenced_tweet_id")
    return TweetRecord(
        tweet_id=str(obj["tweet_id"]), author_id=str(obj["author_id"]),
        timestamp=ts, text=str(obj["text"]), lang=str(obj["lang"]),
        kind=kind, hashtags=[normalize_hashtag(h) for h in lists["hashtags"]],
        urls=list(lists["urls"]), media=media, referenced_user_ids=refs,
        referenced_tweet_id=None if ref_tweet is None else str(ref_tweet),
        **counts)


def load_tweets_reference(path, schema_strict: bool = False,
                          error_log: list | None = None):
    """Records of a line-delimited archive, by json.loads per line.

    Reads strict UTF-8, so a file that is not UTF-8 raises
    UnicodeDecodeError here.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise CorpusFormatError("line is not an object")
                record = parse_tweet_reference(obj)
            except (ValueError, TypeError) as exc:
                if schema_strict:
                    raise CorpusFormatError(
                        f"{path}:{lineno}: {exc}") from exc
                if error_log is not None:
                    error_log.append((lineno, str(exc)))
                continue
            yield record


def load_follows_reference(path, annotations=None) -> list[FollowRecord]:
    """Follow records through csv.DictReader; duplicates collapse."""
    path = Path(path)
    seen, records = set(), []
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if (reader.fieldnames is None
                or "follower_id" not in reader.fieldnames
                or "followed_political_id" not in reader.fieldnames):
            raise CorpusFormatError(f"{path}:1: bad follow-list header")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            pair = ((row.get("follower_id") or "").strip(),
                    (row.get("followed_political_id") or "").strip())
            if not pair[0] or not pair[1]:
                raise CorpusFormatError(f"{where}: incomplete follow row")
            if pair in seen:
                continue
            seen.add(pair)
            if annotations is not None:
                ann = annotations.get(pair[1])
                if ann is None or ann.category is not Category.POLITICAL:
                    raise CorpusFormatError(
                        f"{where}: followed id {pair[1]!r} is not political")
            records.append(FollowRecord(*pair))
    return records
