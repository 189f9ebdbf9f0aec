"""Independent reference implementations used as test oracles.

The graph oracles work from a graph's node/edge lists with dense numpy (or
plain enumeration), deliberately avoiding the package's CSR kernels, sparse
solves and greedy code paths.  Two kernels that the package computes with
numpy alone keep their scipy.sparse forms here: the adjacency matvec, which
also drives the Jacobi-iteration FJ oracle, and Louvain's community
collapse.  Louvain's Q is recomputed per community over the original
graph, where the package reads it off its last level.  The corpus
oracles are the plain archive loader, record filter, follow-list loader
and text fold that the package's ingest path must reproduce:
``json.loads`` per line, a full
``TweetRecord`` per valid line filtered by walking every active rule,
``csv.DictReader`` rows, and a whole-string NFD -> strip marks -> NFC ->
casefold fold of every text; the record filter tests the study window
on UTC instants where the package tests local dates.  The stance
oracles are ``classify``, the stance rule on one user's tallies, and the
record forms the package ran before it held users as integers: a
``FollowRecord`` per follow pair, and a ``StanceAssignment`` per user,
tallied in a dict and looked up per graph node.  The package holds a tweet only as its
decoded object and checked fields, so the record types live here, with
``tweet_to_obj``, which writes a record as an archive object: the tests
build their archives from records, and what ``filtered.jsonl`` holds of a
kept line is ``tweet_to_obj`` of its reference record.
The stats oracle tallies the bundle's daily counts and the summary's
whole-window counters one tweet at a time; ``tokenize`` gives the words
it counts in one text, and ``letter_runs`` those words as written.
The graph and share oracles are the record loops
the package ran before it held the kept tweets as columns: sets of user ids and id pairs per tweet, tweets grouped by local
date, and a stance label looked up per tweet.
The annotation oracles hold annotations as the package did before it
held them as code columns: a dict from user id to an ``Account``, looked
up once per user.
The vocabularies (``KINDS``, ``CATEGORIES``, ``SIDES``, ``STANCES``) are
written out here, each in the code order of the package's own tuple, so
that a wrong or reordered name in the package fails a test; the records
and oracles hold names, never codes.
"""

from __future__ import annotations

import csv
import json
import re
import unicodedata
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from enum import Enum
from itertools import combinations
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np
import scipy.sparse as sp

from polmon.corpus import (CorpusFormatError, FilterReport, FilterRule,
                           RuleSet, _parse_timestamp, fold_text,
                           normalize_hashtag)
from polmon.graphkit import InteractionGraph
from polmon.pipeline import StanceShares, rounded_percentages

KINDS = ("original", "retweet", "quote", "reply")
CATEGORIES = ("Individual", "MediaJournalist", "Political", "Organization",
              "Bot")
SIDES = ("Left", "Right", "Center")
STANCES = ("Left", "Right", "Center", "Neutral")


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


class Account(NamedTuple):
    """An account's annotation in the dict form of the annotations."""
    category: str  # one of CATEGORIES
    side: str | None = None  # one of SIDES


def ablation_victims_reference(annotations, influencer_set, users
                               ) -> dict[str, np.ndarray]:
    """The masks ablation_victims gives over the user table users, from a
    lookup of each user in the dict annotations and in a set of the
    picks."""
    category = [getattr(annotations.get(u), "category", None) for u in users]
    chosen = set(influencer_set)
    return {"Political": np.array([c == "Political" for c in category],
                                  bool),
            "MediaJournalist": np.array([c == "MediaJournalist"
                                         for c in category], bool),
            "Influencers": np.array([u in chosen for u in users], bool)}


def export_graph_reference(g, path, stances=None, annotations=None) -> None:
    """GraphML through a whole ElementTree, ET.indent and ElementTree.write.

    The writer ``graphkit.export_graph`` streams; it must produce these
    bytes.  Labels follow the same rule: an entry's .stance / .category,
    or the entry itself as a string; missing entries are Neutral /
    Individual.
    """
    def label(entry, attr, default):
        return default if entry is None else str(getattr(entry, attr, entry))

    root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    for key_id, name in (("d0", "user_id"), ("d1", "stance"),
                         ("d2", "category")):
        ET.SubElement(root, "key", id=key_id, **{
            "for": "node", "attr.name": name, "attr.type": "string"})
    graph_el = ET.SubElement(root, "graph", id="G", edgedefault="undirected")
    for u in g.nodes:
        node_el = ET.SubElement(graph_el, "node", id=u)
        stance = label(stances.get(u) if stances else None, "stance",
                       "Neutral")
        category = label(annotations.get(u) if annotations else None,
                         "category", "Individual")
        for key_id, value in (("d0", u), ("d1", stance), ("d2", category)):
            ET.SubElement(node_el, "data", key=key_id).text = value
    for u, v in g.edges:
        ET.SubElement(graph_el, "edge", source=u, target=v)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(Path(path), encoding="utf-8", xml_declaration=True)


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


def adjacency_scipy(indptr, indices) -> sp.csr_matrix:
    """The CSR's 0/1 adjacency matrix A as a ``scipy.sparse.csr_matrix``."""
    n = len(indptr) - 1
    return sp.csr_matrix((np.ones(len(indices)), indices, indptr),
                         shape=(n, n))


def adjacency_matvec_scipy(indptr, indices, x: np.ndarray) -> np.ndarray:
    """A x through ``scipy.sparse.csr_matrix``, A the CSR's 0/1 adjacency."""
    return adjacency_scipy(indptr, indices) @ x


def aggregate_scipy(indptr, indices, weights, self_w, k, comm):
    """Louvain's community collapse through scipy's coo -> csr conversion.

    The weighted form of ``structure._aggregate``: it takes each entry's
    weight and returns (indptr, indices, weights, self weights, degrees,
    dense community of each node), one entry per pair of supernodes that
    holds the pair's summed weight.  k is not read: a supernode's degree
    is the collapsed matrix's row sum plus twice its self weight.
    """
    uniq, dense = np.unique(comm, return_inverse=True)
    nc = len(uniq)
    n = len(indptr) - 1
    rows = dense[np.repeat(np.arange(n), np.diff(indptr))]
    cols = dense[indices]
    intra = rows == cols
    new_self = np.bincount(rows[intra], weights=weights[intra],
                           minlength=nc) / 2.0
    new_self += np.bincount(dense, weights=self_w, minlength=nc)
    mat = sp.coo_matrix((weights[~intra], (rows[~intra], cols[~intra])),
                        shape=(nc, nc)).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    degrees = np.asarray(mat.sum(axis=1), dtype=np.float64).ravel()
    return (mat.indptr.astype(np.int64), mat.indices.astype(np.int64),
            mat.data.astype(np.float64), new_self, degrees + 2.0 * new_self,
            dense)


def assignment_modularity(indptr, indices, weights, self_w, comm) -> float:
    """Q of the partition comm (dense ids) of a weighted CSR level, summed
    per community from its intra edges and its members' degrees; on the
    original graph this is the Q that ``louvain`` must return."""
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


def dense_fj(g, s: np.ndarray) -> np.ndarray:
    """Solve (I + L) z = s densely."""
    A = dense_adjacency(g)
    L = np.diag(A.sum(axis=1)) - A
    return np.linalg.solve(np.eye(g.n) + L, np.asarray(s, dtype=float))


def fixed_point_fj(g, s: np.ndarray, tol: float = 1e-10,
                   max_iter: int | None = None) -> np.ndarray:
    """Solve (I + L) z = s by the Jacobi iteration z <- (s + A z) / (1 + deg).

    Starts from z = s and returns the first iterate whose max-norm
    residual is at most tol; the adjacency product goes through
    ``scipy.sparse``.  Fails the calling test if max_iter sweeps (default
    10 n + 1000) do not get there.
    """
    s = np.asarray(s, dtype=np.float64)
    adj = adjacency_scipy(g.indptr, g.indices)
    diag = 1.0 + np.diff(g.indptr)
    if max_iter is None:
        max_iter = 10 * g.n + 1000
    z = s.copy()
    for _ in range(max_iter + 1):
        az = adj @ z
        if np.max(np.abs(diag * z - az - s), initial=0.0) <= tol:
            return z
        z = (s + az) / diag
    raise AssertionError(f"Jacobi iteration did not reach {tol} "
                         f"in {max_iter} sweeps")


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


def modularity_of(g, assignment: dict[str, int]) -> float:
    """Q = sum_c [e_c/m - (d_c/(2m))^2] from raw edge lists."""
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
        q += e_c / m - (d_c / (2.0 * m)) ** 2
    return q


def sweep_louvain_level(indptr, indices, k_arr, m):
    """Louvain local moves swept to a fixpoint: the schedule before the queue.

    Same arguments, gains, first-touch candidate order, strict
    ``> best + 1e-12 * m`` rule and return value (comm, visits, moves) as
    ``structure._louvain_level``, but every sweep visits all nodes in
    ascending order until one sweep moves none.  A row's repeated entries
    are summed into (neighbour, weight) pairs first, and the sweep adds
    each pair's weight.  Substituted for ``_louvain_level``, it makes
    ``louvain`` the reference partition.
    """
    ptr, nbr = indptr.tolist(), indices.tolist()
    rows = [list(Counter(nbr[a:b]).items()) for a, b in zip(ptr, ptr[1:])]
    k = k_arr.tolist()
    comm = list(range(len(rows)))
    tot = list(k)
    threshold = 1e-12 * m
    visits = moves = 0
    while True:
        sweep_moves = 0
        for i, row in enumerate(rows):
            c_old = comm[i]
            tot[c_old] -= k[i]
            cw: dict[int, float] = {}
            for j, wj in row:
                cw[comm[j]] = cw.get(comm[j], 0.0) + wj
            scale = k[i] / (2.0 * m)
            best_c = c_old
            best_g = cw.get(c_old, 0.0) - tot[c_old] * scale
            for c, wc in cw.items():
                if c != c_old:
                    gain = wc - tot[c] * scale
                    if gain > best_g + threshold:
                        best_c, best_g = c, gain
            comm[i] = best_c
            tot[best_c] += k[i]
            sweep_moves += best_c != c_old
        visits += len(rows)
        moves += sweep_moves
        if sweep_moves == 0:
            return np.array(comm, dtype=np.int64), visits, moves


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


class MediaKind(Enum):
    IMAGE = "image"
    VIDEO = "video"


@dataclass
class MediaItem:
    kind: MediaKind
    url: str


@dataclass
class TweetRecord:
    tweet_id: str
    author_id: str
    timestamp: datetime  # tz-aware UTC
    text: str
    lang: str
    kind: str  # one of KINDS
    hashtags: list[str] = field(default_factory=list)
    urls: list[str] = field(default_factory=list)
    media: list[MediaItem] = field(default_factory=list)
    referenced_user_ids: list[str] = field(default_factory=list)
    referenced_tweet_id: str | None = None
    like_count: int = 0
    retweet_count: int = 0
    reply_count: int = 0


def tweet_to_obj(t: TweetRecord) -> dict:
    """The archive object of a record: inverse of parse_tweet_reference."""
    ts = t.timestamp.isoformat(
        timespec="microseconds" if t.timestamp.microsecond else "seconds")
    return {
        "tweet_id": t.tweet_id,
        "author_id": t.author_id,
        "timestamp": ts.replace("+00:00", "Z"),
        "text": t.text,
        "lang": t.lang,
        "kind": t.kind,
        "hashtags": list(t.hashtags),
        "urls": list(t.urls),
        "media": [{"kind": m.kind.value, "url": m.url} for m in t.media],
        "referenced_user_ids": list(t.referenced_user_ids),
        "referenced_tweet_id": t.referenced_tweet_id,
        "like_count": t.like_count,
        "retweet_count": t.retweet_count,
        "reply_count": t.reply_count,
    }


def fold_text_reference(s: str) -> str:
    """Casefold and strip accents, folding the whole string at once."""
    decomposed = unicodedata.normalize("NFD", s)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return unicodedata.normalize("NFC", stripped).casefold()


def _json_scalar(value) -> bool:
    """Whether value is a JSON string or integer; JSON true and false
    decode to bool, which is an int subclass."""
    return isinstance(value, (str, int)) and not isinstance(value, bool)


def parse_tweet_reference(obj: dict) -> TweetRecord:
    """A validated TweetRecord, building every field from scratch."""
    for name in ("tweet_id", "author_id", "timestamp", "text", "lang",
                 "kind"):
        if name not in obj or obj[name] is None:
            raise CorpusFormatError(f"missing field {name!r}")
        if not _json_scalar(obj[name]):
            raise CorpusFormatError(
                f"{name} is not a string or an integer: {obj[name]!r}")
    kind = str(obj["kind"]).lower()
    if kind not in KINDS:
        raise CorpusFormatError(f"unknown kind {obj['kind']!r}")
    if not isinstance(obj["timestamp"], str):
        raise CorpusFormatError(
            f"timestamp is not a string: {obj['timestamp']!r}")
    try:
        ts = _parse_timestamp(obj["timestamp"])
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
    if kind != "original" and not refs:
        raise CorpusFormatError(
            f"{kind} tweet must reference at least one user")
    counts = {}
    for name in ("like_count", "retweet_count", "reply_count"):
        value = obj.get(name)
        if value is None:
            value = 0
        elif type(value) is not int or value < 0:
            raise CorpusFormatError(
                f"{name} is not a non-negative integer: {value!r}")
        counts[name] = value
    ref_tweet = obj.get("referenced_tweet_id")
    if ref_tweet is not None and not _json_scalar(ref_tweet):
        raise CorpusFormatError("referenced_tweet_id is not a string or an "
                                f"integer: {ref_tweet!r}")
    media = []
    items = obj.get("media")
    if items is not None and type(items) is not list:
        raise CorpusFormatError(f"media is not a list: {items!r}")
    for item in items or ():
        try:
            if not _json_scalar(item["url"]):
                raise TypeError
            media.append(MediaItem(kind=MediaKind(str(item["kind"]).lower()),
                                   url=str(item["url"])))
        except (KeyError, ValueError, TypeError):
            raise CorpusFormatError(f"bad media item {item!r}") from None
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

    The file's bytes are split at LF, and each line is decoded as strict
    UTF-8 on its own: a line that is not UTF-8 is malformed.  So is a line
    whose record cannot be written back out as UTF-8 (a lone surrogate
    escape in a field it keeps).
    """
    path = Path(path)
    for lineno, raw in enumerate(path.read_bytes().split(b"\n"), start=1):
        try:
            line = raw.decode("utf-8").strip(" \t\r\n")
            if not line:
                continue
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise CorpusFormatError("line is not an object")
            record = parse_tweet_reference(obj)
            json.dumps(tweet_to_obj(record),
                       ensure_ascii=False).encode("utf-8")
        except (ValueError, TypeError) as exc:
            if schema_strict:
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
            if error_log is not None:
                error_log.append((lineno, str(exc)))
            continue
        yield record


def _utc_window(rule_set: RuleSet) -> tuple[datetime, datetime]:
    """UTC [start, end) of the instants whose local date lies in the study
    window, clamped at the calendar's ends: an instant whose local date
    falls past date.min or date.max is outside."""
    lo, hi = rule_set.study_window
    shift = timedelta(minutes=rule_set.date_offset_minutes)
    try:
        start = datetime.combine(lo, time.min, tzinfo=timezone.utc) - shift
    except OverflowError:
        start = datetime.min.replace(tzinfo=timezone.utc)
    try:  # the shift is under a day: only hi == date.max overflows
        end = (datetime.combine(hi, time.min, tzinfo=timezone.utc)
               + (timedelta(days=1) - shift))
    except OverflowError:  # just past datetime.max in UTC
        end = datetime.max.replace(
            tzinfo=timezone(-timedelta(microseconds=1)))
    return start, end


def filter_corpus_reference(rule_set: RuleSet,
                            tweets: Iterable[TweetRecord]) -> tuple[list[TweetRecord], FilterReport]:
    """Order-preserving rule filter with per-rule hit accounting; the study
    window is tested on UTC instants, by _utc_window."""
    kept: list[TweetRecord] = []
    report = FilterReport()
    start, end = _utc_window(rule_set)
    active_on: dict[date, list[tuple[FilterRule, str]]] = {}
    for t in tweets:
        report.total += 1
        if t.lang not in rule_set.language_whitelist:
            report.dropped_lang += 1
            continue
        if not start <= t.timestamp < end:
            report.dropped_window += 1
            continue
        d = rule_set.local_date(t.timestamp)
        if d not in active_on:
            active_on[d] = [(rule, f"{rule.mode}:{rule.term}")
                            for rule in rule_set.rules
                            if rule.window_contains(d)]
        hit, folded = False, None  # the text is folded at most once
        for rule, key in active_on[d]:
            if rule.mode == "hashtag":
                if rule.term not in t.hashtags:
                    continue
            else:
                if folded is None:
                    folded = fold_text(t.text)
                if rule.folded_term not in folded:
                    continue
            report.rule_hits[key] += 1
            hit = True
        if hit:
            report.kept += 1
            kept.append(t)
        else:
            report.dropped_no_rule += 1
    return kept, report


# ---------------------------------------------------------------------------
# follow and stance references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FollowRecord:
    follower_id: str
    followed_political_id: str


def load_follows_reference(path, annotations=None, duplicates=None
                           ) -> list[FollowRecord]:
    """Follow records through csv.DictReader; duplicates collapse, and
    each one's "path:line: duplicate follow pair (follower, followed)"
    message is appended to the list duplicates when one is given."""
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
                if duplicates is not None:
                    duplicates.append(f"{where}: duplicate follow pair {pair}")
                continue
            seen.add(pair)
            if annotations is not None:
                ann = annotations.get(pair[1])
                if ann is None or ann.category != "Political":
                    raise CorpusFormatError(
                        f"{where}: followed id {pair[1]!r} is not political")
            records.append(FollowRecord(*pair))
    return records


@dataclass(frozen=True)
class StanceAssignment:
    user_id: str
    stance: str  # one of STANCES
    n_left: int
    n_right: int
    n_center: int
    threshold_used: float


def classify(n_left: int, n_right: int, n_center: int,
             threshold: float = 0.0) -> str:
    """The stance rule on one user's raw tallies, which stance.labels
    applies to a whole tally array."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    total = n_left + n_right + n_center
    if total == 0:
        return "Neutral"
    if n_left > n_right and n_left >= threshold * total:
        return "Left"
    if n_right > n_left and n_right >= threshold * total:
        return "Right"
    return "Center"


_SIDE_SLOT = {"Left": 0, "Right": 1, "Center": 2}


def stance_map_reference(follows, annotations, threshold=0.0,
                         ensure_users=()) -> dict[str, StanceAssignment]:
    """A StanceAssignment per follower and per user of ensure_users, from
    a [left, right, center] tally per follower built one record at a
    time; a followed id without a Political annotation raises KeyError."""
    counts: dict[str, list[int]] = {}
    for f in follows:
        ann = annotations.get(f.followed_political_id)
        if ann is None or ann.category != "Political":
            raise KeyError(f.followed_political_id)
        counts.setdefault(f.follower_id, [0, 0, 0])[_SIDE_SLOT[ann.side]] += 1
    out = {uid: StanceAssignment(uid, classify(*tally, threshold), *tally,
                                 threshold)
           for uid, tally in counts.items()}
    for uid in ensure_users:
        if uid not in out:
            out[uid] = StanceAssignment(uid, classify(0, 0, 0, threshold),
                                        0, 0, 0, threshold)
    return out


def opinion_vector_reference(g, stances) -> np.ndarray:
    """+1 for each Right node of g, -1 for each Left one, from a lookup of
    its user id in the dict stances; 0 otherwise."""
    sign = {"Right": 1.0, "Left": -1.0}
    return np.array([sign.get(getattr(stances.get(u), "stance", None), 0.0)
                     for u in g.nodes])


def write_stance_csv_reference(stances, path) -> None:
    """stance.csv from StanceAssignments, one row each in user id order."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user_id", "stance", "n_left", "n_right",
                         "n_center", "threshold"])
        for uid in sorted(stances):
            a = stances[uid]
            writer.writerow([uid, a.stance, a.n_left, a.n_right,
                             a.n_center, format(a.threshold_used, "g")])


# ---------------------------------------------------------------------------
# stats reference
# ---------------------------------------------------------------------------


def letter_runs(text: str) -> list[str]:
    """The runs of letters of a text, in order, as written."""
    return re.findall(r"[^\W\d_]+", text)


def tokenize(text: str) -> list[str]:
    """The words window_counts counts in a text: its letter runs, each
    folded by the package's fold_text."""
    return [fold_text(w) for w in letter_runs(text)]


def stats_reference(tweets, stopwords=(), offset_minutes: int = 0):
    """(rows, counters) as compute_stats and window_counts report them,
    tallied per tweet.

    rows are (date, n_posts, n_by_kind, n_users, n_hashtags, n_urls) in
    ascending date, a tweet's date being that of its timestamp shifted by
    the offset; counters hold the whole input's hashtags, words, phrases,
    mentioned_users and active_users.  Words are the letter runs of the
    text, each folded by fold_text_reference, minus the stopwords folded
    alike.
    """
    stopwords = set(map(fold_text_reference, stopwords))
    shift = timedelta(minutes=offset_minutes)
    days: dict = {}
    counters = {key: Counter() for key in ("hashtags", "words", "phrases",
                                           "mentioned_users", "active_users")}
    for t in tweets:
        days.setdefault((t.timestamp + shift).date(), []).append(t)
        counters["hashtags"].update(t.hashtags)
        counters["mentioned_users"].update(t.referenced_user_ids)
        counters["active_users"][t.author_id] += 1
        words = [w for w in map(fold_text_reference, letter_runs(t.text))
                 if w not in stopwords]
        counters["words"].update(words)
        counters["phrases"].update(
            f"{a} {b}" for a, b in zip(words, words[1:]))
    rows = [(d, len(day),
             {k: sum(t.kind == k for t in day) for k in KINDS},
             len({t.author_id for t in day}),
             len({h for t in day for h in t.hashtags}),
             len({u for t in day for u in t.urls}))
            for d, day in sorted(days.items())]
    return rows, counters


# ---------------------------------------------------------------------------
# record-path references for the graph and share stages
# ---------------------------------------------------------------------------


def by_local_date_reference(tweets, offset_minutes: int = 0):
    """Tweets grouped by calendar date under the offset, in ascending date
    order; each group keeps the input order."""
    shift = timedelta(minutes=offset_minutes)
    groups: dict = {}
    for t in tweets:
        groups.setdefault((t.timestamp + shift).date(), []).append(t)
    return sorted(groups.items())


def build_graph_reference(tweets) -> InteractionGraph:
    """Graph of the tweets' interactions, from sets of ids and id pairs."""
    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for t in tweets:
        u = t.author_id
        nodes.add(u)
        for ref in t.referenced_user_ids:
            if ref == u:
                continue
            nodes.add(ref)
            edges.add((u, ref) if u < ref else (ref, u))
    ordered = sorted(nodes)
    indptr, indices = csr_reference(ordered, sorted(edges))
    return InteractionGraph(tuple(ordered), np.arange(len(ordered)),
                            np.array(indptr, np.int64),
                            np.array(indices, np.int64))


def daily_graphs_reference(tweets, offset_minutes: int = 0):
    """build_graph_reference of each local day's tweets."""
    return [(d, build_graph_reference(group))
            for d, group in by_local_date_reference(tweets, offset_minutes)]


def stance_shares_reference(tweets, stances) -> StanceShares:
    """Shares from a stance label looked up for every tweet's author in
    the dict stances (user id -> stance name; Neutral when missing)."""
    tweet_counts = dict.fromkeys(STANCES, 0)
    user_counts = dict.fromkeys(STANCES, 0)
    seen: set[str] = set()
    for t in tweets:
        label = stances.get(t.author_id, "Neutral")
        tweet_counts[label] += 1
        if t.author_id not in seen:
            seen.add(t.author_id)
            user_counts[label] += 1
    return StanceShares(tweet_counts=tweet_counts, user_counts=user_counts,
                        tweet_pct=rounded_percentages(tweet_counts),
                        user_pct=rounded_percentages(user_counts))
