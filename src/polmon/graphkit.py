"""Undirected, unweighted user interaction graphs from filtered tweets.

An edge joins a tweet's author to every distinct user it references
(retweeted, mentioned, quoted or replied-to); repeated interactions of any
kind collapse into the single edge, self-interactions are dropped, and
authors of reference-free tweets stay in the graph as isolated nodes.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import TweetRecord

Window = tuple[datetime, datetime]


@dataclass(eq=False)
class InteractionGraph:
    """Immutable-by-convention simple graph for one time window.

    Nodes are sorted ascending user_id; edges are stored as (u, v) pairs
    with u < v, sorted.  node_index is the dense index every downstream
    array (opinion vectors, CSR adjacency) is aligned to.
    """

    window: Window
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    @cached_property
    def node_index(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.nodes)}

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the symmetric adjacency, rows sorted."""
        idx = self.node_index
        n = self.n
        if not self.edges:
            return np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        iu = np.fromiter((idx[u] for u, _ in self.edges), dtype=np.int64)
        iv = np.fromiter((idx[v] for _, v in self.edges), dtype=np.int64)
        rows = np.concatenate([iu, iv])
        cols = np.concatenate([iv, iu])
        order = np.lexsort((cols, rows))
        indices = cols[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return indptr, indices

    @cached_property
    def degrees(self) -> np.ndarray:
        indptr, _ = self.csr
        return np.diff(indptr)

    def degree_of(self, user_id: str) -> int:
        return int(self.degrees[self.node_index[user_id]])


def build_graph(tweets: Iterable[TweetRecord], window: Window) -> InteractionGraph:
    """Graph of all interactions with timestamp in [window.start, window.end)."""
    start, end = window
    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for t in tweets:
        if not (start <= t.timestamp < end):
            continue
        u = t.author_id
        nodes.add(u)
        for ref in t.referenced_user_ids:
            if ref == u:
                continue
            nodes.add(ref)
            edges.add((u, ref) if u < ref else (ref, u))
    return InteractionGraph(window=window, nodes=tuple(sorted(nodes)),
                            edges=tuple(sorted(edges)))


def day_window(d: date, offset_minutes: int = 0) -> Window:
    """UTC window covering local calendar date d under a fixed offset."""
    shift = timedelta(minutes=offset_minutes)
    start = datetime.combine(d, time.min, tzinfo=timezone.utc) - shift
    return start, start + timedelta(days=1)


def daily_graphs(tweets: Sequence[TweetRecord],
                 offset_minutes: int = 0) -> list[tuple[date, InteractionGraph]]:
    """One graph per calendar date (under the offset) that has any tweet."""
    shift = timedelta(minutes=offset_minutes)
    by_date: dict[date, list[TweetRecord]] = {}
    for t in tweets:
        by_date.setdefault((t.timestamp + shift).date(), []).append(t)
    out = []
    for d in sorted(by_date):
        out.append((d, build_graph(by_date[d], day_window(d, offset_minutes))))
    return out


def remove_nodes(g: InteractionGraph, victims: set[str],
                 drop_isolated: bool = False) -> InteractionGraph:
    """Induced subgraph on nodes minus victims.

    With drop_isolated, nodes whose degree fell to zero *because of* the
    removal are dropped too; nodes that were already isolated are kept.
    """
    if not victims:
        return g
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
    return InteractionGraph(window=g.window, nodes=tuple(surviving),
                            edges=tuple(kept_edges))


# ---------------------------------------------------------------------------
# GraphML export
# ---------------------------------------------------------------------------

_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"


def export_graph(g: InteractionGraph, path: str | Path,
                 stances: dict | None = None,
                 annotations: dict | None = None) -> None:
    """Write GraphML with user_id, stance and category node attributes.

    stance values come from a stance map (objects with a .stance attribute
    or plain strings); categories from account annotations.  Missing entries
    default to Neutral / Individual.
    """
    root = ET.Element("graphml", xmlns=_GRAPHML_NS)
    for key_id, name in (("d0", "user_id"), ("d1", "stance"), ("d2", "category")):
        ET.SubElement(root, "key", id=key_id, **{
            "for": "node", "attr.name": name, "attr.type": "string"})
    graph_el = ET.SubElement(root, "graph", id="G", edgedefault="undirected")
    for u in g.nodes:
        node_el = ET.SubElement(graph_el, "node", id=u)
        stance = _stance_name(stances.get(u)) if stances else "Neutral"
        category = _category_name(annotations.get(u)) if annotations else "Individual"
        for key_id, value in (("d0", u), ("d1", stance), ("d2", category)):
            data = ET.SubElement(node_el, "data", key=key_id)
            data.text = value
    for u, v in g.edges:
        ET.SubElement(graph_el, "edge", source=u, target=v)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(Path(path), encoding="utf-8", xml_declaration=True)


def _stance_name(entry) -> str:
    if entry is None:
        return "Neutral"
    stance = getattr(entry, "stance", entry)
    return getattr(stance, "value", None) or str(stance)


def _category_name(entry) -> str:
    if entry is None:
        return "Individual"
    category = getattr(entry, "category", entry)
    return getattr(category, "value", None) or str(category)
