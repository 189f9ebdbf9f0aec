"""Undirected, unweighted user interaction graphs from filtered tweets.

An edge joins a tweet's author to every distinct user it references
(retweeted, mentioned, quoted or replied-to); repeated interactions of any
kind collapse into the single edge, self-interactions are dropped, and
authors of reference-free tweets stay in the graph as isolated nodes.

A graph is its CSR adjacency over the sorted user ids.  Derived graphs
(ablations, the non-isolated core) are induced subgraphs cut from the
parent's CSR by a boolean keep-mask, so nodes and rows keep their order.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import Collection, Iterable, Sequence

import numpy as np

from .corpus import TweetRecord, utc_bounds

Window = tuple[datetime, datetime]


@dataclass(eq=False)
class InteractionGraph:
    """Immutable-by-convention simple graph for one time window.

    nodes are the ascending user ids; row i of the symmetric CSR adjacency
    (indptr, indices) lists the neighbours of nodes[i] in ascending order.
    Every downstream array (opinion vectors, solves) is aligned to nodes.
    """

    window: Window
    nodes: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_edges(cls, window: Window, nodes: Sequence[str],
                   edges: Collection[tuple[str, str]]) -> "InteractionGraph":
        """Graph on the sorted nodes from distinct (u, v) pairs, u != v."""
        index = {u: i for i, u in enumerate(nodes)}
        iu = np.fromiter((index[u] for u, _ in edges), np.int64, len(edges))
        iv = np.fromiter((index[v] for _, v in edges), np.int64, len(edges))
        rows, cols = np.concatenate([iu, iv]), np.concatenate([iv, iu])
        row_len = np.bincount(rows, minlength=len(nodes))
        return cls(window, tuple(nodes), _indptr(row_len),
                   cols[np.lexsort((cols, rows))])

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.indices) // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Sorted (u, v) pairs with u < v, read off the CSR's upper half."""
        rows = np.repeat(np.arange(self.n), self.degrees)
        upper = rows < self.indices
        nodes = self.nodes
        return tuple((nodes[i], nodes[j]) for i, j in
                     zip(rows[upper].tolist(), self.indices[upper].tolist()))

    def subgraph(self, keep: np.ndarray) -> "InteractionGraph":
        """Induced subgraph on the nodes where the boolean mask keep holds."""
        new_id = np.cumsum(keep) - 1
        kept = np.repeat(keep, self.degrees) & keep[self.indices]
        before = _indptr(kept)  # kept entries before each CSR position
        row_len = (before[self.indptr[1:]] - before[self.indptr[:-1]])[keep]
        return InteractionGraph(self.window,
                                tuple(compress(self.nodes, keep.tolist())),
                                _indptr(row_len),
                                new_id[self.indices[kept]])


def _indptr(counts: np.ndarray) -> np.ndarray:
    """Running totals of counts, starting from 0."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


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
    return InteractionGraph.from_edges(window, sorted(nodes), edges)


def day_window(d: date, offset_minutes: int = 0) -> Window:
    """UTC window covering local calendar date d under a fixed offset."""
    return utc_bounds(d, d, offset_minutes)


def daily_graphs(tweets: Sequence[TweetRecord],
                 offset_minutes: int = 0) -> list[tuple[date, InteractionGraph]]:
    """One graph per calendar date (under the offset) that has any tweet."""
    shift = timedelta(minutes=offset_minutes)
    by_date: dict[date, list[TweetRecord]] = {}
    for t in tweets:
        by_date.setdefault((t.timestamp + shift).date(), []).append(t)
    return [(d, build_graph(by_date[d], day_window(d, offset_minutes)))
            for d in sorted(by_date)]


def remove_nodes(g: InteractionGraph, victims: set[str],
                 drop_isolated: bool = False) -> InteractionGraph:
    """Induced subgraph on nodes minus victims.

    With drop_isolated, nodes whose degree fell to zero *because of* the
    removal are dropped too; nodes that were already isolated are kept.
    """
    if not victims:
        return g
    keep = np.fromiter((u not in victims for u in g.nodes), dtype=bool,
                       count=g.n)
    sub = g.subgraph(keep)
    if drop_isolated:
        sub = sub.subgraph((sub.degrees > 0) | (g.degrees[keep] == 0))
    return sub


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
        stance = _label(stances.get(u) if stances else None, "stance",
                        "Neutral")
        category = _label(annotations.get(u) if annotations else None,
                          "category", "Individual")
        for key_id, value in (("d0", u), ("d1", stance), ("d2", category)):
            data = ET.SubElement(node_el, "data", key=key_id)
            data.text = value
    for u, v in g.edges:
        ET.SubElement(graph_el, "edge", source=u, target=v)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(Path(path), encoding="utf-8", xml_declaration=True)


def _label(entry, attr: str, default: str) -> str:
    """entry.attr's enum value, or entry itself as a string."""
    if entry is None:
        return default
    value = getattr(entry, attr, entry)
    return getattr(value, "value", None) or str(value)
