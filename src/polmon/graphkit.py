"""Undirected, unweighted user interaction graphs from filtered tweets.

An edge joins a tweet's author to every distinct user it references
(retweeted, mentioned, quoted or replied-to); repeated interactions of any
kind collapse into the single edge, self-interactions are dropped, and
authors of reference-free tweets stay in the graph as isolated nodes.

A graph is its CSR adjacency and ids, its nodes' ascending ids into a
sorted user table (a Corpus's users) that gives the node strings on
demand.  build_graph builds it from a Corpus's id columns with array
operations, over every tweet of the corpus, so its nodes are all the
corpus's users; daily_graphs builds one per local day.  Derived graphs
(ablations, the non-isolated core) are induced subgraphs cut by a boolean
keep-mask.  Arrays over the user table (stance labels, removal masks)
apply to every one of these graphs by indexing with ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from functools import cached_property
from pathlib import Path

import numpy as np

from .corpus import CATEGORIES, Annotations, Corpus, _distinct, join_onto
from .stance import STANCES, StanceMap


@dataclass(eq=False)
class InteractionGraph:
    """Immutable-by-convention simple graph.

    users is a sorted user table and ids the ascending ids of the nodes
    in it; row i of the symmetric CSR adjacency (indptr, indices) lists
    the neighbours of node i in ascending order.  Every downstream array
    (opinion vectors, solves) is aligned to the nodes.
    """

    users: tuple[str, ...]
    ids: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_pairs(cls, users: tuple[str, ...], ids: np.ndarray,
                   iu: np.ndarray, iv: np.ndarray) -> "InteractionGraph":
        """Graph whose nodes have the ids into users, with an edge between
        nodes iu[k] and iv[k] for each k; the pairs are distinct and
        iu[k] != iv[k]."""
        rows, cols = np.concatenate([iu, iv]), np.concatenate([iv, iu])
        row_len = np.bincount(rows, minlength=len(ids))
        return cls(users, ids, _indptr(row_len),
                   cols[np.lexsort((cols, rows))])

    @cached_property
    def nodes(self) -> tuple[str, ...]:
        """The ascending user ids of the nodes."""
        return tuple(map(self.users.__getitem__, self.ids.tolist()))

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def m(self) -> int:
        return len(self.indices) // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(i, j) node indices of the edges, i < j, from the CSR's upper half."""
        rows = np.repeat(np.arange(self.n), self.degrees)
        upper = rows < self.indices
        return rows[upper], self.indices[upper]

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Sorted (u, v) pairs with u < v."""
        nodes = self.nodes
        iu, iv = self.edge_index
        return tuple((nodes[i], nodes[j])
                     for i, j in zip(iu.tolist(), iv.tolist()))

    def subgraph(self, keep: np.ndarray) -> "InteractionGraph":
        """Induced subgraph on the nodes where the boolean mask keep holds."""
        new_id = np.cumsum(keep) - 1
        kept = np.repeat(keep, self.degrees) & keep[self.indices]
        before = _indptr(kept)  # kept entries before each CSR position
        row_len = (before[self.indptr[1:]] - before[self.indptr[:-1]])[keep]
        return InteractionGraph(self.users, self.ids[keep], _indptr(row_len),
                                new_id[self.indices[kept]])


def _indptr(counts: np.ndarray) -> np.ndarray:
    """Running totals of counts, starting from 0."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def _graph(users: tuple[str, ...], authors: np.ndarray, src: np.ndarray,
           dst: np.ndarray) -> InteractionGraph:
    """Graph on the authors and referenced users, with an edge for each
    (src, dst) pair of user ids that are not equal."""
    other = src != dst
    lo, hi = np.minimum(src, dst)[other], np.maximum(src, dst)[other]
    ids = _distinct(np.concatenate([authors, dst]))
    width = len(users)
    pairs = _distinct(lo * width + hi)
    return InteractionGraph.from_pairs(
        users, ids, np.searchsorted(ids, pairs // width),
        np.searchsorted(ids, pairs % width))


def build_graph(corpus: Corpus) -> InteractionGraph:
    """Graph of the interactions of all the corpus's tweets."""
    rows, refs = corpus.ref_ids.pairs()
    return _graph(corpus.users, corpus.author, corpus.author[rows], refs)


def daily_graphs(corpus: Corpus) -> list[tuple[date, InteractionGraph]]:
    """One graph per local date that has any tweet, in ascending order."""
    days, day_of = np.unique(corpus.day, return_inverse=True)
    rows, refs = corpus.ref_ids.pairs()
    authors, = _split_by_day(day_of, len(days), corpus.author)
    src, dst = _split_by_day(day_of[rows], len(days), corpus.author[rows],
                             refs)
    return [(date.fromordinal(d), _graph(corpus.users, *columns))
            for d, *columns in zip(days.tolist(), authors, src, dst)]


def _split_by_day(day_of: np.ndarray, n_days: int, *columns: np.ndarray
                  ) -> list[list[np.ndarray]]:
    """Each column cut into one piece per day, by the day index day_of."""
    order = np.argsort(day_of, kind="stable")
    cuts = np.cumsum(np.bincount(day_of, minlength=n_days))[:-1]
    return [np.split(column[order], cuts) for column in columns]


def remove_nodes(g: InteractionGraph, victims: np.ndarray,
                 drop_isolated: bool = False) -> InteractionGraph:
    """Induced subgraph on the nodes that the boolean mask victims, over
    g's user table, does not hold; g itself when the mask holds no one.

    With drop_isolated, nodes whose degree fell to zero *because of* the
    removal are dropped too; nodes that were already isolated are kept.
    """
    if not victims.any():
        return g
    keep = ~victims[g.ids]
    if drop_isolated:
        kept = _indptr(keep[g.indices])  # kept neighbours before each entry
        keep &= (kept[g.indptr[1:]] > kept[g.indptr[:-1]]) | (g.degrees == 0)
    return g.subgraph(keep)


# ---------------------------------------------------------------------------
# GraphML export
# ---------------------------------------------------------------------------

_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"
# ElementTree's escaping: attribute values also escape quotes and the three
# whitespace characters an XML parser would otherwise normalise
_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                               '"': "&quot;", "\r": "&#13;", "\n": "&#10;",
                               "\t": "&#09;"})
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def export_graph(g: InteractionGraph, path: str | Path,
                 stances: StanceMap, annotations: Annotations) -> None:
    """Write GraphML with user_id, stance and category node attributes.

    stances is a stance map over g's user table; the annotations are
    joined onto that table for the categories, Individual where missing.
    The file is streamed line by line in the layout ElementTree writes
    after ET.indent: two-space indentation, " />" empty tags, no newline
    after the root.
    """
    ids = [u.translate(_ATTR_ESCAPES) for u in g.nodes]
    # ElementTree.write opens the file the same way: platform newlines, and
    # character references for anything UTF-8 cannot encode
    with open(path, "w", encoding="utf-8", errors="xmlcharrefreplace") as fh:
        fh.write("<?xml version='1.0' encoding='utf-8'?>\n"
                 f'<graphml xmlns="{_GRAPHML_NS}">\n')
        for key_id, name in (("d0", "user_id"), ("d1", "stance"),
                             ("d2", "category")):
            fh.write(f'  <key id="{key_id}" for="node" attr.name="{name}" '
                     'attr.type="string" />\n')
        graph_tag = '  <graph id="G" edgedefault="undirected"'
        if not g.n:
            fh.write(graph_tag + " />\n</graphml>")
            return
        fh.write(graph_tag + ">\n")
        stance_of = map([s.value for s in STANCES].__getitem__,
                        stances.over(g.users)[g.ids].tolist())
        category_of = map([c.value for c in CATEGORIES].__getitem__,
                          join_onto(g.users, annotations.users,
                                    annotations.category)[g.ids].tolist())
        for u, uid, stance, category in zip(g.nodes, ids, stance_of,
                                            category_of):
            fh.write(f'    <node id="{uid}">\n'
                     + _data_line("d0", u) + _data_line("d1", stance)
                     + _data_line("d2", category) + "    </node>\n")
        iu, iv = g.edge_index
        fh.writelines(f'    <edge source="{ids[i]}" target="{ids[j]}" />\n'
                      for i, j in zip(iu.tolist(), iv.tolist()))
        fh.write("  </graph>\n</graphml>")


def _data_line(key_id: str, text: str) -> str:
    if not text:
        return f'      <data key="{key_id}" />\n'
    return (f'      <data key="{key_id}">{text.translate(_TEXT_ESCAPES)}'
            '</data>\n')
