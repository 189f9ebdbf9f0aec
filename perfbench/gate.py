"""Output correctness gate, run after the timed region.

Every polarization index the bundle reports is recomputed here without
polmon's solver or stance code: opinions come from the follow and
annotation files through the stance rule, ``I + L`` is assembled from the
graph's edge list, and ``scipy.sparse.linalg.cg`` solves it with a
verified residual.  Louvain's reported modularity is recomputed with
networkx, and must come close to networkx's own Louvain.  The graphs
themselves (``g.nodes``, ``g.edges``) and the NetShield selection are
taken from the program.
"""

from __future__ import annotations

import csv
from datetime import date
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

PI_TOL = 1e-8
Q_TOL = 1e-9
# networkx's Louvain varies by about 0.01 in Q with its seed on the
# full-report graphs (Q ~ 0.50); a partition more than this far below it
# has traded quality away
Q_MARGIN = 0.025
RESIDUAL_TOL = 1e-10
OPINION = {"Left": -1.0, "Right": 1.0}


class Gate:
    """Collects pass/fail results of independent checks."""

    def __init__(self, annotations: Path, follows: Path):
        with Path(annotations).open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.side = {r["user_id"]: r["side"] for r in rows
                     if r["category"] == "Political"}
        self.category = {r["user_id"]: r["category"] for r in rows}
        self.followed: dict[str, list[str]] = {}
        with Path(follows).open(encoding="utf-8", newline="") as fh:
            for r in csv.DictReader(fh):
                self.followed.setdefault(r["follower_id"], []).append(
                    r["followed_political_id"])
        self.checks = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)

    # -- independent models ------------------------------------------------

    def stance(self, user: str, threshold: float) -> str:
        tally = {"Left": 0, "Right": 0, "Center": 0}
        for followed in self.followed.get(user, ()):
            tally[self.side[followed]] += 1
        total = sum(tally.values())
        if total == 0:
            return "Neutral"
        left, right = tally["Left"], tally["Right"]
        if left > right and left >= threshold * total:
            return "Left"
        if right > left and right >= threshold * total:
            return "Right"
        return "Center"

    def pi(self, nodes, edges, threshold: float) -> float:
        """Mean squared FJ equilibrium opinion, by verified CG."""
        index = {u: i for i, u in enumerate(nodes)}
        n = len(nodes)
        s = np.array([OPINION.get(self.stance(u, threshold), 0.0)
                      for u in nodes])
        rows = np.array([index[u] for u, _ in edges], dtype=np.int64)
        cols = np.array([index[v] for _, v in edges], dtype=np.int64)
        adj = sp.coo_matrix((np.ones(2 * len(edges)),
                             (np.concatenate([rows, cols]),
                              np.concatenate([cols, rows]))),
                            shape=(n, n)).tocsr()
        diag = 1.0 + np.asarray(adj.sum(axis=1)).ravel()
        system = sp.diags(diag) - adj
        z, _ = spla.cg(system, s, rtol=1e-13, atol=0.0, maxiter=20 * n,
                       M=sp.diags(1.0 / diag))
        # the eigenvalues of I + L are >= 1, so ||z - z*|| <= ||residual||
        residual = float(np.linalg.norm(system @ z - s))
        if residual > RESIDUAL_TOL:
            raise ArithmeticError(f"CG stopped at residual {residual:.2e}")
        return float(z @ z / n)

    def without(self, g, victims: set[str], drop_isolated: bool):
        """Induced subgraph minus victims (and, optionally, the nodes that
        lost every edge because of the removal)."""
        edges = [(u, v) for u, v in g.edges
                 if u not in victims and v not in victims]
        nodes = [u for u in g.nodes if u not in victims]
        if drop_isolated:
            before = {u for e in g.edges for u in e}
            after = {u for e in edges for u in e}
            nodes = [u for u in nodes if u in after or u not in before]
        return nodes, edges

    # -- bundle checks -----------------------------------------------------

    def _close(self, reported: str, nodes, edges, threshold: float,
               what: str) -> None:
        try:
            expected = self.pi(nodes, edges, threshold)
        except ArithmeticError as exc:
            self.check(False, f"{what}: {exc}")
            return
        ok = reported != "" and abs(float(reported) - expected) <= PI_TOL
        self.check(ok, f"{what}: reported {reported!r}, "
                       f"independent {expected!r}")

    def pi_series(self, path: Path, daily, threshold: float) -> None:
        graphs = dict(daily)
        with path.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.check([r["date"] for r in rows]
                   == [d.isoformat() for d in graphs],
                   f"{path.name}: one row per daily graph")
        for r in rows:
            g = graphs.get(date.fromisoformat(r["date"]))
            if g is None:
                continue
            self._close(r["pi"], g.nodes, g.edges, threshold,
                        f"{path.name} {r['date']}")

    def _victims(self, influencers) -> dict[str, set[str]]:
        return {
            "political": {u for u, c in self.category.items()
                          if c == "Political"},
            "media": {u for u, c in self.category.items()
                      if c == "MediaJournalist"},
            "influencers": set(influencers),
        }

    def _ablation_row(self, r, g, threshold, drop, influencers, what):
        self._close(r["pi_full"], g.nodes, g.edges, threshold, what)
        for name, victims in self._victims(influencers).items():
            nodes, edges = self.without(g, victims, drop)
            self._close(r[f"pi_without_{name}"], nodes, edges, threshold,
                        f"{what} without {name}")

    def ablation(self, path: Path, daily, threshold: float,
                 influencers) -> None:
        graphs = dict(daily)
        with path.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.check([r["date"] for r in rows]
                   == [d.isoformat() for d in graphs],
                   f"{path.name}: one row per daily graph")
        for r in rows:
            g = graphs.get(date.fromisoformat(r["date"]))
            if g is None or r["drop_isolated"] == "":
                self.check(False, f"{path.name} {r['date']}: gap row")
                continue
            self._ablation_row(r, g, threshold, r["drop_isolated"] == "true",
                               influencers, f"{path.name} {r['date']}")

    def sweep(self, path: Path, g, drop: bool, influencers) -> None:
        with path.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.check(bool(rows), f"{path.name}: has rows")
        for r in rows:
            t = float(r["threshold"])
            self._ablation_row(r, g, t, drop, influencers,
                               f"{path.name} threshold {r['threshold']}")
            stances = [self.stance(u, t) for u in g.nodes]
            self.check(int(r["n_left_users"]) == stances.count("Left")
                       and int(r["n_right_users"]) == stances.count("Right"),
                       f"{path.name} threshold {r['threshold']}: camp sizes")

    def communities(self, g, partition) -> None:
        """Louvain's Q must be the networkx modularity of its partition, and
        no worse than networkx's own Louvain by more than Q_MARGIN."""
        import networkx as nx
        from networkx.algorithms.community import (louvain_communities,
                                                   modularity)

        graph = nx.Graph()
        graph.add_nodes_from(g.nodes)
        graph.add_edges_from(g.edges)
        groups: dict[int, set[str]] = {}
        for u, c in partition.assignment.items():
            groups.setdefault(c, set()).add(u)
        q = modularity(graph, groups.values())
        self.check(abs(q - partition.modularity) <= Q_TOL,
                   f"louvain_q: reported {partition.modularity!r}, "
                   f"networkx {q!r}")
        reference = modularity(graph, louvain_communities(graph, seed=0))
        self.check(q >= reference - Q_MARGIN,
                   f"louvain_q {q:.4f} is below networkx Louvain's "
                   f"{reference:.4f} by more than {Q_MARGIN}")


def check_bundle(runner, out_dir: Path,
                 expected_malformed: int | None) -> Gate:
    """Check every output the workload wrote in out_dir against runner's
    (already computed) stages."""
    config = runner.config
    gate = Gate(config.annotations, config.follows)
    if expected_malformed is not None:
        gate.check(len(runner.load_errors) == expected_malformed,
                   f"malformed lines: {len(runner.load_errors)} counted, "
                   f"{expected_malformed} injected")
    threshold = config.threshold
    influencers = runner.influencer_ranking.selected
    if (out_dir / "pi_series.csv").exists():
        gate.pi_series(out_dir / "pi_series.csv", runner.daily, threshold)
    if (out_dir / "ablation.csv").exists():
        gate.ablation(out_dir / "ablation.csv", runner.daily, threshold,
                      influencers)
    if (out_dir / "sweep.csv").exists():
        gate.sweep(out_dir / "sweep.csv", runner.full_graph,
                   config.drop_isolated, influencers)
    if (out_dir / "communities.csv").exists():
        gate.communities(runner.full_graph, runner.communities)
    return gate
