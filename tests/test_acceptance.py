"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Dataset-scale figures from the original study are out of scope by
design; everything here is property-based on synthetic inputs plus the
bundled fixture.
"""

import time
from datetime import date

import numpy as np
import pytest

from polmon.corpus import (AccountAnnotation, Category, FollowRecord, Side,
                           default_rule_set, matches)
from polmon.graphkit import remove_nodes
from polmon.pipeline import RunConfig, run_all
from polmon.polarization import compute_pi, fj_equilibrium, polarization_index
from polmon.stance import Stance, StanceAssignment, stance_map
from polmon.structure import leading_eigenpair, louvain, netshield

from conftest import graph_of, random_graph, tweet
from oracles import (best_partition_modularity, best_shield_subset, dense_fj,
                     fixed_point_fj, modularity_of, shield_value_dense)


def _report(cid: str, name: str, detail: str = "PASS") -> None:
    print(f"[acceptance] {cid} {name}: {detail}")


def _stances(mapping):
    return {u: StanceAssignment(u, s, 0, 0, 0, 0.0)
            for u, s in mapping.items()}


# ---------------------------------------------------------------------------
# C1: direct vs fixed-point FJ solver agreement
# ---------------------------------------------------------------------------


def test_c1_fj_solver_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 201))
        p = float(rng.uniform(0.05, 0.5))
        g = random_graph(rng, n, p)
        s = rng.choice([-1.0, 0.0, 1.0], size=g.n)
        z_direct = dense_fj(g, s)
        z_fixed = fixed_point_fj(g, s, tol=1e-10)
        worst = max(worst, float(np.max(np.abs(z_direct - z_fixed))))
    elapsed = time.perf_counter() - started
    _report("C1", "fj-solver-oracle-equivalence",
            f"PASS (worst diff {worst:.2e}, {elapsed:.1f}s)"
            if worst <= 1e-8 and elapsed < 10 else "FAIL")
    assert worst <= 1e-8
    assert elapsed < 10


# ---------------------------------------------------------------------------
# C2: polarization corner cases
# ---------------------------------------------------------------------------


def test_c2_polarization_corner_cases():
    two_triangles = graph_of([("a", "b"), ("a", "c"), ("b", "c"),
                              ("x", "y"), ("x", "z"), ("y", "z")])
    s = np.array([1.0 if u in "abc" else -1.0 for u in two_triangles.nodes])
    z, _ = fj_equilibrium(two_triangles, s)
    pi_opposite = polarization_index(z)
    assert pi_opposite == pytest.approx(1.0, abs=1e-12)

    z_zero, _ = fj_equilibrium(two_triangles, np.zeros(6))
    assert polarization_index(z_zero) == 0.0

    bridged = graph_of([("l", "r")])
    z_bridge, _ = fj_equilibrium(bridged, np.array([-1.0, 1.0]))
    assert polarization_index(z_bridge) == pytest.approx(1 / 9, abs=1e-12)
    _report("C2", "corner-cases",
            f"PASS (pi: {pi_opposite:.15f}, 0.0, "
            f"{polarization_index(z_bridge):.15f})")


# ---------------------------------------------------------------------------
# C3: sign-flip invariance
# ---------------------------------------------------------------------------


def test_c3_sign_flip_invariance():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(2, 60))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.5)))
        s = rng.choice([-1.0, 0.0, 1.0], size=g.n)
        z_pos, _ = fj_equilibrium(g, s)
        z_neg, _ = fj_equilibrium(g, -s)
        worst = max(worst, abs(polarization_index(z_pos)
                               - polarization_index(z_neg)))
    _report("C3", "sign-flip-invariance", f"PASS (worst gap {worst:.2e})"
            if worst <= 1e-12 else "FAIL")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# C4: netshield greedy vs exhaustive argmax at small scale
# ---------------------------------------------------------------------------


def test_c4_netshield_small_scale_exactness():
    # The pinned greedy (iteratively pick the best marginal shield score) is
    # near-optimal but NOT exhaustive-exact: on random graphs it misses the
    # true argmax on a few percent of instances (k >= 2), independent of
    # connectivity or eigenpair precision.  This suite states the strict
    # equality requirement and is expected to stay red; see the ledger.
    started = time.perf_counter()
    misses = []
    total = 0
    for seed in range(50):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(4, 11))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.5)))
        lam, u = leading_eigenpair(g)
        for k in (1, 2, 3):
            if k > g.n:
                continue
            total += 1
            ranking = netshield(g, k)
            chosen = [g.nodes.index(x) for x in ranking.selected]
            attained = shield_value_dense(g, chosen, lam, u)
            _, best = best_shield_subset(g, k, lam, u)
            if best - attained > 1e-9:
                misses.append((seed, k, attained, best))
    elapsed = time.perf_counter() - started
    assert elapsed < 5
    _report("C4", "netshield-small-scale-exactness",
            "PASS" if not misses else
            f"FAIL ({len(misses)}/{total} instances: greedy below the "
            f"exhaustive optimum, e.g. {misses[0]})")
    assert not misses, (
        f"greedy selection missed the exhaustive Sv argmax on "
        f"{len(misses)}/{total} instances (greedy is near-optimal, not "
        f"exact); first miss: seed={misses[0][0]} k={misses[0][1]} "
        f"greedy={misses[0][2]:.6f} optimum={misses[0][3]:.6f}")


# ---------------------------------------------------------------------------
# C5: louvain sanity
# ---------------------------------------------------------------------------


def test_c5_louvain_sanity():
    rng = np.random.default_rng(5000)
    for _ in range(10):
        n_cliques = int(rng.integers(2, 5))
        sizes = [int(rng.integers(3, 7)) for _ in range(n_cliques)]
        edges = []
        expected = set()
        for b, size in enumerate(sizes):
            names = [f"c{b}_{i}" for i in range(size)]
            expected.add(frozenset(names))
            edges.extend((names[i], names[j]) for i in range(size)
                         for j in range(i + 1, size))
        g = graph_of(edges)
        partition = louvain(g)
        groups = {}
        for uid, c in partition.assignment.items():
            groups.setdefault(c, set()).add(uid)
        assert {frozenset(v) for v in groups.values()} == expected, sizes
        recomputed = modularity_of(g, partition.assignment)
        assert partition.modularity == pytest.approx(recomputed, abs=1e-12)

    for seed in range(12):
        rng = np.random.default_rng(5100 + seed)
        n = int(rng.integers(3, 9))
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.7)))
        partition = louvain(g)
        optimum = best_partition_modularity(g)
        assert partition.modularity <= optimum + 1e-12
        assert partition.modularity == pytest.approx(
            modularity_of(g, partition.assignment), abs=1e-12)
    _report("C5", "louvain-sanity", "PASS (clique recovery, Q "
            "self-consistency, never above the exhaustive optimum)")


# ---------------------------------------------------------------------------
# C6: filter golden tests from the shipped default rule config
# ---------------------------------------------------------------------------


def test_c6_filter_golden_cases():
    rules = default_rule_set()
    cases = [
        (tweet(text="σκέψεις #υποκλοπες", hashtags=["υποκλοπες"],
               ts="2022-08-05T09:00:00Z"), True),
        (tweet(text="", hashtags=["ανδρουλακης"],
               ts="2022-07-01T09:00:00Z"), False),
        (tweet(text="", hashtags=["κουκακη"],
               ts="2022-12-01T09:00:00Z"), False),
        (tweet(text="the predator files", lang="en",
               ts="2022-08-05T09:00:00Z"), False),
    ]
    for record, expected in cases:
        assert matches(rules, record) is expected
    _report("C6", "filter-golden-cases", "PASS (4/4 from shipped config)")


# ---------------------------------------------------------------------------
# C7: stance threshold monotonicity
# ---------------------------------------------------------------------------


def test_c7_stance_threshold_monotonicity():
    thresholds = (0.0, 0.25, 0.5, 0.7, 0.9)
    for seed in range(20):
        rng = np.random.default_rng(7000 + seed)
        annotations = {}
        political = []
        for i in range(int(rng.integers(3, 9))):
            side = (Side.LEFT, Side.RIGHT, Side.CENTER)[int(rng.integers(3))]
            uid = f"p{i}"
            annotations[uid] = AccountAnnotation(uid, Category.POLITICAL, side)
            political.append(uid)
        follows = []
        for i in range(int(rng.integers(5, 40))):
            uid = f"u{i:02d}"
            for target in rng.choice(political,
                                     size=int(rng.integers(1, len(political) + 1)),
                                     replace=False):
                follows.append(FollowRecord(uid, str(target)))
        labeled = []
        for t in thresholds:
            stances = stance_map(follows, annotations, threshold=t)
            labeled.append(sum(1 for a in stances.values()
                               if a.stance in (Stance.LEFT, Stance.RIGHT)))
        assert labeled == sorted(labeled, reverse=True), (seed, labeled)
    _report("C7", "stance-threshold-monotonicity",
            "PASS (20 random follow datasets)")


# ---------------------------------------------------------------------------
# C8: qualitative bridge-ablation replication on synthetic data
# ---------------------------------------------------------------------------


def test_c8_bridge_ablation_raises_pi():
    started = time.perf_counter()
    wins = 0
    for inst in range(20):
        rng = np.random.default_rng(8000 + inst)
        block_a = [f"a{i:03d}" for i in range(100)]
        block_b = [f"b{i:03d}" for i in range(100)]
        bridges = [f"x{i:02d}" for i in range(20)]
        edges = []
        for block in (block_a, block_b):
            for i in range(100):
                for j in range(i + 1, 100):
                    if rng.random() < 0.10:
                        edges.append((block[i], block[j]))
        for u in block_a:
            for v in block_b:
                if rng.random() < 0.005:
                    edges.append((u, v))
        for x in bridges:  # each bridge wired into both blocks
            for v in rng.choice(100, size=5, replace=False):
                edges.append((x, block_a[v]))
            for v in rng.choice(100, size=5, replace=False):
                edges.append((x, block_b[v]))
        g = graph_of(edges, isolated=block_a + block_b + bridges)
        stances = _stances({**{u: Stance.RIGHT for u in block_a},
                            **{u: Stance.LEFT for u in block_b},
                            **{u: Stance.NEUTRAL for u in bridges}})
        pi_full = compute_pi(g, stances).pi
        reduced = remove_nodes(g, set(bridges), drop_isolated=True)
        pi_without = compute_pi(reduced, stances).pi
        wins += pi_without > pi_full
    elapsed = time.perf_counter() - started
    _report("C8", "bridge-ablation-raises-pi",
            f"PASS ({wins}/20 instances, {elapsed:.1f}s)"
            if wins >= 19 and elapsed < 30 else f"FAIL ({wins}/20)")
    assert wins >= 19  # >= 95% of 20 seeded instances
    assert elapsed < 30


# ---------------------------------------------------------------------------
# C9: end-to-end determinism on the bundled fixture
# ---------------------------------------------------------------------------


def test_c9_run_all_deterministic(fixture_paths, tmp_path):
    def run(out):
        config = RunConfig.from_file(fixture_paths["config"])
        config.out_dir = out
        return run_all(config)

    b1 = run(tmp_path / "run")
    first = {name: path.read_bytes() for name, path in b1.items()}
    for path in b1.values():
        path.unlink()
    b2 = run(tmp_path / "run")  # same directory: byte-identical bundle
    differing = [name for name in first
                 if first[name] != b2[name].read_bytes()]
    _report("C9", "end-to-end-determinism",
            "PASS (bundle byte-identical across two runs)"
            if not differing else f"FAIL ({differing})")
    assert not differing


# ---------------------------------------------------------------------------
# C10: pipeline completeness (external dataset stands in via the fixture)
# ---------------------------------------------------------------------------


def test_c10_pipeline_completes_and_emits_bundle(fixture_paths, tmp_path):
    config = RunConfig.from_file(fixture_paths["config"])
    config.out_dir = tmp_path / "out"
    bundle = run_all(config)
    expected = {"stats_daily.csv", "pi_series.csv", "ablation.csv",
                "sweep.csv", "stance.csv", "influencers.csv",
                "communities.csv", "summary.html", "run_manifest.json"}
    names = set(bundle)
    graphml = {n for n in names if n.startswith("graph_")
               and n.endswith(".graphml")}
    assert expected <= names
    assert len(graphml) == 1
    assert all(path.exists() and path.stat().st_size > 0
               for path in bundle.values())
    _report("C10", "pipeline-bundle-completeness",
            f"PASS ({len(bundle)} files; matching the original study's "
            "figures is out of scope)")
