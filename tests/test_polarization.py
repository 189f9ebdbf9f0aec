import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polmon
from polmon import polarization
from polmon.polarization import (ConvergenceError, _adjacency, compute_pi,
                                 default_max_iter, fj_equilibrium,
                                 polarization_index)

from conftest import graph_of, random_graph, stances_of
from oracles import adjacency_matvec_scipy, dense_fj, fixed_point_fj


# ---------------------------------------------------------------------------
# fj_equilibrium
# ---------------------------------------------------------------------------


def test_isolated_node_keeps_innate_opinion():
    g = graph_of([], isolated=["x"])
    z, info = fj_equilibrium(g, np.array([1.0]))
    np.testing.assert_allclose(z, [1.0], atol=1e-12)
    assert info.residual <= 1e-10


def test_uniform_clique_is_fixed_point():
    nodes = [f"u{i}" for i in range(5)]
    g = graph_of([(a, b) for i, a in enumerate(nodes)
                  for b in nodes[i + 1:]])
    z, _ = fj_equilibrium(g, np.ones(5))
    np.testing.assert_allclose(z, np.ones(5), atol=1e-10)


def test_single_edge_hand_solved():
    g = graph_of([("a", "b")])
    s = np.array([1.0, -1.0])
    z, _ = fj_equilibrium(g, s)
    np.testing.assert_allclose(z, [1 / 3, -1 / 3], atol=1e-12)
    np.testing.assert_allclose(fixed_point_fj(g, s), [1 / 3, -1 / 3],
                               atol=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_direct_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 30, 0.15)
    s = rng.choice([-1.0, 0.0, 1.0], size=g.n)
    z, _ = fj_equilibrium(g, s)
    np.testing.assert_allclose(z, dense_fj(g, s), atol=1e-9)


@pytest.mark.parametrize("seed", range(3))
def test_solver_equivalence(seed):
    rng = np.random.default_rng(100 + seed)
    g = random_graph(rng, 60, 0.1)
    s = rng.choice([-1.0, 0.0, 1.0], size=g.n)
    z_direct = dense_fj(g, s)
    z_fixed = fixed_point_fj(g, s)
    assert np.max(np.abs(z_direct - z_fixed)) <= 1e-8


def test_maximum_principle():
    rng = np.random.default_rng(42)
    g = random_graph(rng, 40, 0.2)
    s = rng.choice([-1.0, 0.0, 1.0], size=g.n)
    z, _ = fj_equilibrium(g, s)
    assert np.max(np.abs(z)) <= 1.0 + 1e-12


def test_cg_reports_honest_residual():
    # the residual of the returned z, recomputed with a bit-equal matvec,
    # not the one the CG recursion carries
    rng = np.random.default_rng(7)
    g = random_graph(rng, 30, 0.2)
    s = rng.choice([-1.0, 1.0], size=g.n)
    z, info = fj_equilibrium(g, s, tol=1e-10)
    az = adjacency_matvec_scipy(g.indptr, g.indices, z)
    assert info.iterations > 0
    assert info.residual == np.max(np.abs((1.0 + g.degrees) * z - az - s))
    assert info.residual <= 1e-10


def test_cg_nonconvergence_raises_with_residual_and_iterations(monkeypatch):
    g = graph_of([("a", "b"), ("b", "c"), ("c", "d")])
    monkeypatch.setattr(polarization, "default_max_iter", lambda n: 1)
    with pytest.raises(ConvergenceError, match="CG") as err:
        fj_equilibrium(g, np.array([1.0, -1.0, 0.0, 1.0]), tol=1e-15)
    assert err.value.residual > 1e-15
    assert err.value.iterations == 1


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_tol_must_be_positive_and_finite(tol):
    g = graph_of([("a", "b"), ("b", "c")])
    with pytest.raises(ValueError, match="tol must be a positive finite"):
        fj_equilibrium(g, np.array([1.0, -1.0, 1.0]), tol=tol)


@pytest.mark.parametrize("seed", range(4))
def test_cg_stops_at_breakdown(seed):
    # no floating-point residual reaches 1e-300: the recursion underflows
    # first, and CG must stop there instead of iterating on NaN
    rng = np.random.default_rng(seed)
    g = (graph_of([("a", "b"), ("b", "c")]) if seed == 0
         else random_graph(rng, 40, 0.1))
    s = rng.uniform(-1.0, 1.0, g.n)
    budget = default_max_iter(g.n)
    try:
        _, info = fj_equilibrium(g, s, tol=1e-300)
        residual, iterations = info.residual, info.iterations
    except ConvergenceError as err:
        residual, iterations = err.residual, err.iterations
    assert np.isfinite(residual)
    assert residual < 1e-12
    assert iterations < budget // 2


def test_opinion_bounds_validated():
    g = graph_of([("a", "b")])
    with pytest.raises(ValueError):
        fj_equilibrium(g, np.array([2.0, 0.0]))
    with pytest.raises(ValueError):
        fj_equilibrium(g, np.array([1.0]))


# ---------------------------------------------------------------------------
# polarization_index
# ---------------------------------------------------------------------------


def test_two_opposite_triangles_give_pi_one():
    g = graph_of([("a", "b"), ("a", "c"), ("b", "c"),
                  ("x", "y"), ("x", "z"), ("y", "z")])
    s = np.array([1.0 if u in "abc" else -1.0 for u in g.nodes])
    z, _ = fj_equilibrium(g, s)
    assert polarization_index(z) == pytest.approx(1.0, abs=1e-12)


def test_zero_opinions_give_pi_zero():
    g = graph_of([("a", "b"), ("b", "c")])
    z, _ = fj_equilibrium(g, np.zeros(3))
    assert polarization_index(z) == 0.0


def test_single_edge_pi_one_ninth():
    g = graph_of([("a", "b")])
    z, _ = fj_equilibrium(g, np.array([1.0, -1.0]))
    assert polarization_index(z) == pytest.approx(1 / 9, abs=1e-12)


def test_pi_undefined_on_empty():
    with pytest.raises(ValueError):
        polarization_index(np.zeros(0))


# ---------------------------------------------------------------------------
# compute_pi
# ---------------------------------------------------------------------------


def test_two_isolated_poles():
    g = graph_of([], isolated=["l", "r"])
    result = compute_pi(g, stances_of(g.users, {"l": "L", "r": "R"}))
    assert result.pi == pytest.approx(1.0, abs=1e-12)
    assert result.n == 2
    assert result.m == 0


def test_bridged_poles():
    g = graph_of([("l", "r")])
    result = compute_pi(g, stances_of(g.users, {"l": "L", "r": "R"}))
    assert result.pi == pytest.approx(1 / 9, abs=1e-12)


def test_all_neutral_graph():
    g = graph_of([("a", "b"), ("b", "c")])
    result = compute_pi(g, stances_of(g.users, {u: "N" for u in "abc"}))
    assert result.pi == 0.0


def test_exclude_isolated_nodes():
    g = graph_of([("l", "r")], isolated=["lone"])
    stances = stances_of(g.users, {"l": "L", "r": "R", "lone": "R"})
    with_isolated = compute_pi(g, stances)
    without = compute_pi(g, stances, include_isolated=False)
    assert without.n == 2
    assert without.pi == pytest.approx(1 / 9, abs=1e-12)
    assert with_isolated.n == 3
    assert with_isolated.pi == pytest.approx((1 + 2 / 9) / 3, abs=1e-12)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_sign_flip_invariance(seed):
    rng = np.random.default_rng(200 + seed)
    g = random_graph(rng, 25, 0.2)
    s = rng.choice([-1.0, 0.0, 1.0], size=g.n)
    z_pos, _ = fj_equilibrium(g, s)
    z_neg, _ = fj_equilibrium(g, -s)
    assert polarization_index(z_pos) == pytest.approx(
        polarization_index(z_neg), abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_homophily_extreme_exact(seed):
    rng = np.random.default_rng(300 + seed)
    blocks = []
    sign = {}
    for b in range(rng.integers(2, 5)):
        size = int(rng.integers(2, 6))
        names = [f"b{b}n{i}" for i in range(size)]
        blocks.extend((names[i], names[j]) for i in range(size)
                      for j in range(i + 1, size))
        value = 1.0 if b % 2 == 0 else -1.0
        sign.update({name: value for name in names})
    g = graph_of(blocks)
    s = np.array([sign[u] for u in g.nodes])
    z, _ = fj_equilibrium(g, s)
    assert polarization_index(z) == pytest.approx(1.0, abs=1e-12)


def test_bounds_and_isolated_zero_dilution():
    rng = np.random.default_rng(77)
    g = random_graph(rng, 20, 0.3)
    s = rng.choice([-1.0, 1.0], size=g.n)
    z, _ = fj_equilibrium(g, s)
    pi = polarization_index(z)
    assert 0.0 <= pi <= 1.0
    diluted = graph_of(list(g.edges), isolated=list(g.nodes) + ["zzz_new"])
    s2 = np.append(s, 0.0)  # zzz_new sorts last
    z2, _ = fj_equilibrium(diluted, s2)
    assert polarization_index(z2) < pi


def test_bridge_damping():
    left = [f"l{i}" for i in range(4)]
    right = [f"r{i}" for i in range(4)]
    cliques = [(a, b) for grp in (left, right)
               for i, a in enumerate(grp) for b in grp[i + 1:]]
    g = graph_of(cliques)
    s = np.array([-1.0 if u.startswith("l") else 1.0 for u in g.nodes])
    z, _ = fj_equilibrium(g, s)
    assert polarization_index(z) == pytest.approx(1.0, abs=1e-12)
    bridged = graph_of(cliques + [("l0", "r0")])
    zb, _ = fj_equilibrium(bridged, s)
    assert polarization_index(zb) < 1.0


# ---------------------------------------------------------------------------
# CG against the dense solve and the Jacobi-iteration oracle
# ---------------------------------------------------------------------------


def _named_random_graph(rng, prefix, n, p):
    names = [f"{prefix}{i:03d}" for i in range(n)]
    edges = [(names[i], names[j])
             for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return edges, names


def _cg_matches_oracles(g, s):
    z_cg, info = fj_equilibrium(g, s)
    z_direct = dense_fj(g, s)
    z_fixed = fixed_point_fj(g, s)
    assert info.residual <= 1e-10
    return (float(np.max(np.abs(z_cg - z_direct), initial=0.0)),
            float(np.max(np.abs(z_cg - z_fixed), initial=0.0)))


def test_cg_oracle_equivalence_random_graphs():
    # modelled on C1: 100 seeded graphs, here with up to two components
    # and a few extra isolated nodes each
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        edges, nodes = _named_random_graph(
            rng, "a", int(rng.integers(2, 151)), float(rng.uniform(0.02, 0.5)))
        if seed % 2:
            more, names = _named_random_graph(
                rng, "b", int(rng.integers(2, 51)),
                float(rng.uniform(0.05, 0.5)))
            edges += more
            nodes += names
        nodes += [f"iso{i}" for i in range(int(rng.integers(0, 4)))]
        g = graph_of(edges, isolated=nodes)
        s = rng.choice([-1.0, 0.0, 1.0], size=g.n)
        worst = max(worst, *_cg_matches_oracles(g, s))
    assert worst <= 1e-8


@pytest.mark.parametrize("case", ["isolated", "components", "zero_s"])
def test_cg_oracle_equivalence_corner_cases(case):
    rng = np.random.default_rng(17)
    if case == "isolated":
        g = graph_of([("a", "b"), ("b", "c")], isolated=["x", "y", "z"])
    else:
        edges, _ = _named_random_graph(rng, "a", 40, 0.2)
        more, _ = _named_random_graph(rng, "b", 30, 0.3)
        g = graph_of(edges + more + [("c0", "c1")])
    s = (np.zeros(g.n) if case == "zero_s"
         else rng.choice([-1.0, 0.0, 1.0], size=g.n))
    diff_direct, diff_fixed = _cg_matches_oracles(g, s)
    assert diff_direct <= 1e-8
    assert diff_fixed <= 1e-8
    if case == "zero_s":
        z, info = fj_equilibrium(g, s)
        assert not np.any(z)
        assert info.iterations == 0


def test_cg_empty_graph():
    z, info = fj_equilibrium(graph_of([]), np.zeros(0))
    assert len(z) == 0
    assert (info.iterations, info.residual) == (0, 0.0)


def test_cg_matches_direct_on_3k_node_graph():
    rng = np.random.default_rng(7)
    names = [f"n{i:04d}" for i in range(3000)]
    pairs = rng.integers(0, len(names), size=(4500, 2))
    g = graph_of([(names[a], names[b]) for a, b in pairs if a != b],
                 isolated=names)
    s = rng.choice([-1.0, 0.0, 1.0], size=g.n)
    z_cg, info = fj_equilibrium(g, s)
    assert np.max(np.abs(z_cg - dense_fj(g, s))) <= 1e-8


# ---------------------------------------------------------------------------
# adjacency matvec: numpy against scipy.sparse
# ---------------------------------------------------------------------------


def _matvec_graphs():
    rng = np.random.default_rng(31)
    names = [f"n{i:04d}" for i in range(3000)]
    pairs = rng.integers(0, len(names), size=(4500, 2))
    return [graph_of([]),
            graph_of([], isolated=["x", "y"]),
            graph_of([("a", "b"), ("b", "c")], isolated=["x", "y", "z"]),
            random_graph(rng, 40, 0.05),
            random_graph(rng, 150, 0.2),
            graph_of([(names[a], names[b]) for a, b in pairs if a != b],
                     isolated=names)]


@pytest.mark.parametrize("case", range(6))
def test_matvec_bit_equal_to_scipy(case):
    g = _matvec_graphs()[case]
    rng = np.random.default_rng(32 + case)
    # magnitudes over 32 decades make each row's sum depend on its order;
    # the signed zeros check empty rows and rows that sum to zero
    x = rng.standard_normal(g.n) * 10.0 ** rng.integers(-16, 17, g.n)
    x[rng.random(g.n) < 0.2] = -0.0
    matvec = _adjacency(g.indptr, g.indices)
    for v in (x, -x, np.full(g.n, -0.0), np.zeros(g.n)):
        expected = adjacency_matvec_scipy(g.indptr, g.indices, v)
        got = matvec(v)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes()


_SOLVE_IN_CHILD = """
import hashlib, json
import numpy as np
from polmon.graphkit import InteractionGraph
from polmon.polarization import fj_equilibrium
from polmon.structure import leading_eigenpair

rng = np.random.default_rng(25)
n = 25_000
pairs = np.unique(np.sort(rng.integers(0, n, size=(80_000, 2)), axis=1),
                  axis=0)
pairs = pairs[pairs[:, 0] != pairs[:, 1]]
g = InteractionGraph.from_pairs(tuple(f"u{i:05d}" for i in range(n)),
                                np.arange(n), pairs[:, 0], pairs[:, 1])
z, _ = fj_equilibrium(g, rng.choice([-1.0, 0.0, 1.0], size=n))
lam, u = leading_eigenpair(g)
print(json.dumps({"n": g.n, "m": g.m, "lam": lam.hex(),
                  "z": hashlib.sha256(z.tobytes()).hexdigest(),
                  "u": hashlib.sha256(u.tobytes()).hexdigest()}))
"""


def test_solves_do_not_depend_on_blas_thread_count():
    # BLAS splits a sum of ~20k terms or more across its threads, which
    # changes its last bits; the solvers' own sums must not
    src = str(Path(polmon.__file__).resolve().parents[1])
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p])
        proc = subprocess.run([sys.executable, "-c", _SOLVE_IN_CHILD],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    assert results[0]["n"] >= 20_000
    assert results[0] == results[1]
