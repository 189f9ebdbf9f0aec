"""Friedkin-Johnsen equilibrium opinions and the polarization index.

Given innate opinions s (entries in [-1, 1]) on a simple graph with
combinatorial Laplacian L, the expressed-opinion equilibrium solves

    (I + L) z = s        equivalently    z_i = (s_i + sum_{j~i} z_j) / (1 + deg_i)

and the polarization index is pi = ||z||^2 / n, the mean squared
equilibrium opinion, which lives in [0, 1]: 0 for an unopinionated
population, 1 exactly when every connected component is internally
unanimous at +/-1.

The one solver is Jacobi-preconditioned conjugate gradients (CG) on the
SPD system, in numpy alone; the tests check it against a dense solve and
against the Jacobi iteration above.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graphkit import InteractionGraph
from .stance import StanceMap, opinion_vector

log = logging.getLogger(__name__)


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass
class SolverInfo:
    iterations: int
    residual: float


@dataclass
class PolarizationResult:
    pi: float
    solver: SolverInfo
    n: int
    m: int


def default_max_iter(n: int) -> int:
    # generous cap so dense graphs do not trip false non-convergence
    return 10 * n + 1000


def _adjacency(indptr: np.ndarray, indices: np.ndarray
               ) -> Callable[[np.ndarray], np.ndarray]:
    """The product x -> A x with the 0/1 adjacency matrix of the CSR.

    bincount starts each row at 0.0 and adds the row's entries in CSR
    order, as scipy's CSR matvec does, so the product is bit-identical to
    ``csr_matrix @ x``; the solver's last bits depend on that order.
    (bincount returns integers when there are no entries at all.)
    """
    n = len(indptr) - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    return lambda x: np.bincount(rows, weights=x.take(indices),
                                 minlength=n).astype(np.float64, copy=False)


def _cg(indptr: np.ndarray, indices: np.ndarray, s: np.ndarray, tol: float,
        max_iter: int) -> tuple[np.ndarray, int, float, bool]:
    """Jacobi-preconditioned conjugate gradients for (I + L) z = s.

    Starts from z = 0 with preconditioner diag(1 + deg)^-1.  Returns
    (z, iterations, residual, converged), where residual is the max-norm
    of (I + L) z - s recomputed from z, never the recursively updated one:
    when the recursion claims tol but the true residual misses it, CG
    restarts from the true residual.  A breakdown, where p.Ap is not a
    positive finite number (the recursion has underflowed), ends the solve
    with the true residual of the last finite z, instead of iterating on
    NaN.
    """
    diag = 1.0 + np.diff(indptr)
    adj = _adjacency(indptr, indices)
    z = np.zeros(len(s))
    r = s.copy()
    residual = float(np.max(np.abs(r))) if len(r) else 0.0
    iters = 0
    broke_down = False
    while residual > tol and iters < max_iter and not broke_down:
        y = r / diag
        p = y
        ry = r @ y
        while iters < max_iter:
            ap = diag * p - adj(p)
            pap = p @ ap
            broke_down = not 0.0 < pap < np.inf
            if broke_down:
                break
            alpha = ry / pap
            z += alpha * p
            r -= alpha * ap
            iters += 1
            if np.max(np.abs(r)) <= tol:
                break
            y = r / diag
            ry, ry_old = r @ y, ry
            p = y + (ry / ry_old) * p
        r = s - (diag * z - adj(z))
        residual = float(np.max(np.abs(r)))
    return z, iters, residual, residual <= tol


def fj_equilibrium(g: InteractionGraph, s: np.ndarray, tol: float = 1e-10
                   ) -> tuple[np.ndarray, SolverInfo]:
    """Solve (I + L) z = s on g by CG; returns (z, solver info).

    CG stops once the max-norm residual ||(I + L) z - s|| is at most tol,
    and raises ConvergenceError carrying the last residual and the
    iteration count if default_max_iter(n) iterations do not get there.
    (I + L)^-1 is entrywise nonnegative with unit row sums, so its
    infinity norm is 1 and a residual <= tol guarantees
    ||z - z*||_inf <= tol for the exact solution z*.  tol must be a
    positive finite number.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    if len(s) != g.n:
        raise ValueError(f"opinion vector has length {len(s)}, graph has {g.n}")
    if g.n and np.max(np.abs(s)) > 1.0 + 1e-12:
        raise ValueError("innate opinions must lie in [-1, 1]")
    s = np.asarray(s, dtype=np.float64)
    z, iters, residual, converged = _cg(g.indptr, g.indices, s, tol,
                                        default_max_iter(g.n))
    if not converged:
        raise ConvergenceError(
            f"CG stalled at residual {residual:.3e} after {iters} iterations",
            residual, iters)
    return z, SolverInfo(iters, residual)


def polarization_index(z: np.ndarray) -> float:
    """Mean squared equilibrium opinion; undefined (raises) on empty input."""
    if len(z) == 0:
        raise ValueError("polarization index is undefined on an empty graph")
    return float(np.dot(z, z) / len(z))


def compute_pi(g: InteractionGraph, stances: StanceMap, tol: float = 1e-10,
               include_isolated: bool = True) -> PolarizationResult:
    """opinion_vector -> fj_equilibrium -> polarization_index, composed.

    include_isolated=False drops degree-0 nodes (whose z would simply echo
    s) before solving.
    """
    work = g if include_isolated else g.subgraph(g.degrees > 0)
    s = opinion_vector(work, stances)
    z, info = fj_equilibrium(work, s, tol=tol)
    log.debug("FJ solve: n=%d m=%d method=CG iterations=%d residual=%.3e",
              work.n, work.m, info.iterations, info.residual)
    return PolarizationResult(pi=polarization_index(z), solver=info,
                              n=work.n, m=work.m)
