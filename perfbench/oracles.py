"""Reference results computed without vaxfront.

Every check in the benchmark compares a vaxfront output with one of these:
numpy eigenvalues, scipy's strongly connected components, a scipy MILP for
maximum-weight independent sets, scipy's constrained minimizer for convex
Pareto optima, and closed forms for the structured graphs.  Nothing here
imports vaxfront, and scipy is imported only after the timed phase.
"""

from __future__ import annotations

import math

import numpy as np


def radius(matrix: np.ndarray, eta: np.ndarray | None = None) -> float:
    """Spectral radius of K diag(eta) from the full numpy spectrum."""
    m = np.asarray(matrix, dtype=float)
    if eta is not None:
        m = m * np.asarray(eta, dtype=float)[None, :]
    return float(np.abs(np.linalg.eigvals(m)).max())


def radii(matrix: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """Spectral radii of K diag(eta) for each row of a (B, N) array."""
    mats = np.asarray(matrix, dtype=float)[None, :, :] * etas[:, None, :]
    return np.abs(np.linalg.eigvals(mats)).max(axis=-1)


def block_radius(matrix: np.ndarray, blocks, eta: np.ndarray) -> float:
    """Largest radius over the diagonal blocks, each a half-open (lo, hi)."""
    return max(radius(matrix[lo:hi, lo:hi], eta[lo:hi]) for lo, hi in blocks)


def strong_components(matrix: np.ndarray) -> list[tuple[int, ...]]:
    """Strongly connected components of the support, sorted by first member."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    count, labels = connected_components(
        csr_matrix(np.asarray(matrix) > 0), directed=True, connection="strong"
    )
    comps = [tuple(np.nonzero(labels == c)[0].tolist()) for c in range(count)]
    return sorted(comps)


def atoms(matrix: np.ndarray) -> list[tuple[int, ...]]:
    """Components that carry transmission: more than one group, or a loop."""
    return [
        comp
        for comp in strong_components(matrix)
        if len(comp) > 1 or matrix[comp[0], comp[0]] > 0
    ]


def is_independent(matrix: np.ndarray, chosen) -> bool:
    """No transmission inside ``chosen``, self-loops included."""
    idx = list(chosen)
    return not bool(np.any(np.asarray(matrix)[np.ix_(idx, idx)] > 0))


def cstar_milp(matrix: np.ndarray, weights: np.ndarray, coef: np.ndarray) -> float:
    """Eradication cost of a symmetric support by a 0/1 MILP.

    Maximizes the saved cost sum coef_i mu_i x_i over independent sets x
    (x_i + x_j <= 1 on every support edge, x_i = 0 under a self-loop) and
    returns c_max minus that optimum.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    k = np.asarray(matrix) > 0
    n = k.shape[0]
    saved = np.asarray(coef) * np.asarray(weights)
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            if k[i, j] or k[j, i]:
                row = np.zeros(n)
                row[i] = row[j] = 1.0
                rows.append(row)
    upper = np.where(np.diag(k), 0.0, 1.0)
    constraints = [LinearConstraint(np.array(rows), -np.inf, 1.0)] if rows else []
    result = milp(
        -saved,
        constraints=constraints,
        integrality=np.ones(n),
        bounds=Bounds(np.zeros(n), upper),
    )
    if not result.success:
        raise RuntimeError(f"MILP failed: {result.message}")
    return math.fsum(saved.tolist()) + float(result.fun)


def convex_pareto(matrix: np.ndarray, w: np.ndarray, budget: float) -> float:
    """min R_e(eta) over [0,1]^N with w . (1 - eta) <= budget, by SLSQP.

    Only valid for models whose R_e is convex, where the local minimum the
    solver finds is global.  Starts from the uniform strategy that spends
    the budget exactly.
    """
    from scipy.optimize import minimize

    total = float(w.sum())
    x0 = np.full(w.size, max(0.0, 1.0 - budget / total))
    result = minimize(
        lambda x: radius(matrix, np.clip(x, 0.0, 1.0)),
        x0,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * w.size,
        constraints=[{"type": "ineq", "fun": lambda x: budget - w @ (1.0 - x)}],
        options={"ftol": 1e-13, "maxiter": 500},
    )
    return radius(matrix, np.clip(result.x, 0.0, 1.0))


# Closed forms.  Uniform weights and uniform cost throughout.


def cycle_cstar(n: int) -> float:
    """n-cycle: every other group left unvaccinated."""
    return 1.0 - (n // 2) / n


def ring2_cstar(n: int) -> float:
    """2-ring lattice (neighbours at distance 1 and 2): every third group."""
    return 1.0 - (n // 3) / n


def grid_cstar(rows: int, cols: int) -> float:
    """rows x cols grid graph: the larger colour class of the bipartition."""
    return 1.0 - math.ceil(rows * cols / 2) / (rows * cols)


CYCLE_R0 = 2.0


def kept_path_radius(m: int) -> float:
    """Radius of a path of m unvaccinated groups cut out of a cycle."""
    return 2.0 * math.cos(math.pi / (m + 1)) if m > 0 else 0.0


def rank_one_re(f: np.ndarray, g: np.ndarray, mu: np.ndarray, eta: np.ndarray) -> float:
    """R_e of the kernel K_ij = f_i g_j mu_j: sum_i f_i g_i mu_i eta_i."""
    return math.fsum((f * g * mu * eta).tolist())


def reachable(matrix: np.ndarray, sources) -> set[int]:
    """Groups infected, directly or not, from ``sources`` (j -> i iff K_ij > 0)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    graph = csr_matrix(np.asarray(matrix).T > 0)
    seen: set[int] = set()
    for source in sources:
        seen.update(breadth_first_order(graph, source, return_predecessors=False).tolist())
    return seen
