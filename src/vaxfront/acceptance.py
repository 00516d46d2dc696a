"""Self-contained verification harness behind ``vaxfront verify-paper``.

Each criterion re-derives a quantitative claim from bundled fixtures or
seeded generators and checks it at a pinned tolerance, including a wall
clock budget.  Everything here is deterministic: fixed seeds, fixed grids,
fixed fixtures.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import fixtures
from .convexity import probe_convexity, sylvester_check
from .frontier import (
    anti_pareto_frontier,
    assemble_reducible,
    feasible_region_sample,
    optimal_loss,
    optimal_loss_max,
    optimal_ray_check,
    pareto_frontier,
)
from .independent import eradication_cost, max_independent_set
from .model import (
    CostFunction,
    GridKernelSpec,
    MetapopModel,
    Strategy,
    _pin_weight_sum,
    grid_to_model,
)
from .spectral import (
    effective_re,
    effective_re_batch,
    full_spectrum,
    re_gradient,
    spectral_radius,
)
from .structure import cordon_improvement, frobenius_decompose, is_disconnecting

UNIFORM = CostFunction.uniform()


# ----------------------------------------------------------------------
# Seeded generators shared with the test suite.

def random_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    return _pin_weight_sum(0.2 + rng.random(n))


def random_model(
    rng: np.random.Generator, n: int, density: float = 1.0, scale: float = 1.0
) -> MetapopModel:
    k = rng.random((n, n)) * scale
    if density < 1.0:
        k = k * (rng.random((n, n)) < density)
    return MetapopModel(weights=random_weights(rng, n), matrix=k)


def random_convex_model(rng: np.random.Generator, n: int) -> MetapopModel:
    """Symmetrizable with no negative eigenvalue: diag-scaled Gram matrix."""
    b = rng.random((n, n))
    s = b.T @ b
    left = 0.5 + rng.random(n)
    right = 0.5 + rng.random(n)
    return MetapopModel(
        weights=random_weights(rng, n),
        matrix=left[:, None] * s * right[None, :],
    )


def random_concave_model(rng: np.random.Generator, n: int) -> MetapopModel:
    """Symmetrizable with a single positive eigenvalue.

    S = v v^T - eps w w^T with w orthogonal to v and eps small enough to keep
    S entrywise positive; diagonal scalings preserve the inertia.
    """
    v = 0.5 + rng.random(n)
    w = rng.normal(size=n)
    w -= (w @ v) / (v @ v) * v
    if np.abs(w).max() < 1e-9:
        w = np.zeros(n)
        w[0], w[-1] = v[-1], -v[0]
    s0 = np.outer(v, v)
    corr = np.outer(w, w)
    eps = 0.9 * s0.min() / max(np.abs(corr).max(), 1e-300)
    s = s0 - eps * corr
    left = 0.5 + rng.random(n)
    right = 0.5 + rng.random(n)
    return MetapopModel(
        weights=random_weights(rng, n),
        matrix=left[:, None] * s * right[None, :],
    )


def random_rank_one(rng: np.random.Generator, n: int):
    """Configuration model K[i,j] = f_i g_j mu_j with its factors."""
    weights = random_weights(rng, n)
    f = 0.2 + rng.random(n)
    g = 0.2 + rng.random(n)
    matrix = np.outer(f, g * weights)
    return MetapopModel(weights=weights, matrix=matrix), f, g


def random_block_upper_model(rng: np.random.Generator, max_blocks: int = 3):
    """Block upper triangular model with strictly positive diagonal blocks.

    Later blocks may infect earlier ones (upper fill), never the reverse, so
    the diagonal blocks are exactly the atoms of the decomposition.
    """
    blocks = []
    total = 0
    count = int(rng.integers(2, max_blocks + 1))
    for _ in range(count):
        size = int(rng.integers(1, 4))
        if total + size > 6:
            break
        blocks.append((total, total + size))
        total += size
    if len(blocks) < 2:
        blocks = [(0, 1), (1, 2)]
        total = 2
    k = np.zeros((total, total))
    for lo, hi in blocks:
        k[lo:hi, lo:hi] = 0.2 + rng.random((hi - lo, hi - lo))
    for bi, (lo_i, hi_i) in enumerate(blocks):
        for lo_j, hi_j in blocks[bi + 1 :]:
            fill = rng.random((hi_i - lo_i, hi_j - lo_j))
            k[lo_i:hi_i, lo_j:hi_j] = fill * (rng.random(fill.shape) < 0.5)
    return (
        MetapopModel(weights=random_weights(rng, total), matrix=k),
        blocks,
    )


def brute_force_mwis(model: MetapopModel, cost_fn: CostFunction):
    """Exhaustive maximum-weight independent set, the oracle for small N."""
    n = model.n
    coef = cost_fn.coefficient_vector(n)
    weights = coef * model.weights
    k = model.matrix
    allowed = [i for i in range(n) if k[i, i] == 0]
    conflict = {}
    for i in allowed:
        mask = 0
        for j in allowed:
            if j != i and (k[i, j] > 0 or k[j, i] > 0):
                mask |= 1 << j
        conflict[i] = mask
    best_weight = 0.0
    best_mask = 0
    m = len(allowed)
    for bits in range(1 << m):
        mask = 0
        ok = True
        value = 0.0
        probe = bits
        idx = 0
        while probe:
            if probe & 1:
                v = allowed[idx]
                if conflict[v] & mask:
                    ok = False
                    break
                mask |= 1 << v
                value += weights[v]
            probe >>= 1
            idx += 1
        if ok and value > best_weight:
            best_weight = value
            best_mask = mask
    chosen = tuple(i for i in range(n) if best_mask >> i & 1)
    return chosen, best_weight


# ----------------------------------------------------------------------
# Criteria.

@dataclass(frozen=True)
class CriterionResult:
    slug: str
    passed: bool
    detail: str
    seconds: float
    budget: float


def _check(flag: bool, failures: list, message: str) -> None:
    if not flag:
        failures.append(message)


def criterion_counterexample_spectra():
    failures = []
    cases = [
        (fixtures.counterexample_positive_spectrum(), (24.8, 2.9, 1.3)),
        (fixtures.counterexample_single_positive(), (26.3, -1.4, -3.9)),
    ]
    for model, expected in cases:
        # The fastest of five solves times the solve, not the scheduler.
        elapsed = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            spec = full_spectrum(model.matrix)
            elapsed = min(elapsed, time.perf_counter() - t0)
        got = sorted(spec.values.real, reverse=True)
        for val, ref in zip(got, sorted(expected, reverse=True)):
            _check(abs(val - ref) <= 0.05, failures, f"eigenvalue {val} vs {ref}")
        _check(spec.is_real, failures, "spectrum should be real")
        _check(elapsed < 1e-3, failures, f"solve took {elapsed * 1e3:.2f} ms")
    return failures


def criterion_saddle_probe():
    failures = []
    for model in (
        fixtures.counterexample_positive_spectrum(),
        fixtures.counterexample_single_positive(),
    ):
        verdict = probe_convexity(model, trials=10_000, seed=0)
        _check(verdict.verdict == "Indeterminate", failures, "expected saddle")
        up = verdict.convexity_violation
        down = verdict.concavity_violation
        _check(up is not None and up.gap > 1e-4, failures, "no convexity violation")
        _check(
            down is not None and down.gap < -1e-4, failures, "no concavity violation"
        )
    return failures


def criterion_cycle_graph():
    failures = []
    model = fixtures.cycle_model()
    eta = fixtures.one_in_four_strategy()
    r0 = effective_re(model, Strategy.ones(12))
    _check(abs(r0 - 2.0) <= 1e-9, failures, f"R0 {r0}")
    re4 = effective_re(model, eta)
    _check(abs(re4 - math.sqrt(2.0)) <= 1e-9, failures, f"one-in-4 {re4}")
    erad = eradication_cost(model, UNIFORM)
    _check(abs(erad.cstar - 0.5) <= 1e-15, failures, f"cstar {erad.cstar!r}")
    _check(erad.set == (0, 2, 4, 6, 8, 10), failures, f"set {erad.set}")
    _check(erad.exact, failures, "cycle support is symmetric")
    _check(is_disconnecting(model, eta), failures, "one-in-4 disconnects")
    improved, cert = cordon_improvement(model, eta, UNIFORM)
    _check(
        abs(cert.re_after - cert.re_before) <= 1e-10,
        failures,
        f"cordon R_e drift {cert.re_after - cert.re_before}",
    )
    _check(cert.cost_before == 0.25, failures, f"cost before {cert.cost_before!r}")
    _check(cert.cost_after == 0.5, failures, f"cost after {cert.cost_after!r}")
    return failures


def criterion_cordon_not_anti_pareto():
    failures = []
    model = fixtures.cycle_model()
    cordon = math.sqrt(2.0)
    top = optimal_loss_max(model, UNIFORM, 0.25)
    _check(
        cordon < top.loss - 1e-3,
        failures,
        f"maximum {top.loss} does not dominate sqrt(2)",
    )
    # Cross-check the maximum against the coarse two-fractional family.
    family = feasible_region_sample(model, UNIFORM, samples=1, seed=0)
    family_max = max(
        (loss for cst, loss in family if cst >= 0.25 - 1e-12), default=0.0
    )
    _check(
        top.loss >= family_max - 1e-9,
        failures,
        f"maximum {top.loss} below grid family {family_max}",
    )
    anti = anti_pareto_frontier(model, UNIFORM, resolution=64)
    at_cordon = anti.loss_at(0.25)
    _check(
        cordon < at_cordon - 1e-3,
        failures,
        f"cordon not below anti frontier: {at_cordon}",
    )
    return failures


def criterion_convexity_theorem():
    failures = []
    rng = np.random.default_rng(5)
    for kind in ("convex", "concave"):
        for trial in range(200):
            n = int(rng.integers(2, 9))
            if kind == "convex":
                model = random_convex_model(rng, n)
            else:
                model = random_concave_model(rng, n)
            eta0 = rng.random((50, n))
            eta1 = rng.random((50, n))
            t = rng.random((50, 1))
            mids = t * eta0 + (1.0 - t) * eta1
            stacked = np.vstack([eta0, eta1, mids])
            values = effective_re_batch(model, stacked)
            r0, r1, rm = values[:50], values[50:100], values[100:]
            gaps = rm - (t[:, 0] * r0 + (1.0 - t[:, 0]) * r1)
            if kind == "convex":
                bad = gaps.max()
                if bad > 1e-9:
                    failures.append(f"convex trial {trial}: gap {bad}")
            else:
                bad = gaps.min()
                if bad < -1e-9:
                    failures.append(f"concave trial {trial}: gap {bad}")
            if failures and len(failures) > 3:
                return failures
    return failures


def criterion_sylvester():
    failures = []
    rng = np.random.default_rng(6)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        base = rng.normal(size=(n, n))
        t = 0.5 * (base + base.T)
        f = np.exp(rng.uniform(-2.0, 2.0, n))
        g = np.exp(rng.uniform(-2.0, 2.0, n))
        report = sylvester_check(t, f, g)
        if not report.equal:
            failures.append(
                f"trial {trial}: inertia {report.base} vs {report.scaled}"
            )
    return failures


def criterion_invariances():
    failures = []
    rng = np.random.default_rng(7)
    for trial in range(200):
        n = int(rng.integers(2, 9))
        model = random_model(rng, n, density=0.8, scale=2.0)
        k = model.matrix
        eta = rng.random(n)
        base = effective_re(model, Strategy(eta))
        rel = 1e-9 * max(1.0, base)

        a = rng.random((n, n))
        b = rng.random((n, n))
        rho_ab = spectral_radius(a @ b)
        rho_ba = spectral_radius(b @ a)
        _check(
            abs(rho_ab - rho_ba) <= 1e-9 * max(1.0, rho_ab),
            failures,
            f"trial {trial}: commutation {rho_ab} vs {rho_ba}",
        )

        h = 0.2 + 4.8 * rng.random(n)
        conjugated = (h[:, None] * k / h[None, :]) * eta[None, :]
        _check(
            abs(spectral_radius(conjugated) - base) <= rel,
            failures,
            f"trial {trial}: diagonal similarity",
        )
        _check(
            abs(spectral_radius(k.T * eta[:, None]) - base) <= rel,
            failures,
            f"trial {trial}: transpose",
        )
        _check(
            abs(spectral_radius(eta[:, None] * k) - base) <= rel,
            failures,
            f"trial {trial}: left multiplication",
        )

        lam = rng.random()
        scaled = effective_re(model, Strategy(lam * eta))
        _check(
            abs(scaled - lam * base) <= rel,
            failures,
            f"trial {trial}: homogeneity",
        )

        smaller = effective_re(model, Strategy(eta * rng.random(n)))
        _check(smaller <= base + rel, failures, f"trial {trial}: monotonicity")

        dropped = k * (rng.random((n, n)) < 0.7)
        _check(
            spectral_radius(dropped) <= spectral_radius(k) + 1e-12,
            failures,
            f"trial {trial}: domination",
        )
        if len(failures) > 3:
            return failures
    return failures


def _match_spectra(full, parts, rho, failures, label):
    threshold = 1e-6 * max(rho, 1.0)
    tol = 1e-8 * max(rho, 1.0)
    pool = list(parts)
    for lam in full:
        if abs(lam) <= threshold:
            continue
        best = None
        for idx, other in enumerate(pool):
            if best is None or abs(lam - other) < abs(lam - pool[best]):
                best = idx
        if best is None or abs(lam - pool[best]) > 100 * tol:
            failures.append(f"{label}: unmatched eigenvalue {lam}")
            return
        pool.pop(best)


def criterion_reducibility():
    failures = []
    rng = np.random.default_rng(8)
    frontier_budget = 200
    for trial in range(200):
        model, blocks = random_block_upper_model(rng)
        k = model.matrix
        n = model.n
        r0 = effective_re(model, Strategy.ones(n))
        eta = rng.random(n)
        direct = effective_re(model, Strategy(eta))
        per_block = max(
            spectral_radius(k[lo:hi, lo:hi] * eta[None, lo:hi])
            for lo, hi in blocks
        )
        _check(
            abs(direct - per_block) <= 1e-9 * max(1.0, r0),
            failures,
            f"trial {trial}: block max law {direct} vs {per_block}",
        )

        decomp = frobenius_decompose(model)
        _check(
            len(decomp.atoms) == len(blocks),
            failures,
            f"trial {trial}: expected {len(blocks)} atoms, got {len(decomp.atoms)}",
        )
        full = full_spectrum(k).values
        parts = []
        for atom in decomp.atoms:
            parts.extend(full_spectrum(k[np.ix_(atom, atom)]).values)
        parts.extend([0.0] * (n - len(parts)))
        _match_spectra(full, parts, r0, failures, f"trial {trial}")

        if trial < frontier_budget:
            resolution = 4
            effort = dict(starts=3, max_iter=80, window_tol=3e-7)
            assembled = assemble_reducible(
                model, UNIFORM, resolution=resolution, **effort
            )
            direct_curve = pareto_frontier(
                model, UNIFORM, resolution=resolution, **effort
            )
            grid_step = max(
                np.diff(direct_curve.costs()).max(),
                np.diff(assembled.pareto.costs()).max() if len(assembled.pareto.points) > 1 else 0.0,
            )
            slopes = np.abs(
                np.diff(direct_curve.losses()) / np.maximum(np.diff(direct_curve.costs()), 1e-12)
            )
            lipschitz = max(slopes.max() if slopes.size else 0.0, 1.0)
            slack = 2.0 * grid_step * lipschitz + 1e-9
            for point in direct_curve.points:
                gap = assembled.pareto.loss_at(point.cost) - point.loss
                _check(
                    abs(gap) <= slack,
                    failures,
                    f"trial {trial}: pareto assembly gap {gap} at cost {point.cost}",
                )
            direct_anti = anti_pareto_frontier(
                model, UNIFORM, resolution=resolution, **effort
            )
            for point in direct_anti.points:
                gap = assembled.anti.loss_at(point.cost) - point.loss
                _check(
                    abs(gap) <= slack,
                    failures,
                    f"trial {trial}: anti assembly gap {gap} at cost {point.cost}",
                )
        if len(failures) > 3:
            return failures
    return failures


def criterion_configuration_kernels():
    failures = []
    rng = np.random.default_rng(9)
    for trial in range(50):
        n = int(rng.integers(2, 9))
        model, f, g = random_rank_one(rng, n)
        eta = rng.random(n)
        linear = float((f * g * model.weights) @ eta)
        value = effective_re(model, Strategy(eta))
        _check(
            abs(value - linear) <= 1e-10,
            failures,
            f"trial {trial}: R_e {value} vs linear {linear}",
        )
        grad = re_gradient(model, Strategy(eta))
        _check(
            np.abs(grad - f * g * model.weights).max() <= 1e-8,
            failures,
            f"trial {trial}: gradient mismatch",
        )
    return failures


def criterion_mwis_oracle():
    failures = []
    rng = np.random.default_rng(10)
    corpus = [
        (fixtures.cycle_model(), UNIFORM),
        (fixtures.counterexample_positive_spectrum(), UNIFORM),
        (fixtures.counterexample_single_positive(), UNIFORM),
        (fixtures.positive_definite_model(), UNIFORM),
        (fixtures.two_block_model(), UNIFORM),
    ]
    for trial in range(120):
        n = int(rng.integers(4, 17 if trial % 10 == 0 else 13))
        density = 0.1 + 0.5 * rng.random()
        model = random_model(rng, n, density=density)
        cost_fn = (
            UNIFORM
            if trial % 2 == 0
            else CostFunction.affine(0.5 + rng.random(n))
        )
        corpus.append((model, cost_fn))
    for idx, (model, cost_fn) in enumerate(corpus):
        if model.n > 16:
            continue
        exact = max_independent_set(model, cost_fn)
        _, oracle_weight = brute_force_mwis(model, cost_fn)
        if exact.weight != oracle_weight:
            failures.append(
                f"model {idx}: weight {exact.weight!r} vs brute {oracle_weight!r}"
            )
        member = model.matrix[np.ix_(exact.set, exact.set)] if exact.set else None
        if member is not None and np.any(member > 0):
            failures.append(f"model {idx}: returned set not independent")
        if len(failures) > 3:
            return failures
    return failures


def criterion_discretization():
    failures = []
    previous = None
    for m in (25, 50, 100, 200):
        centers = (np.arange(m) + 0.5) / m
        samples = 6.0 * np.outer(centers, centers)
        model = grid_to_model(GridKernelSpec(grid_points=m, samples=samples))
        r0 = effective_re(model, Strategy.ones(m))
        err = abs(r0 - 2.0)
        _check(err <= 10.0 / m, failures, f"M={m}: error {err}")
        if previous is not None:
            _check(err < previous, failures, f"M={m}: error not improving")
        previous = err
    return failures


def criterion_optimal_ray():
    failures = []
    rng = np.random.default_rng(12)
    model = random_convex_model(rng, 4)
    interior = None
    for c in np.linspace(0.05, 0.8, 16):
        solved = optimal_loss(model, UNIFORM, float(c))
        peak = solved.strategy.values.max()
        if 0.05 < peak < 0.95:
            interior = solved.strategy
            break
    if interior is None:
        failures.append("no interior Pareto point found")
        return failures
    report = optimal_ray_check(model, UNIFORM, interior)
    for lam, expected, solved_value, ok in zip(
        report.lambdas, report.expected, report.solved, report.passed
    ):
        _check(
            ok,
            failures,
            f"lambda {lam:.3f}: expected {expected} solved {solved_value}",
        )
    return failures


CRITERIA = (
    ("counterexample-eigenvalues", criterion_counterexample_spectra, 5.0),
    ("saddle-probe", criterion_saddle_probe, 5.0),
    ("cycle-graph", criterion_cycle_graph, 0.1),
    ("cordon-not-anti-pareto", criterion_cordon_not_anti_pareto, 60.0),
    ("convexity-theorem", criterion_convexity_theorem, 120.0),
    ("sylvester", criterion_sylvester, 10.0),
    ("invariances", criterion_invariances, 30.0),
    ("reducibility", criterion_reducibility, 120.0),
    ("configuration-kernels", criterion_configuration_kernels, 5.0),
    ("mwis-oracle", criterion_mwis_oracle, 60.0),
    ("discretization-stability", criterion_discretization, 10.0),
    ("optimal-ray", criterion_optimal_ray, 60.0),
)


def run_criteria(only: str | None = None) -> list[CriterionResult]:
    results = []
    for slug, fn, budget in CRITERIA:
        if only and only not in slug:
            continue
        t0 = time.perf_counter()
        try:
            failures = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            failures = [f"exception: {exc!r}"]
        elapsed = time.perf_counter() - t0
        passed = not failures and elapsed < budget
        detail = "; ".join(failures) if failures else ""
        if not failures and elapsed >= budget:
            detail = f"runtime {elapsed:.1f}s over budget {budget}s"
        results.append(CriterionResult(slug, passed, detail, elapsed, budget))
    return results
