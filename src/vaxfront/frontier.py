"""Pareto and anti-Pareto vaccination frontiers.

The feasible set at budget c is the box slice {eta in [0,1]^N : C(eta) <= c},
a halfspace w . eta >= b in the natural variables (w_i = coef_i mu_i,
b = c_max - c).  The Pareto side minimizes R_e over it with projected
gradient descent (eigenvector gradients, Armijo backtracking, exact projection
onto box-and-halfspace by one sweep over sorted breakpoints); under a Convex
verdict a single start is certified global, otherwise the best of the
multistarts (16 for a direct call, 8 per budget in a sweep) is an upper
bound.  The anti-Pareto side maximizes R_e over {C(eta) >= c}: under a Convex
verdict the maximum sits at a polytope vertex with at most one fractional
coordinate, enumerated exactly up to 20 groups; otherwise the better of the
enumeration and multi-start projected ascent is reported as a certified lower
bound.

Each iteration's step has two rules.  Where K has at most one atom, R_e is
one Perron root, smooth away from clusters: the direction is its gradient
and the first Armijo trial the Barzilai-Borwein two-point step (Barzilai and
Borwein 1988; Birgin, Martinez and Raydan 2000).  Where it has several, R_e
is the largest atom radius, with a kink wherever two radii tie, and the
Pareto optimum sits on such kinks.  There the minimizing direction comes
from one eigendecomposition of K diag(eta): the gradient of each atom
radius within 1e-3 of R_e, each projected onto the constraints active at
eta, and the minimum-norm point of their convex hull (Wolfe 1975; Lewis
and Overton 1996), which lowers the tied radii at one rate.  The first
trial stays 4 times the last accepted step, as the two-point step
overshoots the kinks.  The anti side keeps the whole-matrix gradient, one
formula from one ``eigh`` on a symmetrizable K (at a tied top eigenvalue
the top eigenvector's element of the generalized gradient) and the top
atom row on a general K.  Where zeros of eta cut K, R_e is the largest
radius of the components left, whose rows serve at ties the eigensolver
does not keep apart.  A run ends where no gradient comes.  Every Armijo
ladder stops before a trial whose required decrease is below the rounding
of R_e.

Each side's public single-budget solve is its checks plus one driver,
``_minimize`` or ``_maximize``; each sweep computes its invariants (the
convexity verdict and the atom count among them) once and calls the driver.
Both sides share one budget check, one multistart loop and one monotone
sweep, which warm-starts each budget from the previous point and keeps that
point when a solve does worse.  The reducible assembly builds both sides
from strategies: each point is the cost and R_e of its own.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .convexity import classify_convexity
from .errors import (
    DimensionMismatch,
    NonConvergence,
    NonSimple,
    PreconditionFailed,
    ValidationError,
    ZeroRadius,
)
from .independent import eradication_cost
from .model import CostFunction, MetapopModel, Strategy, _check_int, _is_int, c_max, cost
from .spectral import (
    _atom_gradients,
    _re_with_eig,
    effective_re,
    effective_re_batch,
    re_gradient,
)
from .structure import _atom_submodel, _atoms, frobenius_decompose

ARMIJO_SHRINK = 0.5
ARMIJO_DECREASE = 1e-4
PGD_ITERATION_CAP = 500
MULTISTARTS = 16
VERTEX_BUDGET = 20
LOSS_ZERO_TOL = 1e-8
_STARTS_SEED = 7151020
RAY_GRID = 16
RAY_TOL = 1e-6
_HULL_STEPS = 8  # Frank-Wolfe steps of ``_min_norm`` on three or more rows
_ACTIVE_TOL = 1e-5  # a bound or budget this close to x is active in ``_hull_direction``
_HULL_EIG_GROUPS = 12  # above this the several-atom descent's R_e trials skip eigenvectors
_BATCH = 65536


def _unit_clip(a: np.ndarray) -> np.ndarray:
    """np.clip(a, 0, 1) as two bare ufunc calls, without np.clip's wrappers."""
    out = np.maximum(a, 0.0)
    return np.minimum(out, 1.0, out=out)


def _project_budget(x: np.ndarray, w: np.ndarray, b: float, sense: str) -> np.ndarray:
    """Exact Euclidean projection onto [0,1]^N intersected with a halfspace.

    ``sense='ge'`` projects onto {w . eta >= b}, ``'le'`` onto {w . eta <= b}
    through the reflection eta -> 1 - eta.  Where clip(x) falls short of b, the
    projection is clip(x + t w) for the least t >= 0 with w . clip(x + t w) = b
    (all ones if none).  That is piecewise linear in t, with slope sum w_i^2
    over the coordinates inside (0, 1): one sweep in Python floats (numpy's
    call overhead outweighs the work here) over the sorted t where x_i + t w_i
    enters or leaves [0, 1] finds t (Kiwiel 2008).  Where the slope is zero up
    to rounding, clip(x + t w) stays put, so t stops at the segment's end.
    """
    y = _unit_clip(x)
    value = float(w @ y)
    if sense == "le":
        if value <= b:
            return y
        total = float(w.sum())
        x, b, value = 1.0 - x, total - b, total - value
    elif value >= b:
        return y
    slope = 0.0
    events = []  # (t, change of slope)
    for xi, wi in zip(x.tolist(), w.tolist()):
        if xi >= 1.0:
            continue
        if xi < 0.0:
            events.append((-xi / wi, wi * wi))
        else:
            slope += wi * wi
        events.append(((1.0 - xi) / wi, -wi * wi))
    events.sort()
    t, phi = 0.0, value
    for tk, dk in events:
        reached = phi + slope * (tk - t)
        if reached >= b:
            t = min(tk, t + (b - phi) / slope)
            break
        t, phi, slope = tk, reached, slope + dk
    else:
        t = math.inf  # every coordinate ends at 1
    y = _unit_clip(x + t * w)
    return y if sense == "ge" else 1.0 - y


@dataclass(frozen=True, eq=False)
class _Halfspace:
    """The feasible set [0,1]^N cut by {w . eta >= b}; calling it projects."""

    w: np.ndarray
    b: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _project_budget(x, self.w, self.b, "ge")


def _hull_direction(grads: np.ndarray, x: np.ndarray,
                    feasible: _Halfspace) -> np.ndarray:
    """The minimum-norm point of the convex hull of the rows of ``grads``,
    each first projected onto the constraints active at ``x``; a lone
    gradient as it is.

    The active constraints are the budget hyperplane and every coordinate
    on a bound that the hull point pushes outward, both within
    ``_ACTIVE_TOL`` of x: a bound closer than that would cut the first trial
    steps short and turn them, and the ladder would run down to the rounding
    floor.  Coordinates are fixed one round at a time until none is pushed
    out.  All rows share the active set, so the projection is linear and
    each row falls along the hull point at the rate the hull computes.
    """
    if len(grads) == 1:
        return grads[0]
    w = feasible.w
    tight = float(w @ x) <= feasible.b + _ACTIVE_TOL * max(1.0, feasible.b)
    low, high = x <= _ACTIVE_TOL, x >= 1.0 - _ACTIVE_TOL
    free = np.ones(x.size, dtype=bool)
    while free.any():
        rows = grads * free
        wf = w * free
        norm = float(wf @ wf)
        if tight and norm > 0.0:
            rows -= np.outer(rows @ wf / norm, wf)
        d = _min_norm(rows)
        out = free & ((low & (d > 0.0)) | (high & (d < 0.0)))
        if not out.any():
            return d
        free &= ~out
    return np.zeros(x.size)


def _min_norm(rows: np.ndarray) -> np.ndarray:
    """The minimum-norm point of the convex hull of ``rows``: the closed-form
    weight for two, ``_HULL_STEPS`` Frank-Wolfe steps with exact line search
    for more (Wolfe 1975), on their Gram matrix in Python floats (numpy's call
    overhead outweighs the work)."""
    gram = (rows @ rows.T).tolist()
    k = len(gram)
    if k == 2:
        (a, c), (_, b) = gram
        curvature = a - 2.0 * c + b
        lam = min(1.0, max(0.0, (b - c) / curvature)) if curvature > 0.0 else 1.0
        return lam * rows[0] + (1.0 - lam) * rows[1]
    weights = [0.0] * k
    weights[min(range(k), key=lambda i: gram[i][i])] = 1.0
    for _ in range(_HULL_STEPS):
        slope = [sum(map(operator.mul, row, weights)) for row in gram]
        norm = sum(map(operator.mul, slope, weights))
        i = min(range(k), key=slope.__getitem__)
        gap = norm - slope[i]  # the duality gap of the step towards row i
        if gap <= 0.0:
            break
        t = min(1.0, gap / (gram[i][i] - 2.0 * slope[i] + norm))
        weights = [(1.0 - t) * u for u in weights]
        weights[i] += t
    return np.array(weights) @ rows


def _pgd(model, project, x0, maximize, max_iter=PGD_ITERATION_CAP,
         window_tol=1e-9, single_atom=True):
    """Projected gradient with Armijo backtracking; returns (value, point).

    The direction comes from the ``_atom_gradients`` of K diag(x), whose
    zeros can cut one atom of K into several: the maximizing side takes the
    top row, the whole-matrix gradient; the minimizing side, where R_e is
    the largest atom radius with a kink wherever two radii tie, the
    ``_hull_direction`` of the rows (``project`` is then a ``_Halfspace``),
    which lowers the tied radii together where one gradient would zigzag
    across the kink.  On a general K of at most ``spectral._DENSE_CUTOFF``
    groups each visited point, the start and every Armijo trial, is solved
    once: one ``eig`` of K diag(x) gives R_e (``_re_with_eig``), and the
    gradient at an accepted point reuses it; the several-atom minimizing
    side does so only up to ``_HULL_EIG_GROUPS`` groups.  Where no ``eig``
    is at hand for a K with at most one atom (``single_atom``) or for the
    maximizing side, as on the symmetric route, ``re_gradient`` serves; it
    answers at a tied top of a symmetrizable K.  A gradient that raises
    ends the run at its current point.

    The first Armijo trial is 4 times the last accepted step.  Where K has at
    most one atom (``single_atom``), R_e is one Perron root, smooth away from
    clusters, and the first trial is instead the Barzilai-Borwein step
    s.s / s.y (s and y the changes of the point and of the signed gradient
    since the previous iterate) whenever s.y > 0; the short step s.y / y.y
    made six times the gradients on the 12-cycle's anti sweep.  Either trial
    is capped at 100 / max|g|.  On several atoms R_e is the largest atom
    radius, with kinks where two radii tie; there the two-point step
    overshoots the kink and the runs end at worse points, so those keep the
    4x rule.  A failed ladder is tried once more from the nominal step
    0.5 / max|g|.  Each ladder stops before a trial whose required decrease
    ``ARMIJO_DECREASE * |g . delta|`` is at most 1e-15 max(1, |R_e|), the
    rounding of R_e, which alone would accept or refuse it.

    Besides the per-step Armijo test, progress is watched over a sliding
    window: zigzagging between nearly tied spectral branches makes steady
    but negligible gains, and the window rule cuts those crawls off.
    """
    sign = -1.0 if maximize else 1.0
    x = project(x0)
    # Eigenvectors at every trial pay for the gradient's own eig only where
    # trials per accepted point are few; the several-atom descent makes
    # about 3.3, which lose from 16 groups on (see ``_re_with_eig``).
    vectors = single_atom or maximize or model.n <= _HULL_EIG_GROUPS
    fx, solved = _re_with_eig(model, x, vectors)
    window: list[float] = []
    last_step = None
    for _ in range(max_iter):
        if not maximize and fx <= 1e-13:
            break
        try:
            if solved is None and (single_atom or maximize):
                grad = re_gradient(model, Strategy(x))
            else:
                rows = _atom_gradients(model, x, solved)
                grad = rows[0] if maximize else _hull_direction(rows, x, project)
        except (ZeroRadius, NonSimple, NonConvergence):
            break
        g = sign * grad
        gmax = np.abs(g).max()
        if gmax <= 1e-15:
            break
        # Warm-start the backtracking from the latest accepted step (or the
        # two-point step); retry once from the nominal step before declaring
        # the iterate stationary.
        trial_steps = [0.5 / gmax]
        if last_step is not None:
            first = 4.0 * last_step
            if single_atom:
                s, y = x - x_prev, g - g_prev
                sy = float(s @ y)
                if sy > 0.0:
                    first = float(s @ s) / sy
            trial_steps.insert(0, min(first, 100.0 / gmax))
        x_prev, g_prev = x, g
        # A decrease the test would require below this is lost in R_e's rounding.
        floor = 1e-15 * max(1.0, abs(fx))
        improved = False
        for step in trial_steps:
            for _ in range(40):
                candidate = project(x - step * g)
                delta = candidate - x
                slope = float(g @ delta)
                if ARMIJO_DECREASE * abs(slope) <= floor:
                    break
                fc, solved_c = _re_with_eig(model, candidate, vectors)
                if sign * (fc - fx) <= ARMIJO_DECREASE * slope:
                    x, fx, solved = candidate, fc, solved_c
                    improved = True
                    last_step = step
                    break
                step *= ARMIJO_SHRINK
            if improved:
                break
        if not improved:
            break
        window.append(fx)
        if len(window) > 12:
            window.pop(0)
            if sign * (window[0] - fx) <= window_tol * max(1.0, abs(fx)):
                break
    return fx, x


def _round_key(x: np.ndarray):
    return tuple(np.round(x / 1e-9) * 1e-9)


def _better(best, candidate, maximize):
    """Ties go to the lexicographically smallest strategy rounded to 1e-9."""
    if best is None:
        return True
    fb, xb = best
    fc, xc = candidate
    sign = -1.0 if maximize else 1.0
    if sign * fc < sign * fb:
        return True
    return fc == fb and _round_key(xc) < _round_key(xb)


def _multistart(model, project, start_points, maximize, best, max_iter, window_tol,
                single_atom=True):
    """Run ``_pgd`` from each start and keep the ``_better`` of it and ``best``.

    ``_pgd`` is deterministic, so a start with the same bytes as an earlier
    one would repeat that run and lose the tie; it is skipped.  (The
    eradication start and the zero start often project to the same point.)
    The minimization stops at the first start that reaches zero loss.
    """
    seen = set()
    for start in start_points:
        key = start.tobytes()
        if key in seen:
            continue
        seen.add(key)
        candidate = _pgd(
            model, project, start, maximize=maximize, max_iter=max_iter,
            window_tol=window_tol, single_atom=single_atom,
        )
        if _better(best, candidate, maximize):
            best = candidate
        if not maximize and best[0] <= 1e-13:
            break
    return best


@dataclass(frozen=True)
class OptimalPoint:
    cost: float
    loss: float
    strategy: Strategy
    status: str  # Converged | MultiStartBest | VertexEnumerated


FrontierPoint = OptimalPoint


def _is_convex(model: MetapopModel) -> bool:
    """Whether ``classify_convexity`` proves R_e convex on the unit box."""
    return classify_convexity(model).verdict in ("Convex", "Linear")


def _single_atom(model: MetapopModel) -> bool:
    """Whether K has at most one atom, so that R_e is one Perron root and
    ``_pgd`` takes the two-point first trial."""
    return len(_atoms(model, 0.0)[2]) <= 1


def _min_starts(n: int, project, count: int = MULTISTARTS) -> list[np.ndarray]:
    """The centre, all-ones and all-zeros starts, then seeded random ones."""
    fixed = (np.full(n, 0.5), np.ones(n), np.zeros(n))
    rng = np.random.default_rng(_STARTS_SEED) if count > 3 else None
    return [project(fixed[k] if k < 3 else rng.random(n)) for k in range(count)]


def _budget(model: MetapopModel, cost_fn: CostFunction, c: float):
    """``(c_max, w)`` with the halfspace normal w = coef * mu, for a budget c
    in [0, c_max]; anything else, NaN included, raises ValidationError."""
    cmax = c_max(cost_fn, model)
    if not -1e-12 <= c <= cmax + 1e-9:
        raise ValidationError(f"budget {c} outside [0, {cmax}]")
    return cmax, cost_fn.coefficient_vector(model.n) * model.weights


def _check_effort(n, extra_starts, starts, max_iter, window_tol, resolution=2):
    """Raise on effort arguments the solver cannot honour, before any work."""
    _check_int("resolution", resolution, 2)
    _check_int("starts", starts, 1)
    _check_int("max_iter", max_iter, 0)
    real = _is_int(window_tol) or isinstance(window_tol, (float, np.floating))
    if not (real and 0 <= window_tol < math.inf):
        raise ValidationError(f"window_tol must be a finite real >= 0, got {window_tol!r}")
    for start in extra_starts:
        row = np.asarray(start, dtype=float)
        if row.shape != (n,):
            raise DimensionMismatch(f"extra start of shape {row.shape}, model has {n} groups")
        if not np.isfinite(row).all():
            raise ValidationError("extra starts must be finite")


def optimal_loss(
    model: MetapopModel,
    cost_fn: CostFunction,
    c: float,
    extra_starts: tuple[np.ndarray, ...] = (),
    starts: int = MULTISTARTS,
    max_iter: int = PGD_ITERATION_CAP,
    window_tol: float = 1e-9,
) -> OptimalPoint:
    """Minimize R_e subject to C(eta) <= c.

    Returns an upper bound on the true optimum in general; when
    ``classify_convexity`` gives a Convex (or Linear) verdict, the
    single-start solution is the global optimum and is labelled Converged.
    """
    _check_effort(model.n, extra_starts, starts, max_iter, window_tol)
    cmax, w = _budget(model, cost_fn, c)
    if cmax - c <= 0:
        zero = Strategy.zeros(model.n)
        return OptimalPoint(cost=c, loss=0.0, strategy=zero, status="Converged")
    erad = eradication_cost(model, cost_fn)
    return _minimize(
        model, w, cmax - c, c, _is_convex(model), _single_atom(model), erad,
        extra_starts, starts, max_iter, window_tol,
    )


def _minimize(model, w, b, c, convex, single_atom, erad, extra_starts, starts,
              max_iter, window_tol) -> OptimalPoint:
    """``optimal_loss`` after its checks, on {w . eta >= b} with b > 0."""

    project = _Halfspace(w, b)
    start_points = [project(np.asarray(s, dtype=float)) for s in extra_starts]
    # The eradicating strategy is the one known point with loss exactly
    # zero; when it fits the budget the solve is settled, and otherwise its
    # projection is a strong start near the eradication end.
    if erad.cstar <= c + 1e-15:
        return OptimalPoint(
            cost=c, loss=0.0, strategy=erad.strategy, status="Converged"
        )
    start_points.append(project(erad.strategy.values))
    start_points += _min_starts(model.n, project, 1 if convex else starts)
    best = _multistart(
        model, project, start_points, False, None, max_iter, window_tol, single_atom
    )
    status = "Converged" if convex else "MultiStartBest"
    return OptimalPoint(
        cost=c, loss=float(best[0]), strategy=Strategy(best[1]), status=status
    )


def _vertex_maximum(model, w, budget):
    """Best (loss, eta) over the maximal vertices of {w . eta <= budget}.

    The 0/1 corners grow one coordinate at a time in the stable heaviest-first
    order; a corner takes coordinate j when w_j <= (budget - spent) + 1e-15,
    ``spent`` summed in that order.  A maximal vertex is a corner topped off
    with one coordinate that does not fit whole, at the fraction that
    exhausts the budget, or a plain corner with no such top-up, into which
    no coordinate fits.  Monotonicity of R_e makes them sufficient for the
    maximum, convexity makes the enumeration exact.  Rows are scored in
    blocks of at most ``_BATCH``; ties go as in ``_better``.
    """
    n, eps = w.size, 1e-15
    corners = np.zeros((1, n), dtype=bool)
    spent = np.zeros(1)
    for j in np.argsort(-w, kind="stable"):
        # Each corner that takes j is followed by its copy without j.
        fits = w[j] <= (budget - spent) + eps
        grown = np.flatnonzero(fits) + np.cumsum(fits)[fits] - 1
        corners = np.repeat(corners, fits + 1, axis=0)
        spent = np.repeat(spent, fits + 1)
        corners[grown, j] = True
        spent[grown] += w[j]
    best = None
    step = _BATCH // n
    for lo in range(0, len(corners), step):
        inside = corners[lo:lo + step]
        rem = budget - spent[lo:lo + step, None]
        over = ~inside & (w > rem + eps)
        topped = over & (rem > eps)
        plain = ~topped.any(axis=1) & (inside | over).all(axis=1)
        k, j = np.nonzero(np.column_stack((topped, plain)))
        if not len(k):  # a block of corners that neither top up nor stay plain
            continue
        rows = inside[k].astype(float)
        frac = j < n
        rows[frac, j[frac]] = np.minimum(1.0, rem[k[frac], 0] / w[j[frac]])
        values = effective_re_batch(model, rows)
        i = min(np.flatnonzero(values == values.max()),
                key=lambda r: _round_key(rows[r]))
        candidate = (float(values[i]), rows[i].copy())
        if _better(best, candidate, maximize=True):
            best = candidate
    return best


def optimal_loss_max(
    model: MetapopModel,
    cost_fn: CostFunction,
    c: float,
    extra_starts: tuple[np.ndarray, ...] = (),
    starts: int = MULTISTARTS,
    max_iter: int = PGD_ITERATION_CAP,
    window_tol: float = 1e-9,
) -> OptimalPoint:
    """Maximize R_e subject to C(eta) >= c.

    The checks and the two ends (R_0 at all ones for c <= 0, the zero
    strategy for c = c_max), then ``_maximize``.  Under a Convex verdict of
    ``classify_convexity`` the maximum sits at an extreme point of the
    polytope, and vertex enumeration (at most one fractional coordinate) is
    exact.  Without convexity the maximum may sit inside the budget face, so
    the result is the better of the enumeration (up to ``VERTEX_BUDGET``
    groups) and multi-start projected ascent seeded with the best vertex, a
    certified lower bound.
    """
    _check_effort(model.n, extra_starts, starts, max_iter, window_tol)
    cmax, w = _budget(model, cost_fn, c)
    ones = Strategy.ones(model.n)
    r0 = effective_re(model, ones)
    if c <= 0:
        return OptimalPoint(cost=c, loss=r0, strategy=ones, status="VertexEnumerated")
    if cmax - c <= 0:  # all zeros is the only feasible strategy
        return OptimalPoint(c, 0.0, Strategy.zeros(model.n), "VertexEnumerated")
    convex = model.n <= VERTEX_BUDGET and _is_convex(model)
    return _maximize(model, w, cmax - c, c, r0, convex, _single_atom(model),
                     extra_starts, starts, max_iter, window_tol)


def _maximize(model, w, budget, c, r0, convex, single_atom, extra_starts, starts,
              max_iter, window_tol) -> OptimalPoint:
    """``optimal_loss_max`` after its checks, on {w . eta <= budget} with budget > 0."""
    best = None
    if model.n <= VERTEX_BUDGET:
        best = _vertex_maximum(model, w, budget)
        # Monotonicity bounds every feasible loss by R_0, so hitting it
        # certifies the enumeration even without convexity.
        if convex or best[0] >= r0 - 1e-12 * max(1.0, r0):
            return OptimalPoint(c, best[0], Strategy(best[1]), "VertexEnumerated")

    def project(x):
        return _project_budget(x, w, budget, "le")

    start_points = [project(np.asarray(s, dtype=float)) for s in extra_starts]
    if best is not None:
        start_points.append(best[1])
    start_points += _min_starts(model.n, project, starts)
    best = _multistart(
        model, project, start_points, True, best, max_iter, window_tol, single_atom
    )
    return OptimalPoint(
        cost=c, loss=float(best[0]), strategy=Strategy(best[1]), status="MultiStartBest"
    )


def _sweep(first: OptimalPoint, budgets, solve, maximize: bool) -> list[OptimalPoint]:
    """Monotone frontier sweep from ``first`` through ``budgets``.

    ``solve(c, extra_starts)`` is warm-started from the previous point; a
    solve that does worse than that point keeps its loss and strategy.  A
    minimizing sweep stops once the loss reaches ``LOSS_ZERO_TOL``.
    """
    sign = -1.0 if maximize else 1.0
    points = [first]
    for c in budgets:
        previous = points[-1]
        extra = (previous.strategy.values,) if len(points) > 1 else ()
        solved = solve(c, extra)
        source = solved if sign * solved.loss <= sign * previous.loss else previous
        points.append(OptimalPoint(c, source.loss, source.strategy, solved.status))
        if not maximize and source.loss <= LOSS_ZERO_TOL:
            break
    return points


@dataclass(frozen=True)
class FrontierCurve:
    """Sampled frontier, ordered by cost.

    Pareto curves run from (0, R_0) down to (c_star, 0); anti-Pareto curves
    from (c_ceiling, R_0) down to (c_max, 0), where c_ceiling is the maximal
    cost of totally inefficient strategies.
    """

    points: tuple[FrontierPoint, ...]
    kind: str  # Pareto | AntiPareto
    grid_resolution: int

    def costs(self) -> np.ndarray:
        return np.array([p.cost for p in self.points])

    def losses(self) -> np.ndarray:
        return np.array([p.loss for p in self.points])

    def loss_at(self, budget: float) -> float:
        """Piecewise-linear interpolation of the sampled curve."""
        costs = self.costs()
        losses = self.losses()
        return float(np.interp(budget, costs, losses))

    def cost_at(self, loss: float) -> float:
        """Inverse interpolation (the curve is nonincreasing in cost)."""
        costs = self.costs()[::-1]
        losses = self.losses()[::-1]
        return float(np.interp(loss, losses, costs))


def pareto_frontier(
    model: MetapopModel,
    cost_fn: CostFunction,
    resolution: int = 64,
    starts: int = 8,
    max_iter: int = PGD_ITERATION_CAP,
    window_tol: float = 1e-9,
) -> FrontierCurve:
    """Sweep budgets over [0, c_star], warm-starting each solve.

    Endpoints (0, R_0) and (c_star, 0) are inserted from their closed-form
    sources, the second labelled MultiStartBest when c_star is only an upper
    bound (its search stopped at the node budget); interior points are
    monotone by carrying each optimum forward as a start for the next
    budget.  The convexity verdict, the eradication result and the budget
    halfspace are computed once.
    """
    n = model.n
    _check_effort(n, (), starts, max_iter, window_tol, resolution)
    convex = _is_convex(model)
    single_atom = _single_atom(model)
    erad = eradication_cost(model, cost_fn)
    cmax, w = _budget(model, cost_fn, 0.0)
    r0 = effective_re(model, Strategy.ones(n))
    cs = erad.cstar

    # Warm starts accumulate diversity along the sweep, so a reduced
    # per-point start budget keeps the curve tight at a fraction of the
    # standalone solve cost.
    def solve(c, extra):
        return _minimize(
            model, w, cmax - c, c, convex, single_atom, erad, extra, starts,
            max_iter, window_tol,
        )

    points = _sweep(
        OptimalPoint(0.0, r0, Strategy.ones(n), "Converged"),
        [cs * k / resolution for k in range(1, resolution)],
        solve,
        maximize=False,
    )
    status = "Converged" if erad.exact else "MultiStartBest"
    points.append(OptimalPoint(cs, 0.0, erad.strategy, status))
    return FrontierCurve(points=tuple(points), kind="Pareto", grid_resolution=resolution)


def _ceiling_with_witness(model: MetapopModel, cost_fn: CostFunction):
    decomp = frobenius_decompose(model)
    if not decomp.atoms:
        return c_max(cost_fn, model), Strategy.zeros(model.n)
    r0 = max(decomp.atom_radii)
    tol = 1e-9 * max(1.0, r0)
    best = 0.0
    witness = Strategy.ones(model.n)
    for atom, radius in zip(decomp.atoms, decomp.atom_radii):
        if radius >= r0 - tol:
            candidate = Strategy.indicator(model.n, atom)
            value = cost(cost_fn, model, candidate)
            if value >= best:
                best = value
                witness = candidate
    return best, witness


def inefficiency_ceiling(model: MetapopModel, cost_fn: CostFunction) -> float:
    """Maximal cost of totally inefficient strategies.

    From the Frobenius decomposition: the largest cost of keeping one
    critical atom (an atom whose radius attains R_0) fully non-vaccinated
    and vaccinating everyone else; zero for irreducible kernels.
    """
    return _ceiling_with_witness(model, cost_fn)[0]


def anti_pareto_frontier(
    model: MetapopModel,
    cost_fn: CostFunction,
    resolution: int = 64,
    starts: int = 8,
    max_iter: int = PGD_ITERATION_CAP,
    window_tol: float = 1e-9,
) -> FrontierCurve:
    """Sweep budgets over [c_ceiling, c_max], sweeping downward from c_max.

    The previous optimum stays feasible as the budget decreases and is
    carried along as an extra ascent start, making the reported curve
    monotone.  R_0, the budget halfspace and the convexity verdict (read
    only by the vertex enumeration, up to ``VERTEX_BUDGET`` groups) are
    computed once.
    """
    n = model.n
    _check_effort(n, (), starts, max_iter, window_tol, resolution)
    convex = n <= VERTEX_BUDGET and _is_convex(model)
    single_atom = _single_atom(model)
    cmax, w = _budget(model, cost_fn, 0.0)
    ceiling, top_strategy = _ceiling_with_witness(model, cost_fn)
    r0 = effective_re(model, Strategy.ones(n))

    def solve(c, extra):
        return _maximize(
            model, w, cmax - c, c, r0, convex, single_atom, extra, starts,
            max_iter, window_tol,
        )

    budgets = [
        ceiling + (cmax - ceiling) * k / resolution
        for k in range(resolution - 1, 0, -1)
    ]
    tail = _sweep(
        OptimalPoint(cmax, 0.0, Strategy.zeros(n), "Converged"),
        budgets,
        solve,
        maximize=True,
    )
    tail.append(OptimalPoint(ceiling, r0, top_strategy, "Converged"))
    return FrontierCurve(
        points=tuple(reversed(tail)), kind="AntiPareto", grid_resolution=resolution
    )


@dataclass(frozen=True)
class AssembledFrontiers:
    pareto: FrontierCurve
    anti: FrontierCurve
    per_atom: tuple[tuple[tuple[int, ...], FrontierCurve, FrontierCurve], ...]


def assemble_reducible(
    model: MetapopModel,
    cost_fn: CostFunction,
    resolution: int = 64,
    starts: int = 8,
    max_iter: int = PGD_ITERATION_CAP,
    window_tol: float = 1e-9,
) -> AssembledFrontiers:
    """Assemble whole-model frontiers from the per-atom frontiers.

    R_e of a reducible kernel is the largest R_e of its atoms, so both sides
    follow from the Frobenius decomposition, level by level over a grid of
    target losses l in [0, R_0].  Each side builds one strategy per level and
    reports (C(s), R_e(s), s).  On the anti side, the atom that maximizes its
    own anti-Pareto cost at l (extended by zero above its radius, and shifted
    by the cost of vaccinating everything outside the atom) is solved again
    with ``optimal_loss_max`` at that cost, and everything outside it is
    vaccinated.  On the Pareto side an atom whose radius is at most l, up to
    the rounding slack 1e-9 max(1, R_0) the anti side also allows, needs
    no vaccination and stays at exactly 1; every other atom takes its own
    optimal strategy at the budget its Pareto curve gives for l, solved
    again with ``optimal_loss``, and the quasi-nilpotent remainder stays
    entirely non-vaccinated.  An atom's radius is the first point of its
    Pareto curve.
    """
    _check_effort(model.n, (), starts, max_iter, window_tol, resolution)
    _, _, atoms, _ = _atoms(model, 0.0)
    if not atoms:
        raise ValidationError("assembly needs at least one atom")
    n = model.n
    r0 = effective_re(model, Strategy.ones(n))
    coef = cost_fn.coefficient_vector(n)
    effort = dict(starts=starts, max_iter=max_iter, window_tol=window_tol)

    per_atom = []
    subs = []  # (submodel, its cost function, cost outside the atom, radius)
    for atom in atoms:
        sub_model, sub_cost = _atom_submodel(model, cost_fn, atom)
        sub_pareto = pareto_frontier(sub_model, sub_cost, resolution, **effort)
        sub_anti = anti_pareto_frontier(sub_model, sub_cost, resolution, **effort)
        outside = sorted(set(range(n)) - set(atom))
        shift = math.fsum((coef[outside] * model.weights[outside]).tolist())
        per_atom.append((atom, sub_pareto, sub_anti))
        subs.append((sub_model, sub_cost, shift, sub_pareto.points[0].loss))

    def curve(strategies, kind):
        points = [
            FrontierPoint(cost(cost_fn, model, s), effective_re(model, s), s,
                          "MultiStartBest")
            for s in strategies
        ]
        points.sort(key=lambda p: (p.cost, -p.loss))
        return FrontierCurve(tuple(points), kind, resolution)

    # At the top level, R_0 and the largest radius differ by rounding.
    rounding = 1e-9 * max(1.0, r0)
    pareto, anti = [], []
    for level in np.linspace(0.0, r0, resolution + 1):
        values = np.ones(n)
        best_cost, chosen = 0.0, None
        for (atom, sub_pareto, sub_anti), (sub_model, sub_cost, shift, radius) in zip(
            per_atom, subs
        ):
            if level < radius - rounding:
                budget = sub_pareto.cost_at(float(level))
                solved = optimal_loss(sub_model, sub_cost, budget, **effort)
                values[list(atom)] = solved.strategy.values
            sub_c = sub_anti.cost_at(level)
            if level <= radius + rounding and shift + sub_c >= best_cost:
                best_cost, chosen = shift + sub_c, (atom, sub_model, sub_cost, sub_c)
        atom, sub_model, sub_cost, sub_c = chosen
        solved = optimal_loss_max(sub_model, sub_cost, sub_c, **effort)
        anti_values = np.zeros(n)
        anti_values[list(atom)] = solved.strategy.values
        pareto.append(Strategy(values))
        anti.append(Strategy(anti_values))
    return AssembledFrontiers(
        pareto=curve(pareto, "Pareto"), anti=curve(anti, "AntiPareto"),
        per_atom=tuple(per_atom),
    )


@dataclass(frozen=True)
class RayCheckReport:
    lambdas: tuple[float, ...]
    expected: tuple[float, ...]
    solved: tuple[float, ...]
    passed: tuple[bool, ...]

    @property
    def all_passed(self) -> bool:
        return all(self.passed)


def optimal_ray_check(
    model: MetapopModel,
    cost_fn: CostFunction,
    eta_star: Strategy,
) -> RayCheckReport:
    """Verify Pareto membership of the whole ray of scaled optima.

    With an affine decreasing cost and convex R_e, a Pareto optimum eta_star
    with max entry strictly inside (0, 1) generates Pareto optima
    lambda * eta_star for lambda in [0, 1/max(eta_star)]; each of
    ``RAY_GRID`` evenly spaced lambdas passes when the solved optimum at
    equal budget matches R_e of the scaled point within ``RAY_TOL``.
    """
    if not _is_convex(model):
        raise PreconditionFailed("ray check needs a Convex or Linear verdict")
    peak = float(eta_star.values.max())
    if not 0.0 < peak < 1.0:
        raise PreconditionFailed("ray check needs max(eta_star) strictly in (0, 1)")
    lambdas = np.linspace(0.0, 1.0 / peak, RAY_GRID)
    expected, solved, passed = [], [], []
    for lam in lambdas:
        scaled = Strategy(np.clip(lam * eta_star.values, 0.0, 1.0))
        budget = cost(cost_fn, model, scaled)
        target = effective_re(model, scaled)
        answer = optimal_loss(model, cost_fn, budget, extra_starts=(scaled.values,))
        expected.append(target)
        solved.append(answer.loss)
        passed.append(abs(answer.loss - target) <= RAY_TOL)
    return RayCheckReport(
        lambdas=tuple(float(x) for x in lambdas),
        expected=tuple(expected),
        solved=tuple(solved),
        passed=tuple(passed),
    )


def feasible_region_sample(
    model: MetapopModel,
    cost_fn: CostFunction,
    samples: int,
    seed: int = 0,
) -> tuple[tuple[float, float], ...]:
    """(cost, loss) pairs sampling the feasible region.

    Uniform random strategies, plus (for up to 12 groups) the deterministic
    family of strategies that deviate from all-ones or all-zeros in at most
    two coordinates placed on a 1/8 grid.
    """
    _check_int("samples", samples, 1)
    _check_int("seed", seed, 0)
    n = model.n
    rng = np.random.default_rng(seed)
    etas = [rng.random((samples, n))]
    if n <= 12:
        # One 81-row block per base and coordinate pair; the pairs (i, i)
        # give the one-coordinate deviations and the bases themselves.
        grid = np.linspace(0.0, 1.0, 9)
        gi, gj = np.repeat(grid, 9), np.tile(grid, 9)
        blocks = []
        for base_value in (0.0, 1.0):
            for i, j in itertools.combinations_with_replacement(range(n), 2):
                block = np.full((81, n), base_value)
                block[:, i] = gi
                block[:, j] = gj
                blocks.append(block)
        etas.append(np.unique(np.vstack(blocks), axis=0))
    stacked = np.vstack(etas)
    losses = effective_re_batch(model, stacked)
    w = cost_fn.coefficient_vector(n) * model.weights
    costs = (1.0 - stacked) @ w
    return tuple((float(cv), float(lv)) for cv, lv in zip(costs, losses))
