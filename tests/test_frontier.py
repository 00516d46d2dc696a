import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxfront import (
    CostFunction,
    DimensionMismatch,
    MetapopModel,
    NonConvergence,
    NonSimple,
    PreconditionFailed,
    Strategy,
    ValidationError,
    VaxfrontError,
    anti_pareto_frontier,
    assemble_reducible,
    c_max,
    cost,
    dominant_pair,
    effective_re,
    effective_re_batch,
    feasible_region_sample,
    inefficiency_ceiling,
    optimal_loss,
    optimal_loss_max,
    optimal_ray_check,
    pareto_frontier,
    probe_convexity,
    re_gradient,
)
from vaxfront import fixtures, frontier, independent, spectral
from vaxfront.acceptance import (
    random_block_upper_model,
    random_convex_model,
    random_model,
    random_rank_one,
)
from vaxfront.frontier import VERTEX_BUDGET, _project_budget, _vertex_maximum

UNIFORM = CostFunction.uniform()


def scalar_model(r):
    return MetapopModel(weights=np.array([1.0]), matrix=np.array([[float(r)]]))


class TestOptimalLoss:
    def test_scalar_forced(self):
        model = scalar_model(4.0)
        for c in (0.0, 0.3, 0.8, 1.0):
            solved = optimal_loss(model, UNIFORM, c)
            assert solved.loss == pytest.approx(4.0 * (1.0 - c), abs=1e-9)
            assert solved.status == "Converged"

    def test_cycle_eradication_budget(self):
        solved = optimal_loss(fixtures.cycle_model(), UNIFORM, 0.5)
        assert solved.loss <= 1e-8

    def test_cycle_past_forty_groups_settles_at_zero(self):
        solved = optimal_loss(fixtures.cycle_model(44), UNIFORM, 0.5)
        assert solved.loss == 0.0
        assert solved.status == "Converged"

    def test_cycle_quarter_budget_beats_cordon(self):
        solved = optimal_loss(fixtures.cycle_model(), UNIFORM, 0.25)
        # The softened one-in-four profile reaches (1 + sqrt(3)) / 2.
        assert solved.loss < math.sqrt(2.0) - 0.04
        assert solved.loss <= (1.0 + math.sqrt(3.0)) / 2.0 + 1e-6
        assert cost(UNIFORM, fixtures.cycle_model(), solved.strategy) <= 0.25 + 1e-9

    def test_three_group_grid_cross_validation(self):
        rng = np.random.default_rng(51)
        for _ in range(3):
            w = 0.2 + rng.random(3)
            w /= math.fsum(w.tolist())
            model = MetapopModel(weights=w, matrix=rng.random((3, 3)) * 2.0)
            budget = 0.4 * c_max(UNIFORM, model)
            solved = optimal_loss(model, UNIFORM, budget)
            # Face-grid oracle at resolution 1/64: the optimum sits on the
            # active budget hyperplane because the loss is monotone.
            target = c_max(UNIFORM, model) - budget
            grid = np.linspace(0.0, 1.0, 65)
            best = np.inf
            deltas = []
            for e1 in grid:
                for e2 in grid:
                    rest = target - model.weights[0] * e1 - model.weights[1] * e2
                    e3 = rest / model.weights[2]
                    if -1e-12 <= e3 <= 1 + 1e-12:
                        e3 = min(max(e3, 0.0), 1.0)
                        value = effective_re(
                            model, Strategy(np.array([e1, e2, e3]))
                        )
                        deltas.append(value)
                        best = min(best, value)
            lipschitz = max(
                abs(a - b) for a, b in zip(deltas[:-1], deltas[1:])
            ) * 64.0
            assert abs(solved.loss - best) <= 2.0 * max(lipschitz, 1.0) / 64.0

    def test_full_budget_returns_zero(self):
        solved = optimal_loss(fixtures.cycle_model(), UNIFORM, 1.0)
        assert solved.loss == 0.0


class TestOptimalLossMax:
    def test_no_constraint_gives_r0(self):
        model = fixtures.cycle_model()
        solved = optimal_loss_max(model, UNIFORM, 0.0)
        assert solved.loss == pytest.approx(2.0, abs=1e-9)
        assert np.all(solved.strategy.values == 1.0)

    def test_scalar_forced(self):
        model = scalar_model(4.0)
        for c in (0.2, 0.7):
            solved = optimal_loss_max(model, UNIFORM, c)
            assert solved.loss == pytest.approx(4.0 * (1.0 - c), abs=1e-9)

    def test_two_block_keeps_heavy_block(self):
        solved = optimal_loss_max(fixtures.two_block_model(), UNIFORM, 0.25)
        assert solved.loss == pytest.approx(3.0, abs=1e-9)
        assert solved.strategy.values[0] == pytest.approx(1.0)

    def test_cycle_quarter_is_path_of_nine(self):
        solved = optimal_loss_max(fixtures.cycle_model(), UNIFORM, 0.25)
        assert solved.loss == pytest.approx(2.0 * math.cos(math.pi / 10.0), abs=1e-9)

    def test_full_budget_returns_zero(self):
        # Only all zeros meets C(eta) >= c_max; an ascent on the budget face
        # would leave entries of 1e-16 behind on these non-convex models.
        for seed in (3, 9):
            model = random_model(np.random.default_rng(seed), 4)
            solved = optimal_loss_max(model, UNIFORM, c_max(UNIFORM, model))
            assert solved.loss == 0.0
            np.testing.assert_array_equal(solved.strategy.values, np.zeros(4))

    def test_vertex_budget(self, monkeypatch):
        rng = np.random.default_rng(52)
        w = 0.2 + rng.random(21)
        w /= math.fsum(w.tolist())
        model = MetapopModel(weights=w, matrix=rng.random((21, 21)))

        def refuse(*args):
            raise AssertionError("21 groups skip the enumeration and its verdict")

        monkeypatch.setattr(frontier, "_vertex_maximum", refuse)
        monkeypatch.setattr(frontier, "_is_convex", refuse)
        solved = optimal_loss_max(model, UNIFORM, 0.3)
        assert solved.status == "MultiStartBest"

    def test_nilpotent_past_the_vertex_budget(self, monkeypatch):
        # R_0 = 0 caps every feasible loss at 0; all zeros wins the tie, as it
        # did when the ascent started there, and no ascent runs.
        n = VERTEX_BUDGET + 4
        matrix = np.triu(np.random.default_rng(4).random((n, n)), 1)
        model = MetapopModel(weights=np.full(n, 1.0 / n), matrix=matrix)

        def refuse(*args, **kw):
            raise AssertionError("every strategy scores 0")

        monkeypatch.setattr(frontier, "_pgd", refuse)
        solved = optimal_loss_max(model, UNIFORM, 0.3)
        assert (solved.loss, solved.status) == (0.0, "MultiStartBest")
        np.testing.assert_array_equal(solved.strategy.values, np.zeros(n))

    def test_gradient_lower_bounds_vertex(self):
        # The ascent starts from the best vertex, so it cannot fall below
        # it; on the cycle it finds nothing above it either.
        model = fixtures.cycle_model()
        w = UNIFORM.coefficient_vector(12) * model.weights
        vertex_loss, _ = _vertex_maximum(model, w, 0.75)
        solved = optimal_loss_max(model, UNIFORM, 0.25)
        assert vertex_loss <= solved.loss <= vertex_loss + 1e-9


def _reference_vertex_maximum(model, w, budget):
    """``_vertex_maximum`` by exhaustion over all 2^n corners.

    A corner fits when each of its coordinates, taken in the stable
    heaviest-first order, fits what the budget leaves within 1e-15; its
    top-ups and plain form are as the docstring defines them, and the best
    row is kept with ``_better``.
    """
    n, eps = w.size, 1e-15
    order = np.argsort(-w, kind="stable")
    rows = []
    for bits in itertools.product((False, True), repeat=n):
        inside = np.array(bits)
        spent, fits = 0.0, True
        for j in order:
            if inside[j]:
                fits = fits and w[j] <= (budget - spent) + eps
                spent += w[j]
        if not fits:
            continue
        rem = budget - spent
        outside = [j for j in range(n) if not inside[j]]
        topped = [j for j in outside if w[j] > rem + eps] if rem > eps else []
        for j in topped:
            row = inside.astype(float)
            row[j] = min(1.0, rem / w[j])
            rows.append(row)
        if not topped and all(w[j] > rem + eps for j in outside):
            rows.append(inside.astype(float))
    best = None
    for value, row in zip(effective_re_batch(model, np.array(rows)), rows):
        if frontier._better(best, (float(value), row), maximize=True):
            best = (float(value), row)
    return best


class TestVertexMaximum:
    def test_matches_exhaustive_reference(self):
        # Tied weights (uniform and 1/16-rounded) and budgets at exact corner
        # sums put coordinates right on the fitting threshold.
        rng = np.random.default_rng(60)
        for trial in range(90):
            n = int(rng.integers(1, 8))
            w = [
                np.full(n, 1.0 / n),
                (1.0 + np.round(rng.random(n) * 15.0)) / 16.0 / n,
                (0.05 + rng.random(n)) / n,
            ][trial % 3]
            if trial % 2:
                budget = 0.0
                for j in np.argsort(-w, kind="stable")[rng.random(n) < 0.5]:
                    budget += w[j]
            else:
                budget = float(rng.uniform(0.0, w.sum()))
            k = rng.random((n, n))
            model = MetapopModel(
                weights=np.full(n, 1.0 / n), matrix=k + k.T if trial % 4 < 2 else k
            )
            got = _vertex_maximum(model, w, budget)
            want = _reference_vertex_maximum(model, w, budget)
            assert got[0] == want[0]
            assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("n", [13, 14])
    def test_corner_table_past_one_block(self, n):
        # At 5% of c_max every proper subset of a uniform budget fits: the
        # table outgrows one block of rows, and the later blocks hold only
        # corners that emit nothing.
        rng = np.random.default_rng(n)
        k = rng.random((n, n))
        model = MetapopModel(weights=np.full(n, 1.0 / n), matrix=k + k.T)
        w = UNIFORM.coefficient_vector(n) * model.weights
        budget = c_max(UNIFORM, model) - 0.05
        want = _reference_vertex_maximum(model, w, budget)
        got = _vertex_maximum(model, w, budget)
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()
        solved = optimal_loss_max(model, UNIFORM, 0.05)
        assert solved.loss >= want[0]


class TestBudgetCheck:
    @pytest.mark.parametrize("solver", [optimal_loss, optimal_loss_max])
    def test_nan_budget_rejected(self, solver):
        with pytest.raises(ValidationError):
            solver(fixtures.cycle_model(), UNIFORM, float("nan"))


def _cycle():
    return fixtures.cycle_model()


def _half(n=12):
    return np.full(n, 0.5)


class TestEffortCheck:
    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: anti_pareto_frontier(
                random_model(np.random.default_rng(0), 25), UNIFORM, resolution=2, starts=0
            ), ValidationError),
            (lambda: optimal_loss(_cycle(), UNIFORM, 0.25, extra_starts=(_half(11),)),
             DimensionMismatch),
            (lambda: optimal_loss_max(_cycle(), UNIFORM, 0.25, extra_starts=(_half(13),)),
             DimensionMismatch),
            (lambda: optimal_loss(
                _cycle(), UNIFORM, 0.25, extra_starts=(np.full(12, np.nan),)
            ), ValidationError),
            (lambda: optimal_loss_max(
                _cycle(), UNIFORM, 0.25, extra_starts=(np.full(12, np.nan),)
            ), ValidationError),
            (lambda: pareto_frontier(_cycle(), UNIFORM, resolution=2.5), ValidationError),
            (lambda: optimal_loss(_cycle(), UNIFORM, 0.25, max_iter=-1), ValidationError),
            (lambda: optimal_loss(_cycle(), UNIFORM, 0.25, starts=-2), ValidationError),
            (lambda: optimal_loss_max(_cycle(), UNIFORM, 0.25, window_tol=np.nan),
             ValidationError),
            (lambda: assemble_reducible(fixtures.two_block_model(), UNIFORM, window_tol=-1.0),
             ValidationError),
            (lambda: optimal_loss(_cycle(), UNIFORM, 0.25, window_tol=True),
             ValidationError),
        ],
        ids=[
            "anti-without-starts", "min-short-start", "max-long-start", "min-nan-start",
            "max-nan-start", "fractional-resolution",
            "negative-max-iter", "negative-starts", "nan-window-tol",
            "assembly-negative-window-tol", "bool-window-tol",
        ],
    )
    def test_refused(self, call, error):
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: probe_convexity(m, 2.5, 1),
            lambda m: probe_convexity(m, 10, 1.5),
            lambda m: probe_convexity(m, 10, True),
            lambda m: feasible_region_sample(m, UNIFORM, 2.5),
            lambda m: feasible_region_sample(m, UNIFORM, 10, seed=1.5),
            lambda m: feasible_region_sample(m, UNIFORM, 10, seed=True),
        ],
        ids=["probe-trials", "probe-seed", "probe-bool-seed", "sample-samples",
             "sample-seed", "sample-bool-seed"],
    )
    def test_sampler_integers(self, call):
        with pytest.raises(ValidationError):
            call(fixtures.counterexample_positive_spectrum())

    def test_reduced_effort_accepted(self):
        # The effort of the reducible sweeps, and the smallest one allowed.
        frontier._check_effort(4, (_half(4),), 3, 80, 3e-7, resolution=np.int64(4))
        solved = optimal_loss(_cycle(), UNIFORM, 0.25, starts=1, max_iter=0, window_tol=0.0)
        assert 0.0 < solved.loss < 2.0

    def test_numpy_float_window_tol_accepted(self):
        tol = np.float32(1e-9)
        solved = optimal_loss(_cycle(), UNIFORM, 0.25, starts=1, window_tol=tol)
        assert solved.loss == optimal_loss(_cycle(), UNIFORM, 0.25, starts=1).loss


def _record_gradients(monkeypatch):
    """Wrap the solver's two gradient calls: the returned lists collect the
    name of each call and each error one raised."""
    calls, failures = [], []
    for name in ("re_gradient", "_atom_gradients"):
        gradient = getattr(frontier, name)

        def recorded(*args, _name=name, _gradient=gradient):
            calls.append(_name)
            try:
                return _gradient(*args)
            except VaxfrontError as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(frontier, name, recorded)
    return calls, failures


class TestGradientFallback:
    """Where a gradient fails, nothing stands in for it: the run ends."""

    def test_a_failed_gradient_ends_the_run(self, monkeypatch):
        # On the general route R_e comes with its eig for the next gradient;
        # the first gradient that fails ends the run at its current point.
        gradients, asked = [], []
        re_with_eig = frontier._re_with_eig

        def failing(model, x, solved=None):
            gradients.append(x)
            raise NonConvergence("forced")

        def recorded(model, x, vectors):
            asked.append(vectors)
            return re_with_eig(model, x, vectors)

        monkeypatch.setattr(frontier, "_atom_gradients", failing)
        monkeypatch.setattr(frontier, "_re_with_eig", recorded)
        model = random_model(np.random.default_rng(9), 5)
        project = frontier._Halfspace(model.weights, 0.5 * model.weights.sum())
        x0 = np.random.default_rng(3).random(5)
        fx, x = frontier._pgd(model, project, x0, maximize=False, max_iter=40)
        start = project(x0)
        np.testing.assert_array_equal(x, start)
        assert fx == effective_re(model, Strategy(start))
        assert len(gradients) == 1
        assert asked and all(asked)

    def test_cycle_sweep_takes_no_finite_differences(self, monkeypatch):
        # The 12-cycle's Pareto iterates sit on tied top eigenvalues, where the
        # symmetric route gives the top eigenvector's generalized gradient:
        # no gradient fails, so no run ends early for want of one.
        calls, failures = _record_gradients(monkeypatch)
        curve = pareto_frontier(fixtures.cycle_model(12), UNIFORM, resolution=6)
        assert calls and failures == []
        want = [2.0, 1.8228756555329175, 1.618033988749895, 1.3660254037844362,
                1.0, 0.8164965809277259, 0.0]
        np.testing.assert_allclose(curve.losses(), want, rtol=1e-12, atol=1e-12)


def _polytope_vertices(w, b, sense):
    """Every vertex of [0,1]^N cut by w . z >= b ('ge') or <= b ('le'): the
    feasible 0/1 corners and the points of the hyperplane with one
    fractional coordinate."""
    n = w.size
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    values = corners @ w
    vertices = [corners[values >= b if sense == "ge" else values <= b]]
    for j in range(n):
        rest = corners[corners[:, j] == 0.0]
        zj = (b - rest @ w) / w[j]
        inside = (zj > 0.0) & (zj < 1.0)
        on_plane = rest[inside]
        on_plane[:, j] = zj[inside]
        vertices.append(on_plane)
    return np.vstack(vertices)


def _assert_projection_certificate(x, w, b, sense, y):
    """The optimality conditions of the projection, checked in the 'ge' form
    ('le' through the reflection eta -> 1 - eta): one multiplier t >= 0 with
    y = clip(x + t w), and w . y = b when t > 0."""
    if sense == "le":
        x, y, b = 1.0 - x, 1.0 - y, float(w.sum()) - b
    assert np.all((y >= 0.0) & (y <= 1.0))
    free, low, high = (y > 0.0) & (y < 1.0), y == 0.0, y == 1.0
    if free.any():
        # The free coordinates share one multiplier.
        ts = (y[free] - x[free]) / w[free]
        t = float(ts.max())
        assert t - float(ts.min()) <= 1e-9 * max(1.0, t)
    else:
        t = max([0.0] + ((1.0 - x[high]) / w[high]).tolist())
    assert t >= -1e-9
    probe = x + t * w
    tol = 1e-9 * (1.0 + np.abs(x) + abs(t) * w)
    assert np.all(probe[low] <= tol[low])
    assert np.all(probe[high] >= 1.0 - tol[high])
    slack = 1e-9 * float(w.sum())
    assert w @ y >= b - slack
    if t > 1e-9:
        assert abs(w @ y - b) <= slack


class TestProjectBudget:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 7),
        sense=st.sampled_from(["ge", "le"]),
        frac=st.floats(0.0, 1.0),
    )
    def test_euclidean_projection(self, data, n, sense, frac):
        coords = st.lists(st.floats(-2.0, 3.0), min_size=n, max_size=n)
        normals = st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)
        x = np.array(data.draw(coords))
        w = np.array(data.draw(normals))
        b = frac * float(w.sum())  # reachable for both senses
        y = _project_budget(x, w, b, sense)
        slack = 1e-9 * float(w.sum())
        assert np.all((y >= 0.0) & (y <= 1.0))
        if sense == "ge":
            assert w @ y >= b - slack
        else:
            assert w @ y <= b + slack
        # y is the Euclidean projection of x exactly when (x - y) . (z - y)
        # <= 0 for every feasible z; the left side is linear in z, so the
        # polytope's vertices cover every feasible z.
        z = _polytope_vertices(w, b, sense)
        scale = 1.0 + float(np.linalg.norm(x - y)) * math.sqrt(n)
        assert np.max((z - y) @ (x - y)) <= 1e-9 * scale

    @pytest.mark.parametrize(
        "b, expected",
        [
            (4.0, [0.74, 0.74, 0.74, 0.04, 1.0, 0.74]),
            (5.3, [1.0, 1.0, 1.0, 0.3, 1.0, 1.0]),
        ],
    )
    def test_repeated_breakpoints(self, b, expected):
        # Four coordinates share both of their breakpoints; the second budget
        # lands exactly on the shared upper one.
        x = np.array([0.2, 0.2, 0.2, -0.5, 1.5, 0.2])
        y = _project_budget(x, np.ones(6), b, "ge")
        np.testing.assert_allclose(y, expected, rtol=0.0, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 60),
        sense=st.sampled_from(["ge", "le"]),
        frac=st.floats(0.0, 1.0),
    )
    def test_certificate_past_the_vertex_oracle(self, data, n, sense, frac):
        coords = st.lists(st.floats(-2.0, 3.0), min_size=n, max_size=n)
        normals = st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)
        x = np.array(data.draw(coords))
        w = np.array(data.draw(normals))
        b = frac * float(w.sum())
        _assert_projection_certificate(x, w, b, sense, _project_budget(x, w, b, sense))

    @pytest.mark.parametrize("sense", ["ge", "le"])
    def test_halfspace_projects_by_its_sense(self, sense):
        rng = np.random.default_rng(23)
        for n in range(1, 13):
            x = rng.uniform(-2.0, 3.0, n)
            w = rng.uniform(0.01, 10.0, n)
            b = rng.random() * float(w.sum())
            feasible = frontier._Halfspace(w, b, sense)
            want = _project_budget(x, w, b, sense)
            assert feasible(x).tobytes() == want.tobytes()
            if sense == "ge":
                assert frontier._Halfspace(w, b)(x).tobytes() == want.tobytes()

    def test_target_on_a_zero_slope_segment(self):
        # Past t = 0.85 every coordinate but the last sits at 1 and the last
        # enters at t = 4.05, so phi stays at 2.2 in between.  The slope the
        # sweep carries there is 1.1e-16, not 0, so the running value reaches
        # the target within the segment, at a t far beyond it.
        x = np.array([0.35, 0.66, 0.37, -1.62])
        w = np.array([0.9, 0.4, 0.9, 0.4])
        y = _project_budget(x, w, 2.2, "ge")
        assert y.tolist() == [1.0, 1.0, 1.0, 0.0]
        _assert_projection_certificate(x, w, 2.2, "ge", y)

    def test_every_projection_of_the_cycle_anti_sweep(self, monkeypatch):
        # The 12-cycle's anti sweep at resolution 16 projects onto
        # {w . eta <= b} through the reflection, with uniform weights whose
        # events coincide.
        calls = []

        def recorded(x, w, b, sense):
            y = _project_budget(x, w, b, sense)
            calls.append((x, w, b, sense, y))
            return y

        monkeypatch.setattr(frontier, "_project_budget", recorded)
        curve = anti_pareto_frontier(_cycle(), UNIFORM, resolution=16)
        assert len(calls) > 1000
        for call in calls:
            _assert_projection_certificate(*call)
        losses = curve.losses()
        assert np.all(np.isfinite(losses)) and np.all(np.diff(losses) <= 0.0)


class TestMultistart:
    @pytest.mark.parametrize("maximize", [False, True])
    def test_repeated_start_runs_once(self, monkeypatch, maximize):
        model = fixtures.cycle_model()
        w = model.weights
        # Both budgets sit short of eradication (cost 0.5), so the
        # minimization does not stop at its first start.
        sense, b = ("le", 0.3) if maximize else ("ge", 0.7)

        project = frontier._Halfspace(w, b, sense)
        zero, centre = project(np.zeros(model.n)), project(np.full(model.n, 0.5))
        args = (model, project)
        distinct = frontier._multistart(*args, [zero, centre], maximize, None, 40, 1e-9)
        runs = []
        original = frontier._pgd

        def counted(model, project, x0, **kw):
            runs.append(x0)
            return original(model, project, x0, **kw)

        monkeypatch.setattr(frontier, "_pgd", counted)
        repeated = frontier._multistart(
            *args, [zero, centre, zero.copy(), centre.copy()], maximize, None, 40, 1e-9
        )
        assert len(runs) == 2
        assert repeated[0] == distinct[0]
        assert repeated[1].tobytes() == distinct[1].tobytes()


class TestParetoFrontier:
    @pytest.mark.parametrize(
        "sweep, erad_calls",
        [(pareto_frontier, 1), (anti_pareto_frontier, 0)],
        ids=["pareto", "anti"],
    )
    def test_invariants_computed_once_per_sweep(self, monkeypatch, sweep, erad_calls):
        calls = {"eradication_cost": 0, "classify_convexity": 0, "_atoms": 0}
        for name in calls:

            def counted(*args, _name=name, _original=getattr(frontier, name), **kw):
                calls[_name] += 1
                return _original(*args, **kw)

            monkeypatch.setattr(frontier, name, counted)
        sweep(fixtures.cycle_model(), UNIFORM, resolution=8)
        assert calls == {
            "eradication_cost": erad_calls, "classify_convexity": 1, "_atoms": 1
        }

    def test_scalar_segment(self):
        curve = pareto_frontier(scalar_model(3.0), UNIFORM, resolution=8)
        for point in curve.points:
            assert point.loss == pytest.approx(3.0 * (1.0 - point.cost), abs=1e-9)

    def test_cycle_endpoints_and_cordon_gap(self):
        curve = pareto_frontier(fixtures.cycle_model(), UNIFORM, resolution=16)
        assert curve.points[0].cost == 0.0
        assert curve.points[0].loss == pytest.approx(2.0, abs=1e-9)
        assert curve.points[-1].cost == 0.5
        assert curve.points[-1].loss == 0.0
        assert curve.loss_at(0.25) < math.sqrt(2.0) - 0.04
        assert curve.points[-1].status == "Converged"

    def test_upper_bound_endpoint_status(self, monkeypatch):
        # Directed support: c_star is proved once the search finishes, and
        # only an upper bound when it stops at the node budget.
        model = MetapopModel(
            weights=np.array([0.5, 0.5]), matrix=np.array([[0.0, 1.0], [0.0, 2.0]])
        )
        curve = pareto_frontier(model, UNIFORM, resolution=4)
        assert (curve.points[-1].cost, curve.points[-1].loss) == (0.5, 0.0)
        assert curve.points[-1].status == "Converged"
        monkeypatch.setattr(independent, "SEARCH_NODE_BUDGET", 1)
        curve = pareto_frontier(model, UNIFORM, resolution=4)
        assert curve.points[-1].loss == 0.0
        assert curve.points[-1].status == "MultiStartBest"

    def test_past_forty_groups(self):
        model = random_convex_model(np.random.default_rng(0), 41)
        curve = pareto_frontier(model, UNIFORM, resolution=2)
        assert len(curve.points) == 3
        assert curve.points[-1].status == "Converged"

    def test_monotone(self):
        curve = pareto_frontier(fixtures.cycle_model(), UNIFORM, resolution=16)
        losses = curve.losses()
        assert np.all(np.diff(losses) <= 1e-12)
        costs = curve.costs()
        assert np.all(np.diff(costs) > 0)

    def test_rank_one_greedy_oracle(self):
        rng = np.random.default_rng(53)
        model, f, g = random_rank_one(rng, 6)
        weights = model.weights
        diag = f * g * weights
        curve = pareto_frontier(model, UNIFORM, resolution=16)

        def greedy(c):
            # Fractional knapsack: vaccinate the largest f_i g_i mu_i per
            # unit cost first; uniform cost makes the rate f_i g_i.
            order = np.argsort(-(f * g))
            eta = np.ones(6)
            budget = c
            for j in order:
                spend = min(budget, weights[j])
                eta[j] = 1.0 - spend / weights[j]
                budget -= spend
                if budget <= 1e-15:
                    break
            return float(diag @ eta)

        for point in curve.points:
            assert point.loss == pytest.approx(greedy(point.cost), abs=1e-6)


def _two_atom_model():
    """Two 2-group atoms with radii 1.557 and 1.575; the second infects the
    first.  The radii tie along the Pareto frontier."""
    k = np.array([
        [0.9, 0.6, 0.3, 0.0],
        [0.5, 1.1, 0.2, 0.4],
        [0.0, 0.0, 1.0, 0.7],
        [0.0, 0.0, 0.8, 0.6],
    ])
    return MetapopModel(weights=np.array([0.375, 0.125, 0.25, 0.25]), matrix=k)


# (loss, strategy) per point, as hex floats, of the two-atom model's sweeps
# at resolution 4 and the low effort of ``frontier-reducible``.  The anti
# side was recorded before the two-point first trial existed; models of
# several atoms keep the 4x rule, so it stays byte-equal.  The Pareto side
# was recorded when its direction became the minimum-norm point of the tied
# atoms' gradients; points 2 and 3 are the exact optima, where both radii
# are 0.6 and 0.3.
_TWO_ATOM_PARETO = [
    ("0x1.9318c46ec85f0p+0", ("0x1.0000000000000p+0", "0x1.0000000000000p+0",
                              "0x1.0000000000000p+0", "0x1.0000000000000p+0")),
    ("0x1.f672cd4060f46p-1", ("0x1.0000000000000p+0", "0x1.a3a3cc029d7dbp-3",
                              "0x1.97170cff58a08p-2", "0x1.0000000000000p+0")),
    ("0x1.3333333333333p-1", ("0x1.5555555555555p-1", "0x0.0p+0",
                              "0x0.0p+0", "0x1.0000000000000p+0")),
    ("0x1.3333333333333p-2", ("0x1.5555555555555p-2", "0x0.0p+0",
                              "0x0.0p+0", "0x1.0000000000000p-1")),
    ("0x0.0p+0", ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0")),
]
_TWO_ATOM_ANTI = [
    ("0x1.9318c46ec85f0p+0", ("0x0.0p+0", "0x0.0p+0",
                              "0x1.0000000000000p+0", "0x1.0000000000000p+0")),
    ("0x1.5cc2ceeac6a37p+0", ("0x1.5555555555555p-1", "0x1.0000000000000p+0",
                              "0x0.0p+0", "0x0.0p+0")),
    ("0x1.35bc226074663p+0", ("0x1.5555555555555p-2", "0x1.0000000000000p+0",
                              "0x0.0p+0", "0x0.0p+0")),
    ("0x1.199999999999ap+0", ("0x0.0p+0", "0x1.0000000000000p+0",
                              "0x0.0p+0", "0x0.0p+0")),
    ("0x0.0p+0", ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0")),
]


class TestStepRule:
    EFFORT = dict(resolution=4, starts=3, max_iter=80, window_tol=3e-7)

    @pytest.mark.parametrize(
        "sweep, expected",
        [(pareto_frontier, _TWO_ATOM_PARETO), (anti_pareto_frontier, _TWO_ATOM_ANTI)],
        ids=["pareto", "anti"],
    )
    def test_two_atom_sweeps_keep_their_bytes(self, sweep, expected):
        curve = sweep(_two_atom_model(), UNIFORM, **self.EFFORT)
        got = [
            (p.loss.hex(), tuple(v.hex() for v in p.strategy.values))
            for p in curve.points
        ]
        assert got == expected

    @pytest.mark.parametrize(
        "model, single_atom",
        [(fixtures.cycle_model(), True), (_two_atom_model(), False)],
        ids=["one-atom", "two-atoms"],
    )
    @pytest.mark.parametrize(
        "sweep", [pareto_frontier, anti_pareto_frontier], ids=["pareto", "anti"]
    )
    def test_two_point_trial_only_on_one_atom(self, monkeypatch, model, single_atom,
                                              sweep):
        flags = set()
        original = frontier._pgd

        def recorded(*args, **kw):
            flags.add(kw["single_atom"])
            return original(*args, **kw)

        monkeypatch.setattr(frontier, "_pgd", recorded)
        sweep(model, UNIFORM, **self.EFFORT)
        assert flags == {single_atom}


    @pytest.mark.parametrize("maximize", [False, True], ids=["min", "max"])
    def test_wide_several_atom_descent_skips_eigenvectors(self, monkeypatch, maximize):
        # Above _HULL_EIG_GROUPS groups only the several-atom minimizing side
        # evaluates R_e without eigenvectors: its trials per accepted point
        # cost more than the gradient's eig they would save.
        n = frontier._HULL_EIG_GROUPS + 2
        rng = np.random.default_rng(5)
        k = np.triu(rng.random((n, n)))
        k[n // 2:, : n // 2] = 0.0
        k[: n // 2, : n // 2] += np.tril(rng.random((n // 2, n // 2)))
        k[n // 2:, n // 2:] += np.tril(rng.random((n - n // 2, n - n // 2)))
        model = MetapopModel(weights=np.full(n, 1.0 / n), matrix=k)
        assert not frontier._single_atom(model) and spectral._route(model) is None
        asked, re_with_eig = [], frontier._re_with_eig

        def recorded(model, x, vectors):
            asked.append(vectors)
            return re_with_eig(model, x, vectors)

        monkeypatch.setattr(frontier, "_re_with_eig", recorded)
        if maximize:
            def project(x):
                return _project_budget(x, model.weights, 0.5, "le")
        else:
            project = frontier._Halfspace(model.weights, 0.5)
        frontier._pgd(model, project, np.full(n, 0.5), maximize=maximize, max_iter=20,
                      single_atom=False)
        assert len(asked) > 2 and set(asked) == {maximize}

    @pytest.mark.parametrize(
        "model, sweep",
        [(_two_atom_model(), pareto_frontier),
         (random_model(np.random.default_rng(9), 5), pareto_frontier),
         (random_model(np.random.default_rng(9), 5), anti_pareto_frontier)],
        ids=["two-atoms", "one-atom", "one-atom-anti"],
    )
    def test_one_eig_per_visited_point(self, monkeypatch, model, sweep):
        # On the general route every point a run visits is solved by one
        # ``eig`` of K . diag(x), and the gradient there reuses it: no
        # ``eigvals``, and no second solve of a point.
        solves, visited, depth = [], [], []
        re_with_eig, pgd = frontier._re_with_eig, frontier._pgd
        for name in ("eig", "eigvals"):
            solve = getattr(np.linalg, name)

            def counted(a, _name=name, _solve=solve):
                if depth:
                    solves.append((_name, a.copy()))
                return _solve(a)

            monkeypatch.setattr(np.linalg, name, counted)

        def recorded(model, x, vectors):
            visited.append(("eig", model.matrix * x))
            return re_with_eig(model, x, vectors)

        def run(*args, **kw):
            depth.append(1)
            try:
                return pgd(*args, **kw)
            finally:
                depth.pop()

        monkeypatch.setattr(frontier, "_re_with_eig", recorded)
        monkeypatch.setattr(frontier, "_pgd", run)
        sweep(model, UNIFORM, **self.EFFORT)
        assert len(visited) > 20
        assert [name for name, _ in solves] == ["eig"] * len(visited)
        for (_, solved), (_, expected) in zip(solves, visited):
            np.testing.assert_array_equal(solved, expected)


class TestTiedAtoms:
    """The minimizing step on several atoms: one gradient per atom whose
    radius is within ``TIE_WINDOW`` of R_e, and the minimum-norm point of
    their hull."""

    ATOMS = ((0, 1), (2, 3))

    def _tied_point(self):
        """A point inside the box, on its budget hyperplane, where the radius
        of the second atom is 5e-4 relative below the first's."""
        model = _two_atom_model()
        k = model.matrix
        first, second = (
            np.abs(np.linalg.eigvals(k[np.ix_(a, a)])).max() for a in self.ATOMS
        )
        scale = first / second * (1.0 - 5e-4)
        x = 0.8 * np.array([1.0, 1.0, scale, scale])
        return model, x, frontier._Halfspace(model.weights, float(model.weights @ x))

    def test_each_gradient_is_its_atoms(self):
        model, x, _ = self._tied_point()
        grads = spectral._atom_gradients(model, x)
        assert grads.shape == (2, 4)
        for grad, atom in zip(grads, self.ATOMS):
            sub = MetapopModel(np.full(2, 0.5), model.matrix[np.ix_(atom, atom)])
            want = np.zeros(4)
            want[list(atom)] = re_gradient(sub, Strategy(x[list(atom)]))
            np.testing.assert_allclose(grad, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("case", ["optimum", "coupled-twins"])
    def test_exact_ties_keep_each_atoms_gradient(self, case):
        # The two-atom model's optimum at c = 0.5 has both radii exactly 0.6;
        # two equal atoms, the second infecting the first, tie at all ones.
        if case == "optimum":
            model, x = _two_atom_model(), np.array([2.0 / 3.0, 0.0, 0.0, 1.0])
        else:
            b = np.array([[0.5, 0.7], [0.3, 0.4]])
            k = np.block([[b, np.full((2, 2), 0.2)], [np.zeros((2, 2)), b]])
            model, x = MetapopModel(np.full(4, 0.25), k), np.ones(4)
        grads = spectral._atom_gradients(model, x)
        assert grads.shape == (2, 4)
        for grad, atom in zip(grads, self.ATOMS):
            sub = MetapopModel(np.full(2, 0.5), model.matrix[np.ix_(atom, atom)])
            want = np.zeros(4)
            want[list(atom)] = re_gradient(sub, Strategy(x[list(atom)]))
            np.testing.assert_allclose(grad, want, rtol=0, atol=1e-10)
        # The whole-matrix gradient is the top atom's row; there is no pair.
        np.testing.assert_array_equal(re_gradient(model, Strategy(x)), grads[0])
        with pytest.raises(NonSimple):
            dominant_pair(model, Strategy(x))

    def test_direction_has_minimal_norm(self):
        model, x, feasible = self._tied_point()
        grads = spectral._atom_gradients(model, x)
        d = frontier._hull_direction(grads, x, feasible)
        w = model.weights
        tangent = grads - np.outer(grads @ w / (w @ w), w)
        lams = np.linspace(0.0, 1.0, 2001)
        hull = lams[:, None] * tangent[0] + (1.0 - lams[:, None]) * tangent[1]
        assert np.linalg.norm(d) <= np.linalg.norm(hull, axis=1).min() + 1e-12
        assert abs(w @ d) <= 1e-15
        # Both tied radii fall at the same first-order rate along -d.
        rates = grads @ d
        assert rates.min() > 0.0
        assert rates[0] == pytest.approx(rates[1], rel=1e-12)

    def test_three_rows_take_frank_wolfe_steps(self):
        rng = np.random.default_rng(5)
        rows = rng.random((3, 6)) * np.kron(np.eye(3), np.ones(2)) - 0.3 * rng.random(6)
        d = frontier._min_norm(rows)
        grid = np.linspace(0.0, 1.0, 201)
        a, b = np.meshgrid(grid, grid)
        inside = a + b <= 1.0
        weights = np.column_stack((a[inside], b[inside], 1.0 - a[inside] - b[inside]))
        best = np.linalg.norm(weights @ rows, axis=1).min()
        assert np.linalg.norm(d) <= best * (1.0 + 1e-4)

    @pytest.mark.parametrize("effort", [TestStepRule.EFFORT, dict(resolution=16)],
                             ids=["low-effort", "resolution-16"])
    def test_two_atom_sweep_takes_no_finite_differences(self, monkeypatch, effort):
        # No gradient fails, so no run ends early for want of one.
        calls, failures = _record_gradients(monkeypatch)
        curve = pareto_frontier(_two_atom_model(), UNIFORM, **effort)
        assert len(curve.points) > 2
        assert calls and failures == []

    def test_no_trial_below_the_rounding_floor(self, monkeypatch):
        # From the end of a converged run, every Armijo ladder fails; each trial
        # it evaluates must still ask for a decrease above R_e's rounding.
        model = _cycle()

        def project(x):
            return _project_budget(x, model.weights, 0.7, "ge")

        x0 = np.random.default_rng(3).random(12)
        _, start = frontier._pgd(model, project, x0, maximize=False, max_iter=500,
                                 window_tol=0.0)
        seen = {}
        gradient, re_with_eig = frontier.re_gradient, frontier._re_with_eig

        def recorded_gradient(model, eta):
            seen["x"], seen["g"] = eta.values, gradient(model, eta)
            seen["fx"] = re_with_eig(model, eta.values, False)[0]
            return seen["g"]

        slopes = []

        def recorded_re(model, x, vectors):
            if "g" in seen:
                slopes.append(float(seen["g"] @ (x - seen["x"])))
                floor = 1e-15 * max(1.0, abs(seen["fx"]))
                assert frontier.ARMIJO_DECREASE * abs(slopes[-1]) > floor
            return re_with_eig(model, x, vectors)

        monkeypatch.setattr(frontier, "re_gradient", recorded_gradient)
        monkeypatch.setattr(frontier, "_re_with_eig", recorded_re)
        frontier._pgd(model, project, start, maximize=False, max_iter=500, window_tol=0.0)
        assert slopes  # the ladders were tried


class TestAntiParetoFrontier:
    def test_cycle_ceiling_zero(self):
        assert inefficiency_ceiling(fixtures.cycle_model(), UNIFORM) == 0.0
        curve = anti_pareto_frontier(fixtures.cycle_model(), UNIFORM, resolution=16)
        assert curve.points[0].cost == 0.0
        assert curve.points[0].loss == pytest.approx(2.0, abs=1e-9)
        assert curve.points[-1].cost == 1.0
        assert curve.points[-1].loss == 0.0

    def test_two_block_plateau(self):
        model = fixtures.two_block_model()
        assert inefficiency_ceiling(model, UNIFORM) == pytest.approx(0.5, abs=1e-15)
        curve = anti_pareto_frontier(model, UNIFORM, resolution=8)
        assert curve.points[0].cost == pytest.approx(0.5, abs=1e-12)
        assert curve.points[0].loss == pytest.approx(3.0, abs=1e-9)

    def test_scalar_coincides_with_pareto(self):
        model = scalar_model(2.0)
        pareto = pareto_frontier(model, UNIFORM, resolution=8)
        anti = anti_pareto_frontier(model, UNIFORM, resolution=8)
        for c in np.linspace(0.0, 1.0, 9):
            assert pareto.loss_at(float(c)) == pytest.approx(
                anti.loss_at(float(c)), abs=1e-9
            )

    def test_monotone(self):
        curve = anti_pareto_frontier(fixtures.cycle_model(), UNIFORM, resolution=16)
        assert np.all(np.diff(curve.losses()) <= 1e-12)

    def test_no_ascent_from_all_zeros(self, monkeypatch):
        # A run from a point where R_e is 0, with no gradient there, cannot
        # win, so none starts there: not at all zeros, and not at a best
        # vertex that scores 0, such as a single group of the 8-cycle at
        # c = 0.875, which stays the incumbent.
        starts = []
        original = frontier._pgd

        def recorded(model, project, x0, **kw):
            starts.append((model, x0))
            return original(model, project, x0, **kw)

        monkeypatch.setattr(frontier, "_pgd", recorded)
        curve = anti_pareto_frontier(fixtures.cycle_model(8), UNIFORM, resolution=8)
        assert 0.875 in curve.costs().tolist()
        swept = len(starts)
        rng = np.random.default_rng(52)
        w = 0.2 + rng.random(21)
        model = MetapopModel(weights=w / math.fsum(w.tolist()), matrix=rng.random((21, 21)))
        optimal_loss_max(model, UNIFORM, 0.3)
        assert 0 < swept < len(starts)
        assert all(effective_re(m, Strategy(x0)) > 0.0 for m, x0 in starts)


@st.composite
def small_models(draw):
    """Models of at most 5 groups with some zero entries."""
    n = draw(st.integers(1, 5))
    entries = st.one_of(st.just(0.0), st.floats(0.05, 3.0))
    k = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    return MetapopModel(weights=np.full(n, 1.0 / n), matrix=k)


class TestMonotoneProperty:
    @settings(max_examples=40, deadline=None)
    @given(small_models(), st.sampled_from(["pareto", "anti"]))
    def test_curves_nonincreasing_in_cost(self, model, kind):
        sweep = pareto_frontier if kind == "pareto" else anti_pareto_frontier
        curve = sweep(model, UNIFORM, resolution=4, starts=2, max_iter=40)
        assert np.all(np.diff(curve.costs()) >= 0.0)
        # The R_0 endpoint and the solved points come from separate eigvals
        # calls, which may differ in the last bits.
        losses = curve.losses()
        assert np.all(np.diff(losses) <= 1e-12 * max(1.0, losses[0]))

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(2, 10), st.floats(0.1, 0.45), st.integers(0, 2**32 - 1),
        st.sampled_from(["pareto", "anti"]),
    )
    def test_sparse_directed_sweeps_are_finite(self, n, density, seed, kind):
        # Sparse directed kernels are reducible at many strategies, where
        # radii tie across blocks and the Perron pair is hardest to take.
        model = random_model(np.random.default_rng(seed), n, density=density)
        sweep = pareto_frontier if kind == "pareto" else anti_pareto_frontier
        curve = sweep(model, UNIFORM, resolution=4, starts=2, max_iter=40)
        for point in curve.points:
            assert math.isfinite(point.cost) and math.isfinite(point.loss)
            assert np.isfinite(point.strategy.values).all()
            assert point.status in ("Converged", "MultiStartBest", "VertexEnumerated")


class TestSandwichAndInverses:
    def test_feasible_points_between_frontiers(self):
        model = fixtures.cycle_model()
        pareto = pareto_frontier(model, UNIFORM, resolution=16)
        anti = anti_pareto_frontier(model, UNIFORM, resolution=16)
        samples = feasible_region_sample(model, UNIFORM, samples=500, seed=3)
        grid_p = max(np.diff(pareto.costs()).max(), np.diff(anti.costs()).max())
        slopes = np.abs(np.diff(pareto.losses())) / np.maximum(
            np.diff(pareto.costs()), 1e-12
        )
        slack = 2.0 * grid_p * max(float(slopes.max()), 1.0) + 1e-8
        for c, loss in samples:
            assert loss >= pareto.loss_at(c) - slack
            assert loss <= anti.loss_at(c) + slack

    def test_inverse_relation_pareto(self):
        model = fixtures.cycle_model()
        curve = pareto_frontier(model, UNIFORM, resolution=16)
        grid = max(np.diff(curve.costs()).max(), 1e-9)
        slopes = np.abs(np.diff(curve.losses())) / np.maximum(
            np.diff(curve.costs()), 1e-12
        )
        slack = 2.0 * grid * max(float(slopes.max()), 1.0)
        for level in np.linspace(0.0, 2.0, 9):
            c = curve.cost_at(float(level))
            assert curve.loss_at(c) == pytest.approx(float(level), abs=slack)

    def test_inverse_relation_anti_monatomic(self):
        model = fixtures.cycle_model()  # irreducible, hence monatomic
        curve = anti_pareto_frontier(model, UNIFORM, resolution=16)
        grid = max(np.diff(curve.costs()).max(), 1e-9)
        slopes = np.abs(np.diff(curve.losses())) / np.maximum(
            np.diff(curve.costs()), 1e-12
        )
        slack = 2.0 * grid * max(float(slopes.max()), 1.0)
        for c in np.linspace(0.0, 1.0, 9):
            level = curve.loss_at(float(c))
            assert curve.cost_at(level) == pytest.approx(float(c), abs=slack)

    def test_cordon_strictly_below_anti_frontier(self):
        model = fixtures.cycle_model()
        anti = anti_pareto_frontier(model, UNIFORM, resolution=32)
        for zeros in ([3, 7, 11], [0, 4, 8], [0, 3, 6, 9]):
            eta = np.ones(12)
            eta[zeros] = 0.0
            strategy = Strategy(eta)
            c = cost(UNIFORM, model, strategy)
            value = effective_re(model, strategy)
            assert value < anti.loss_at(c) - 1e-6


REDUCIBLE_EFFORT = dict(resolution=4, starts=3, max_iter=80, window_tol=3e-7)


def _reducible_draw(trial):
    """Model ``trial`` of the ``reducibility`` criterion's draws."""
    rng = np.random.default_rng(8)
    for _ in range(trial + 1):
        model, _ = random_block_upper_model(rng)
        rng.random(model.n)  # the criterion's strategy draw
    return model


class TestAssembleReducible:
    def test_two_blocks_match_direct(self):
        k = np.zeros((4, 4))
        k[:2, :2] = np.array([[1.0, 2.0], [2.0, 1.0]])  # radius 3
        k[2:, 2:] = np.array([[1.0, 1.0], [1.0, 1.0]])  # radius 2
        w = np.full(4, 0.25)
        model = MetapopModel(weights=w, matrix=k)
        assembled = assemble_reducible(model, UNIFORM, resolution=8)
        direct = pareto_frontier(model, UNIFORM, resolution=8)
        grid = max(np.diff(direct.costs()).max(), 1e-9)
        slopes = np.abs(np.diff(direct.losses())) / np.maximum(
            np.diff(direct.costs()), 1e-12
        )
        slack = 2.0 * grid * max(float(slopes.max()), 1.0) + 1e-9
        for point in direct.points:
            assert abs(assembled.pareto.loss_at(point.cost) - point.loss) <= slack
        direct_anti = anti_pareto_frontier(model, UNIFORM, resolution=8)
        for point in direct_anti.points:
            assert abs(assembled.anti.loss_at(point.cost) - point.loss) <= slack

    def test_no_atom_refused(self):
        matrix = np.triu(np.ones((3, 3)), 1)
        model = MetapopModel(weights=np.full(3, 1.0 / 3.0), matrix=matrix)
        with pytest.raises(ValidationError, match="atom"):
            assemble_reducible(model, UNIFORM, resolution=4)

    def test_monatomic_assembly_is_identity(self):
        model = fixtures.cycle_model()
        assembled = assemble_reducible(model, UNIFORM, resolution=8)
        direct = pareto_frontier(model, UNIFORM, resolution=8)
        grid = max(np.diff(direct.costs()).max(), 1e-9)
        slopes = np.abs(np.diff(direct.losses())) / np.maximum(
            np.diff(direct.costs()), 1e-12
        )
        slack = 2.0 * grid * max(float(slopes.max()), 1.0) + 1e-9
        for point in direct.points:
            assert abs(assembled.pareto.loss_at(point.cost) - point.loss) <= slack

    @pytest.mark.parametrize("trial", [10, 18, 25])
    def test_top_point_is_exactly_unvaccinated(self, trial):
        # The top level is R_0, at or above every atom's radius.  On these
        # draws a solve at budget 0 returns entries of 1 - 1 ulp from the
        # projection's rounding, so no atom may be solved there.
        model = _reducible_draw(trial)
        top = assemble_reducible(model, UNIFORM, **REDUCIBLE_EFFORT).pareto.points[0]
        assert top.cost == 0.0
        np.testing.assert_array_equal(top.strategy.values, np.ones(model.n))

    @pytest.mark.parametrize("trial", [0, 3, 10, 18])
    def test_solves_only_atoms_above_the_level(self, monkeypatch, trial):
        # Each (level, atom) pair with level below radius, by more than
        # the rounding slack, is solved once, in level order; every other
        # atom keeps exactly 1.
        solved = []

        def counted(*args, _original=frontier.optimal_loss, **kw):
            solved.append(_original(*args, **kw))
            return solved[-1]

        monkeypatch.setattr(frontier, "optimal_loss", counted)
        model = _reducible_draw(trial)
        assembled = assemble_reducible(model, UNIFORM, **REDUCIBLE_EFFORT)
        r0 = effective_re(model, Strategy.ones(model.n))
        answers = iter(solved)
        expected = []
        for level in np.linspace(0.0, r0, REDUCIBLE_EFFORT["resolution"] + 1):
            values = np.ones(model.n)
            for atom, sub_pareto, _ in assembled.per_atom:
                if level < sub_pareto.points[0].loss - 1e-9 * max(1.0, r0):
                    values[list(atom)] = next(answers).strategy.values
            expected.append(values.tobytes())
        assert next(answers, None) is None
        got = [p.strategy.values.tobytes() for p in assembled.pareto.points]
        assert sorted(got) == sorted(expected)

    def test_points_are_their_strategies(self):
        # Both sides print (C(s), R_e(s), s) for the strategy s they report.
        for trial in range(40):
            model = _reducible_draw(trial)
            assembled = assemble_reducible(model, UNIFORM, **REDUCIBLE_EFFORT)
            for point in assembled.pareto.points + assembled.anti.points:
                assert point.cost == cost(UNIFORM, model, point.strategy)
                assert point.loss == effective_re(model, point.strategy)

    def test_anti_top_point_on_a_scaled_kernel(self):
        # Scaled by 1e6, this draw's R_0 tops its largest atom radius by
        # 1.2e-9 from rounding alone; the top level must still pick that atom.
        base = _reducible_draw(26)
        model = MetapopModel(weights=base.weights, matrix=base.matrix * 1e6)
        anti = assemble_reducible(model, UNIFORM, **REDUCIBLE_EFFORT).anti
        r0 = effective_re(model, Strategy.ones(model.n))
        top = max(anti.points, key=lambda point: point.loss)
        assert effective_re(model, top.strategy) == pytest.approx(r0, rel=1e-12)

    @pytest.mark.parametrize(
        "trial, scale", [(0, 1e3), (6, 1e3), (2, 1e6), (22, 1e6)]
    )
    def test_pareto_top_point_on_a_scaled_kernel(self, trial, scale):
        # Scaled, these draws' largest atom radius tops R_0 by rounding; an
        # atom solved at that level would come back with entries of 1 - 1 ulp.
        base = _reducible_draw(trial)
        model = MetapopModel(weights=base.weights, matrix=base.matrix * scale)
        top = assemble_reducible(model, UNIFORM, **REDUCIBLE_EFFORT).pareto.points[0]
        assert top.cost == 0.0
        np.testing.assert_array_equal(top.strategy.values, np.ones(model.n))

    def test_remainder_kept_unvaccinated(self):
        # One atom {1} with a self-loop plus quasi-nilpotent remainder {0}.
        k = np.array([[0.0, 1.0], [0.0, 2.0]])
        model = MetapopModel(weights=np.array([0.5, 0.5]), matrix=k)
        assembled = assemble_reducible(model, UNIFORM, resolution=8)
        for point in assembled.pareto.points:
            assert point.strategy.values[0] == 1.0


class TestOptimalRay:
    def test_psd_model_ray(self):
        model = fixtures.positive_definite_model()
        solved = optimal_loss(model, UNIFORM, 0.3)
        assert 0.0 < solved.strategy.values.max() < 1.0
        report = optimal_ray_check(model, UNIFORM, solved.strategy)
        assert report.all_passed
        assert report.expected[0] == pytest.approx(0.0, abs=1e-12)
        assert report.lambdas[-1] == pytest.approx(
            1.0 / solved.strategy.values.max(), abs=1e-12
        )

    def test_precondition_non_convex(self):
        model = fixtures.counterexample_positive_spectrum()
        with pytest.raises(PreconditionFailed):
            optimal_ray_check(model, UNIFORM, Strategy(np.full(3, 0.5)))

    def test_precondition_boundary(self):
        model = fixtures.positive_definite_model()
        with pytest.raises(PreconditionFailed):
            optimal_ray_check(model, UNIFORM, Strategy.ones(3))

    def test_convex_frontier_tail_is_linear(self):
        model = fixtures.positive_definite_model()
        curve = pareto_frontier(model, UNIFORM, resolution=16)
        cmax = 1.0
        anchor = None
        for point in curve.points:
            if 0.0 < point.strategy.values.max() < 1.0:
                anchor = point
                break
        assert anchor is not None
        # Collinearity of every later frontier point with the anchor and the
        # exact endpoint (c_max, 0).
        for point in curve.points:
            if point.cost < anchor.cost:
                continue
            expected = anchor.loss * (cmax - point.cost) / (cmax - anchor.cost)
            assert point.loss == pytest.approx(expected, abs=1e-6)


class TestFeasibleRegionSample:
    def test_deterministic_under_seed(self):
        model = fixtures.two_block_model()
        a = feasible_region_sample(model, UNIFORM, samples=50, seed=9)
        b = feasible_region_sample(model, UNIFORM, samples=50, seed=9)
        assert a == b

    def test_scalar_samples_on_segment(self):
        model = scalar_model(2.0)
        for c, loss in feasible_region_sample(model, UNIFORM, samples=100, seed=1):
            assert loss == pytest.approx(2.0 * (1.0 - c), abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_grid_family_matches_double_loop(self, monkeypatch, n):
        grid = np.linspace(0.0, 1.0, 9)
        family = set()
        for base_value in (0.0, 1.0):
            base = np.full(n, base_value)
            family.add(tuple(base))
            for i in range(n):
                for gi in grid:
                    one = base.copy()
                    one[i] = gi
                    family.add(tuple(one))
                    for j in range(i + 1, n):
                        for gj in grid:
                            two = one.copy()
                            two[j] = gj
                            family.add(tuple(two))
        stacked = []

        def captured(model, etas):
            stacked.append(etas)
            return np.zeros(len(etas))

        monkeypatch.setattr(frontier, "effective_re_batch", captured)
        model = MetapopModel(weights=np.full(n, 1.0 / n), matrix=np.ones((n, n)))
        feasible_region_sample(model, UNIFORM, samples=1, seed=0)
        np.testing.assert_array_equal(stacked[0][1:], np.array(sorted(family)))

    def test_two_block_plateau_visible(self):
        model = fixtures.two_block_model()
        points = feasible_region_sample(model, UNIFORM, samples=200, seed=2)
        top = [c for c, loss in points if loss >= 3.0 - 1e-9]
        assert max(top) >= 0.5 - 1e-9


class TestGridOracleFourGroups:
    def test_four_group_face_grid(self):
        rng = np.random.default_rng(54)
        w = 0.2 + rng.random(4)
        w /= math.fsum(w.tolist())
        model = MetapopModel(weights=w, matrix=rng.random((4, 4)) * 1.5)
        budget = 0.35 * c_max(UNIFORM, model)
        solved = optimal_loss(model, UNIFORM, budget)
        target = c_max(UNIFORM, model) - budget
        grid = np.linspace(0.0, 1.0, 65)
        e1, e2, e3 = np.meshgrid(grid, grid, grid, indexing="ij")
        flat = np.stack([e1.ravel(), e2.ravel(), e3.ravel()], axis=1)
        e4 = (target - flat @ w[:3]) / w[3]
        keep = (e4 >= -1e-12) & (e4 <= 1 + 1e-12)
        etas = np.concatenate(
            [flat[keep], np.clip(e4[keep], 0.0, 1.0)[:, None]], axis=1
        )
        losses = effective_re_batch(model, etas)
        best = float(losses.min())
        lipschitz = max(float(np.abs(np.diff(losses[:200])).max()) * 64.0, 1.0)
        assert abs(solved.loss - best) <= 2.0 * lipschitz / 64.0


class TestMaximizerDominance:
    def test_auto_max_dominates_random_feasible_points(self):
        # Vertex enumeration alone is exact only under convexity; the auto
        # route (enumeration plus seeded ascent) must dominate random
        # feasible strategies on general models.
        rng = np.random.default_rng(55)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            w = 0.2 + rng.random(n)
            w /= math.fsum(w.tolist())
            model = MetapopModel(weights=w, matrix=rng.random((n, n)) * 2.0)
            c = float(rng.uniform(0.1, 0.8)) * c_max(UNIFORM, model)
            top = optimal_loss_max(model, UNIFORM, c)
            etas = rng.random((4000, n))
            costs = (1.0 - etas) @ (w)
            feasible = etas[costs >= c - 1e-12]
            if len(feasible) == 0:
                continue
            losses = effective_re_batch(model, feasible)
            assert losses.max() <= top.loss + 1e-6

    def test_vertex_exact_under_convexity(self):
        from vaxfront.acceptance import random_convex_model

        rng = np.random.default_rng(56)
        for _ in range(6):
            n = int(rng.integers(2, 6))
            model = random_convex_model(rng, n)
            c = float(rng.uniform(0.1, 0.8)) * c_max(UNIFORM, model)
            top = optimal_loss_max(model, UNIFORM, c)
            assert top.status == "VertexEnumerated"
            etas = rng.random((4000, n))
            w = UNIFORM.coefficient_vector(n) * model.weights
            feasible = etas[(1.0 - etas) @ w >= c - 1e-12]
            if len(feasible) == 0:
                continue
            losses = effective_re_batch(model, feasible)
            assert losses.max() <= top.loss + 1e-9


class TestNonTrivialConvexRay:
    def test_ray_on_scaled_gram_model(self):
        # A diag-scaled Gram matrix with non-uniform weights: the interior
        # Pareto point is no longer a uniform profile, so the ray check
        # exercises genuine solves at every scaled budget.
        from vaxfront.acceptance import random_convex_model

        rng = np.random.default_rng(59)
        model = random_convex_model(rng, 4)
        interior = None
        for c in np.linspace(0.1, 0.7, 13):
            solved = optimal_loss(model, UNIFORM, float(c))
            peak = solved.strategy.values.max()
            if 0.05 < peak < 0.95:
                interior = solved.strategy
                break
        assert interior is not None
        spread = interior.values.max() - interior.values.min()
        assert spread > 1e-4  # genuinely non-uniform optimum
        report = optimal_ray_check(model, UNIFORM, interior)
        assert report.all_passed


class TestCeilingWitness:
    def test_endpoint_strategy_achieves_the_ceiling(self):
        # Two critical atoms with equal radius but different sizes: the
        # endpoint must report the strategy whose cost attains the ceiling.
        k = np.zeros((3, 3))
        k[0, 0] = 2.0                      # singleton atom, radius 2
        k[1:, 1:] = np.array([[1.0, 1.0], [1.0, 1.0]])  # pair atom, radius 2
        model = MetapopModel(weights=np.array([0.2, 0.4, 0.4]), matrix=k)
        ceiling = inefficiency_ceiling(model, UNIFORM)
        assert ceiling == pytest.approx(0.8, abs=1e-12)  # keep the singleton
        curve = anti_pareto_frontier(model, UNIFORM, resolution=4)
        first = curve.points[0]
        assert first.cost == pytest.approx(0.8, abs=1e-12)
        assert cost(UNIFORM, model, first.strategy) == pytest.approx(0.8, abs=1e-12)
        assert effective_re(model, first.strategy) == pytest.approx(2.0, abs=1e-9)
