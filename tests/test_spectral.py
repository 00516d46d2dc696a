import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxfront import (
    ComplexSpectrum,
    CostFunction,
    DimensionMismatch,
    MetapopModel,
    NonConvergence,
    NonSimple,
    Strategy,
    ValidationError,
    ZeroRadius,
    classify_convexity,
    dominant_pair,
    effective_re,
    effective_re_batch,
    full_spectrum,
    inertia,
    eradication_cost,
    frobenius_decompose,
    re_gradient,
    spectral_radius,
)
from vaxfront import fixtures, spectral
from vaxfront.acceptance import random_convex_model, random_model, random_rank_one
from vaxfront.spectral import _DENSE_CUTOFF, _power_block
from vaxfront.structure import _atom_submodel

K_SADDLE = np.array([[16.0, 12.0, 11.0], [1.0, 12.0, 12.0], [8.0, 1.0, 1.0]])
K_SINGLE = np.array([[9.0, 13.0, 14.0], [18.0, 6.0, 5.0], [1.0, 6.0, 6.0]])


class TestSpectralRadius:
    def test_cycle_adjacency(self):
        rho = spectral_radius(fixtures.cycle_model().matrix)
        assert rho == pytest.approx(2.0, abs=2e-12)

    def test_saddle_counterexample(self):
        assert spectral_radius(K_SADDLE) == pytest.approx(24.8, abs=0.05)

    def test_nilpotent_is_exactly_zero(self):
        upper = np.triu(np.ones((3, 3)), k=1)
        assert spectral_radius(upper) == 0.0

    def test_matches_dense_route(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            a = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
            iterative = spectral_radius(a)
            dense = float(np.abs(np.linalg.eigvals(a)).max())
            assert abs(iterative - dense) <= 1e-11 * max(1.0, dense)

    def test_rejects_negative(self):
        from vaxfront import ValidationError

        with pytest.raises(ValidationError):
            spectral_radius(np.array([[1.0, -1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("a", [np.ones((2, 3)), np.zeros((0, 0)), np.ones(3),
                                   np.array([[1.0, math.nan], [0.0, 1.0]]),
                                   np.array([[1.0, math.inf], [0.0, 1.0]])],
                             ids=["not-square", "empty", "vector", "nan", "inf"])
    def test_rejects_malformed(self, a):
        for call in (spectral_radius, full_spectrum, inertia):
            with pytest.raises(ValidationError):
                call(a)


class TestFullSpectrum:
    def test_saddle_eigenvalues(self):
        spec = full_spectrum(K_SADDLE)
        got = sorted(spec.values.real, reverse=True)
        for value, expected in zip(got, (24.8, 2.9, 1.3)):
            assert value == pytest.approx(expected, abs=0.05)
        assert spec.is_real
        assert spec.radius == pytest.approx(24.8, abs=0.05)

    def test_single_positive_eigenvalues(self):
        spec = full_spectrum(K_SINGLE)
        got = sorted(spec.values.real, reverse=True)
        for value, expected in zip(got, (26.3, -1.4, -3.9)):
            assert value == pytest.approx(expected, abs=0.05)

    def test_identity_multiplicity(self):
        spec = full_spectrum(np.eye(4))
        assert len(spec.clusters) == 1
        centre, mult = spec.clusters[0]
        assert centre == pytest.approx(1.0)
        assert mult == 4

    def test_multiplicities_sum_to_n(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            spec = full_spectrum(rng.normal(size=(n, n)))
            assert sum(m for _, m in spec.clusters) == n


class TestEffectiveRe:
    def test_cycle_r0(self):
        model = fixtures.cycle_model()
        assert effective_re(model, Strategy.ones(12)) == pytest.approx(2.0, abs=1e-9)

    def test_one_in_four(self):
        model = fixtures.cycle_model()
        value = effective_re(model, fixtures.one_in_four_strategy())
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_all_vaccinated(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 5)
        assert effective_re(model, Strategy.zeros(5)) == 0.0

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 6)
        etas = rng.random((40, 6))
        batch = effective_re_batch(model, etas)
        for k in range(40):
            single = effective_re(model, Strategy(etas[k]))
            assert batch[k] == pytest.approx(single, abs=1e-11 * max(1.0, single))

    def test_radius_batch_nilpotent_zero(self):
        k = np.zeros((3, 3))
        k[0, 1] = 1.0
        k[1, 2] = 1.0
        model = MetapopModel(weights=np.full(3, 1.0 / 3.0), matrix=k)
        etas = np.random.default_rng(6).random((9, 3))
        assert np.all(effective_re_batch(model, etas) == 0.0)
        # QR's balancing permutes an acyclic support to triangular form, so
        # its zero diagonal comes back exactly: permuted strictly triangular
        # kernels, dense and sparse, and directed cycles whose closing column
        # is zeroed by the strategy.
        rng = np.random.default_rng(61)
        for n in (2, 5, 17, 33, 48, 60):
            perm = rng.permutation(n)
            for density in (1.0, 0.3):
                k = np.triu(rng.random((n, n)) * (rng.random((n, n)) < density), 1)
                model = MetapopModel(
                    weights=np.full(n, 1.0 / n), matrix=k[np.ix_(perm, perm)]
                )
                assert np.all(effective_re_batch(model, rng.random((8, n))) == 0.0)
            cycle = np.roll(np.eye(n), 1, axis=1) * (1.0 + rng.random((n, n)))
            model = MetapopModel(
                weights=np.full(n, 1.0 / n), matrix=cycle[np.ix_(perm, perm)]
            )
            etas = rng.random((n, n))
            etas[np.arange(n), np.arange(n)] = 0.0  # row i zeroes column i
            assert np.all(effective_re_batch(model, etas) == 0.0)

    @pytest.mark.parametrize(
        "row", [[2.0, 1.0], [-0.5, 1.0], [math.nan, 1.0], [math.inf, 1.0]]
    )
    def test_batch_rows_checked_as_strategies(self, row):
        model = random_model(np.random.default_rng(7), 2)
        with pytest.raises(ValidationError):
            effective_re_batch(model, np.array([[0.5, 0.5], row]))

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (2, 2, 2)])
    def test_batch_shape_checked(self, shape):
        model = random_model(np.random.default_rng(7), 2)
        with pytest.raises(DimensionMismatch):
            effective_re_batch(model, np.full(shape, 0.5))

    def test_batch_failure_raises_at_once(self, monkeypatch):
        calls = []

        def failing(a):
            calls.append(a.shape)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", failing)
        model = random_model(np.random.default_rng(8), 3)
        with pytest.raises(NonConvergence):
            effective_re_batch(model, np.full((4, 3), 0.5))
        assert calls == [(4, 3, 3)]


class TestDominantPair:
    def test_scalar(self):
        model = MetapopModel(weights=np.array([1.0]), matrix=np.array([[3.0]]))
        pair = dominant_pair(model, Strategy.ones(1))
        assert pair.value == pytest.approx(3.0)
        assert pair.right[0] == pytest.approx(1.0)
        assert pair.left[0] == pytest.approx(1.0)

    def test_cycle_uniform_vector(self):
        pair = dominant_pair(fixtures.cycle_model(), Strategy.ones(12))
        assert pair.value == pytest.approx(2.0, abs=1e-10)
        assert np.allclose(pair.right, 1.0 / 12.0, atol=1e-10)
        assert pair.left @ pair.right == pytest.approx(1.0, abs=1e-12)

    def test_2x2_closed_form(self):
        model = MetapopModel(
            weights=np.array([0.5, 0.5]), matrix=np.array([[1.0, 2.0], [3.0, 1.0]])
        )
        pair = dominant_pair(model, Strategy.ones(2))
        assert pair.value == pytest.approx(1.0 + math.sqrt(6.0), abs=1e-10)
        assert pair.right[0] / pair.right[1] == pytest.approx(
            math.sqrt(2.0 / 3.0), abs=1e-10
        )

    def test_residual_invariants(self):
        rng = np.random.default_rng(6)
        cases = []
        for _ in range(30):
            n = int(rng.integers(2, 8))
            model = random_model(rng, n, scale=2.0)
            cases.append((model, Strategy(0.1 + 0.9 * rng.random(n)), NonSimple))
        # Zero coordinates leave the eigenvector matrix ill-conditioned or
        # singular, and its inverse rows of mixed sign: the pair must then
        # come from the transpose or raise, never hold NaN.
        rng = np.random.default_rng(17)
        while len(cases) < 60:
            n = int(rng.integers(3, 9))
            model = random_model(rng, n, density=0.5)
            values = 0.1 + 0.9 * rng.random(n)
            values[rng.choice(n, int(rng.integers(1, n)), replace=False)] = 0.0
            if effective_re(model, Strategy(values)) > 0.0:
                cases.append((model, Strategy(values), (NonSimple, NonConvergence)))
        # A strategy of the solver's 8-group irreducible panel draw whose
        # inverse row of the Perron root is of mixed sign.
        rng = np.random.default_rng([2110_12693, 3])
        atoms = ()
        while len(atoms) != 1 or len(atoms[0]) != 8:
            model = random_model(rng, 8, density=0.5)
            atoms = frobenius_decompose(model).atoms
        mixed = Strategy(np.array([float.fromhex(h) for h in (
            "0x1.e7f1d8902f798p-3", "0x0.0p+0", "0x1.cf3e73f92681cp-1", "0x0.0p+0",
            "0x1.0000000000000p+0", "0x1.c399db7797493p-1", "0x1.652e967681404p-1",
            "0x0.0p+0")]))
        cases.append((model, mixed, (NonSimple, NonConvergence)))
        refused = 0
        for model, eta, allowed in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    pair = dominant_pair(model, eta)
                except allowed:
                    refused += 1
                    continue
            assert np.isfinite(pair.left).all() and np.isfinite(pair.right).all()
            effective = model.effective_matrix(eta)
            bound = 1e-10 * max(pair.value, 1.0)
            assert np.abs(effective @ pair.right - pair.value * pair.right).max() <= bound
            assert np.abs(effective.T @ pair.left - pair.value * pair.left).max() <= bound
            assert abs(np.abs(pair.right).sum() - 1.0) <= 1e-12
            assert pair.left @ pair.right == pytest.approx(1.0, abs=1e-10)
        assert refused < len(cases) // 2

    def test_empty_window_is_not_simple(self, monkeypatch):
        # A defective top eigenvalue splits into a complex pair whose modulus
        # exceeds every real root; here every eigenvalue is turned off the
        # real axis, so none lies within the 1e-8 gap threshold of rho.
        model = random_model(np.random.default_rng(9), 4)
        eta = Strategy(np.array([0.2, 0.5, 0.7, 1.0]))
        eig = np.linalg.eig

        def turned(a):
            values, vectors = eig(a)
            return values * np.exp(0.1j), vectors

        monkeypatch.setattr(np.linalg, "eig", turned)
        for call in (dominant_pair, re_gradient):
            with pytest.raises(NonSimple):
                call(model, eta)

    def test_zero_radius(self):
        model = MetapopModel(weights=np.array([0.5, 0.5]), matrix=np.zeros((2, 2)))
        with pytest.raises(ZeroRadius):
            dominant_pair(model, Strategy.ones(2))

    def test_non_simple(self):
        model = MetapopModel(weights=np.array([0.5, 0.5]), matrix=np.eye(2))
        with pytest.raises(NonSimple):
            dominant_pair(model, Strategy.ones(2))

    def test_orthogonal_fallback_pair_is_refused(self):
        # At this strategy the top radii of two blocks are nearly tied and
        # the fallback's left and right vectors lie on different blocks, so
        # their product is 0; dividing by it gave a NaN pair.
        rng = np.random.default_rng(3)
        model = random_model(
            rng, int(rng.integers(4, 11)), density=0.15 + 0.3 * rng.random()
        )
        eta = Strategy(np.array(
            [1.0] * 5
            + [float.fromhex("0x1.a09db4e18ca36p-7"),
               float.fromhex("0x1.2c1e102cf036fp-23")]
            + [1.0] * 2
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                pair = dominant_pair(model, eta)
            except NonConvergence:
                return
        assert np.isfinite(pair.left).all() and np.isfinite(pair.right).all()

    @pytest.mark.parametrize("bad", [math.inf, math.nan, None], ids=["inf", "nan", "raises"])
    def test_non_finite_inverse_takes_the_fallback(self, monkeypatch, bad):
        # bad=None: the inverse raises LinAlgError, as for a singular matrix.
        model = random_model(np.random.default_rng(9), 4)
        eta = Strategy(np.array([0.2, 0.0, 0.7, 1.0]))
        expected = dominant_pair(model, eta)
        expected_gradient = re_gradient(model, eta)

        def inverse(a):
            if bad is None:
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full(a.shape, bad)

        monkeypatch.setattr(np.linalg, "inv", inverse)
        eig, solves = np.linalg.eig, []
        monkeypatch.setattr(np.linalg, "eig", lambda a: solves.append(a) or eig(a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = dominant_pair(model, eta)
            # One solve of K . diag(eta) and one of its transpose, no more.
            assert len(solves) == 2
            gradient = re_gradient(model, eta)
        assert pair.value == expected.value
        np.testing.assert_allclose(pair.right, expected.right, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pair.left, expected.left, rtol=1e-9, atol=0)
        np.testing.assert_allclose(gradient, expected_gradient, rtol=1e-9, atol=1e-15)


class TestGradient:
    def test_one_eig_and_one_inv_per_call(self, monkeypatch):
        model = random_model(np.random.default_rng(9), 4)
        x = np.array([0.2, 0.5, 0.7, 1.0])
        calls = []
        for name in ("eig", "inv"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a, _n=name, _f=solve: calls.append(_n) or _f(a))
        for gradient in (lambda: re_gradient(model, Strategy(x)),
                         lambda: spectral._atom_gradients(model, x)):
            calls.clear()
            gradient()
            assert calls == ["eig", "inv"]

    def test_scalar(self):
        model = MetapopModel(weights=np.array([1.0]), matrix=np.array([[3.0]]))
        grad = re_gradient(model, Strategy(np.array([0.5])))
        assert grad[0] == pytest.approx(3.0, abs=1e-10)

    def test_configuration_gradient_is_constant(self):
        rng = np.random.default_rng(7)
        model, f, g = random_rank_one(rng, 5)
        expected = f * g * model.weights
        for _ in range(3):
            eta = Strategy(0.2 + 0.8 * rng.random(5))
            grad = re_gradient(model, eta)
            assert np.abs(grad - expected).max() <= 1e-8

    def test_cycle_euler_identity(self):
        grad = re_gradient(fixtures.cycle_model(), Strategy.ones(12))
        assert np.allclose(grad, 2.0 / 12.0, atol=1e-10)

    def test_against_finite_differences(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 8))
            model = random_model(rng, n, scale=2.0)
            eta = 0.1 + 0.8 * rng.random(n)
            try:
                grad = re_gradient(model, Strategy(eta))
            except (NonSimple, ZeroRadius):
                continue
            step = 1e-6
            for j in range(n):
                up = eta.copy()
                up[j] += step
                down = eta.copy()
                down[j] -= step
                fd = (
                    effective_re(model, Strategy(up))
                    - effective_re(model, Strategy(down))
                ) / (2 * step)
                assert abs(grad[j] - fd) <= 1e-5
            checked += 1


class TestEffectiveAtoms:
    """A tie that the eigensolver does not keep apart, at a strategy with
    zeros: the rows are those of the components of K on {x > 0}."""

    def test_draw_tie_takes_each_components_row(self):
        # A Pareto iterate of the solver's 5-group irreducible panel draw.
        # With group 2 at zero, K on the others splits into {0, 3} and
        # {1, 4}, whose radii the full eig finds tied within 1e-8.
        rng = np.random.default_rng([2110_12693, 1])
        atoms = ()
        while len(atoms) != 1 or len(atoms[0]) != 5:
            model = random_model(rng, 5, density=0.5)
            atoms = frobenius_decompose(model).atoms
        x = np.array([float.fromhex(h) for h in (
            "0x1.0000000000000p+0", "0x1.4008bb9d100d4p-1", "0x0.0p+0",
            "0x1.260c35f32c0f5p-1", "0x1.0000000000000p+0")])
        rows = spectral._atom_gradients(model, x)
        assert sorted(tuple(np.flatnonzero(row)) for row in rows) == [(0, 3), (1, 4)]
        for row in rows:
            block = np.flatnonzero(row)
            sub, _ = _atom_submodel(model, CostFunction.uniform(), block)
            want = re_gradient(sub, Strategy(x[block]))
            np.testing.assert_allclose(row[block], want, rtol=0, atol=1e-10)
        np.testing.assert_array_equal(re_gradient(model, Strategy(x)), rows[0])

def _tied_top_cases():
    """Exactly tied top eigenvalues on the symmetric route: the 12-cycle with
    eta = 0 on groups 0 and 6 (two 5-paths, lambda = sqrt(3) double), and
    the 2-group identity at all ones."""
    eta = np.ones(12)
    eta[[0, 6]] = 0.0
    return [(fixtures.cycle_model(12), eta),
            (MetapopModel(np.array([0.5, 0.5]), np.eye(2)), np.ones(2))]


def _simple_top_cases():
    """Simple top eigenvalues on the symmetric route: the 12-cycle at seeded
    interior strategies, three ``random_convex_model`` draws and a kernel
    that is symmetrizable, by d = (1, 0.5, 0.25), but not symmetric."""
    rng = np.random.default_rng(181)
    cases = [(fixtures.cycle_model(12), 0.1 + 0.9 * rng.random(12)) for _ in range(3)]
    for n in (4, 8, 12):
        cases.append((random_convex_model(rng, n), 0.1 + 0.9 * rng.random(n)))
    k = np.array([[1.0, 2.0, 0.5], [4.0, 3.0, 1.0], [2.0, 2.0, 2.0]])
    cases.append((MetapopModel(np.full(3, 1.0 / 3.0), k), np.array([0.9, 0.4, 0.7])))
    return cases


class TestTiedTopGradient:
    """On the symmetric route ``re_gradient`` is one formula from one
    ``eigh``: at a top eigenvalue tied within 1e-8 the top eigenvector's
    element of the generalized gradient, at a simple one the Perron pair's
    gradient."""

    @pytest.mark.parametrize("case", range(7), ids=[
        "cycle12-a", "cycle12-b", "cycle12-c", "convex4", "convex8", "convex12",
        "balanced3"])
    def test_simple_top_is_the_pair_gradient(self, monkeypatch, case):
        model, eta = _simple_top_cases()[case]
        pair = dominant_pair(model, Strategy(eta))  # a simple top; derives the balance
        want = (model.matrix.T @ pair.left) * pair.right
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("general eigensolver or Perron pair called")

        monkeypatch.setattr(np.linalg, "eigh", counted)
        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(spectral, "_symmetric_pair", refuse)
        grad = re_gradient(model, Strategy(eta))
        assert len(calls) == 1
        np.testing.assert_allclose(grad, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", [0, 1], ids=["cycle12-two-paths", "eye2"])
    def test_element_of_the_generalized_gradient(self, monkeypatch, case):
        model, eta = _tied_top_cases()[case]
        value = effective_re(model, Strategy(eta))  # derives the balance once
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("general eigensolver called")

        monkeypatch.setattr(np.linalg, "eigh", counted)
        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        grad = re_gradient(model, Strategy(eta))
        assert len(calls) == 1
        assert (grad >= 0.0).all()
        assert eta @ grad == pytest.approx(value, rel=1e-12)

        # R_e is the largest Rayleigh quotient, so it rises at least along g.
        rng = np.random.default_rng(161)
        t = 1e-7
        for _ in range(20):
            delta = rng.uniform(-1.0, 1.0, eta.size)
            delta[eta == 0.0] = np.abs(delta[eta == 0.0])
            delta[eta == 1.0] = -np.abs(delta[eta == 1.0])
            moved = effective_re(model, Strategy(eta + t * delta))
            assert (moved - value) / t >= grad @ delta - 1e-6
        # No Perron pair exists at a tie.
        with pytest.raises(NonSimple):
            dominant_pair(model, Strategy(eta))


def _general():
    return random_model(np.random.default_rng(9), 4), Strategy(np.array([0.2, 0.5, 0.7, 1.0]))


def _symmetric():
    return fixtures.cycle_model(), Strategy(np.linspace(0.3, 1.0, 12))


def _failing(routine):
    """A stand-in for ``numpy.linalg.<routine>`` that fails as LAPACK does."""

    @functools.wraps(getattr(np.linalg, routine))
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{routine} did not converge")

    return failing


class TestFailurePolicy:
    """A LAPACK failure reaches the caller as ``NonConvergence`` naming the
    ``numpy.linalg`` routine, never as ``LinAlgError``."""

    @pytest.mark.parametrize("routine, make, call", [
        ("eigvals", _general, effective_re),
        ("eigvals", _general, lambda m, e: effective_re_batch(m, e.values[None, :])),
        ("eigvals", _general, lambda m, e: spectral_radius(m.effective_matrix(e))),
        ("eigvals", _general, lambda m, e: full_spectrum(m.matrix)),
        ("eigvals", _general, lambda m, e: inertia(m.matrix)),
        ("eigvalsh", _symmetric, effective_re),
        ("eigvalsh", _symmetric, lambda m, e: effective_re_batch(m, e.values[None, :])),
        ("eigvalsh", _symmetric, lambda m, e: spectral_radius(m.matrix)),
        ("eigh", _symmetric, dominant_pair),
        ("eigh", _symmetric, re_gradient),
        ("eig", _general, dominant_pair),
        ("eig", _general, re_gradient),
    ], ids=[
        "eigvals-effective_re", "eigvals-batch", "eigvals-spectral_radius",
        "eigvals-full_spectrum", "eigvals-inertia", "eigvalsh-effective_re",
        "eigvalsh-batch", "eigvalsh-spectral_radius", "eigh-dominant_pair",
        "eigh-re_gradient", "eig-dominant_pair", "eig-re_gradient",
    ])
    def test_names_the_routine(self, monkeypatch, routine, make, call):
        model, eta = make()
        monkeypatch.setattr(np.linalg, routine, _failing(routine))
        with pytest.raises(NonConvergence, match=rf"^{routine} failed: "):
            call(model, eta)

    @pytest.mark.parametrize("call", [dominant_pair, re_gradient])
    def test_failed_transpose_after_failed_inverse(self, monkeypatch, call):
        model, eta = _general()
        eig, solves = np.linalg.eig, []

        @functools.wraps(eig)
        def first_only(a):
            solves.append(a)
            return _failing("eig")(a) if len(solves) > 1 else eig(a)

        monkeypatch.setattr(np.linalg, "inv", _failing("inv"))
        monkeypatch.setattr(np.linalg, "eig", first_only)
        with pytest.raises(NonConvergence, match="^eig failed: "):
            call(model, eta)
        assert len(solves) == 2

    def test_zero_overlap_row_is_refused(self):
        # Row 1's right and left vectors lie on different groups, so their
        # overlap is exactly 0; the row must be refused without a 0/0.
        model, eta = _general()
        k, x = model.matrix, eta.values
        _, lams, vectors = spectral._eig(k * x)
        v = vectors.real.T.copy()
        phi = np.linalg.inv(vectors).real
        v[1], phi[1] = np.eye(4)[0], np.eye(4)[1]
        others = [0, 2, 3]
        want_grads, want_kept = spectral._perron_rows(
            k, x, lams[others], v[others], phi[others])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grads, kept = spectral._perron_rows(k, x, lams, v, phi)
        assert not kept[1] and not grads[1].any()
        assert grads[others].tobytes() == want_grads.tobytes()
        assert kept[others].tolist() == want_kept.tolist()


class TestInertia:
    def test_positive_definite(self):
        assert inertia(fixtures.positive_definite_model().matrix) == (3, 0)

    def test_single_positive(self):
        assert inertia(K_SINGLE) == (1, 2)

    def test_zero_matrix(self):
        assert inertia(np.zeros((3, 3))) == (0, 0)

    def test_complex_spectrum_raises(self):
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ComplexSpectrum):
            inertia(rotation)


class TestInvariances:
    def test_homogeneity(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            model = random_model(rng, n, scale=1.5)
            r0 = effective_re(model, Strategy.ones(n))
            eta = rng.random(n)
            lam = rng.random()
            left = effective_re(model, Strategy(lam * eta))
            right = lam * effective_re(model, Strategy(eta))
            assert abs(left - right) <= 1e-10 * max(1.0, r0)

    def test_monotonicity(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            model = random_model(rng, n)
            eta2 = rng.random(n)
            eta1 = eta2 * rng.random(n)
            v1 = effective_re(model, Strategy(eta1))
            v2 = effective_re(model, Strategy(eta2))
            assert v1 <= v2 + 1e-10

    def test_commutation(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            a = rng.random((n, n))
            b = rng.random((n, n))
            ab = spectral_radius(a @ b)
            ba = spectral_radius(b @ a)
            assert abs(ab - ba) <= 1e-10 * max(1.0, ab)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            k = rng.random((n, n)) * (rng.random((n, n)) < 0.8)
            eta = rng.random(n)
            base = spectral_radius(k * eta[None, :])
            assert spectral_radius(k.T * eta[:, None]) == pytest.approx(
                base, abs=1e-10 * max(1.0, base)
            )
            assert spectral_radius(eta[:, None] * k) == pytest.approx(
                base, abs=1e-10 * max(1.0, base)
            )

    def test_diagonal_similarity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            k = rng.random((n, n))
            eta = rng.random(n)
            h = 0.2 + 4.8 * rng.random(n)
            base = spectral_radius(k * eta[None, :])
            conj = spectral_radius((h[:, None] * k / h[None, :]) * eta[None, :])
            assert abs(conj - base) <= 1e-9 * max(1.0, base)

    def test_domination(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            a = rng.random((n, n))
            b = a * rng.random((n, n))
            assert spectral_radius(a) >= spectral_radius(b) - 1e-12


def vectors(n, low=0.0, high=1.0):
    return st.lists(st.floats(low, high), min_size=n, max_size=n).map(np.array)


@st.composite
def kernel_and_strategy(draw, max_n=6):
    """A nonnegative kernel of at most ``max_n`` groups, some entries zero,
    and a strategy in [0, 1]^N."""
    n = draw(st.integers(1, max_n))
    entries = st.one_of(st.just(0.0), st.floats(0.01, 3.0))
    k = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    return k, draw(vectors(n))


def _re(k, eta):
    return effective_re(MetapopModel(np.full(k.shape[0], 1.0 / k.shape[0]), k), Strategy(eta))


class TestLawProperties:
    """The R_e laws on drawn kernels, to the tolerances of the seeded checks
    in ``TestInvariances``."""

    @settings(max_examples=60, deadline=None)
    @given(kernel_and_strategy(), st.floats(0.0, 1.0))
    def test_homogeneity(self, drawn, lam):
        k, eta = drawn
        base = _re(k, eta)
        assert abs(_re(k, lam * eta) - lam * base) <= 1e-10 * max(1.0, base)

    @settings(max_examples=60, deadline=None)
    @given(kernel_and_strategy(), st.data())
    def test_monotonicity(self, drawn, data):
        k, eta = drawn
        u = data.draw(vectors(k.shape[0]))
        base = _re(k, eta)
        assert _re(k, u * eta) <= base + 1e-10 * max(1.0, base)

    @settings(max_examples=60, deadline=None)
    @given(kernel_and_strategy())
    def test_transpose(self, drawn):
        k, eta = drawn
        base = _re(k, eta)
        swapped = spectral_radius(eta[:, None] * k.T)
        assert abs(swapped - base) <= 1e-10 * max(1.0, base)

    @settings(max_examples=60, deadline=None)
    @given(kernel_and_strategy(), st.data())
    def test_diagonal_similarity(self, drawn, data):
        k, eta = drawn
        h = data.draw(vectors(k.shape[0], 0.2, 5.0))
        base = _re(k, eta)
        conj = _re(h[:, None] * k / h[None, :], eta)
        assert abs(conj - base) <= 1e-9 * max(1.0, base)


class TestRouteAgreement:
    def test_effective_re_equals_spectral_radius(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            model = random_model(rng, n, density=0.7, scale=2.0)
            eta = Strategy(rng.random(n))
            fast = effective_re(model, eta)
            certified = spectral_radius(model.effective_matrix(eta))
            assert abs(fast - certified) <= 1e-11 * max(1.0, certified)

    def test_solver_radius_is_effective_re_bit_for_bit(self):
        # The solver takes R_e from ``eig`` so that the gradient can reuse
        # the vectors; LAPACK gives the same radius as ``eigvals``.
        rng = np.random.default_rng(23)
        general = 0
        for trial in range(240):
            n = int(rng.integers(2, _DENSE_CUTOFF + 1))
            model = random_model(rng, n, density=rng.uniform(0.1, 1.0))
            x = rng.random(n)
            if trial % 2:
                x[rng.random(n) < 0.3] = 0.0
            value, solved = spectral._re_with_eig(model, x, True)
            general += solved is not None  # a sparse draw may be balanced
            assert value == effective_re(model, Strategy(x))
        assert general >= 200


class _CountingMatrix(np.ndarray):
    """Counts the matrix-vector products of the power loop."""

    products = 0

    def __matmul__(self, other):
        _CountingMatrix.products += 1
        return np.asarray(self) @ other


class TestPowerRoute:
    """Blocks above the dense cutoff run the certified power iteration."""

    @staticmethod
    def strongly_connected(rng, n, density):
        k = rng.random((n, n)) * (rng.random((n, n)) < density)
        order = rng.permutation(n)
        # A Hamiltonian cycle through every group makes the block irreducible.
        k[order, np.roll(order, 1)] = 0.1 + rng.random(n)
        return k

    @pytest.mark.parametrize("density", [1.0, 0.05])
    def test_matches_dense_above_cutoff(self, density):
        rng = np.random.default_rng(16)
        for _ in range(10):
            n = int(rng.integers(50, 81))
            assert n > _DENSE_CUTOFF
            block = self.strongly_connected(rng, n, density)
            dense = float(np.abs(np.linalg.eigvals(block)).max())
            power = _power_block(block)
            assert power is not None
            assert abs(power - dense) <= 1e-11 * dense
            assert spectral_radius(block) == power

    def test_long_cycle_stalls_early(self):
        block = fixtures.cycle_model(200).matrix
        _CountingMatrix.products = 0
        assert _power_block(block.view(_CountingMatrix)) is None
        assert _CountingMatrix.products <= 600
        assert spectral_radius(block) == pytest.approx(2.0, abs=2e-12)

    def test_stalled_asymmetric_block_falls_back_to_qr(self, monkeypatch):
        n = 200
        block = np.zeros((n, n))
        i = np.arange(n)
        block[i, (i + 1) % n] = 1.0
        block[(i + 1) % n, i] = 0.5
        assert _power_block(block) is None
        calls = []
        general = np.linalg.eigvals

        def counted(a):
            calls.append(a.shape)
            return general(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        assert spectral_radius(block) == float(np.abs(general(block)).max())
        assert calls == [(n, n)]
        assert spectral_radius(block) == pytest.approx(1.5, rel=1e-13)

    def test_symmetric_block_power_steps_capped_at_size(self):
        block = fixtures.cycle_model(200).matrix
        _CountingMatrix.products = 0
        assert _power_block(block.view(_CountingMatrix), 200) is None
        assert _CountingMatrix.products <= 200

    def test_fast_mixing_symmetric_block_takes_power_route(self, monkeypatch):
        rng = np.random.default_rng(17)
        a = rng.random((120, 120))
        block = a + a.T
        power = _power_block(block, 120)
        assert power is not None

        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert spectral_radius(block) == power
        monkeypatch.undo()
        assert power == pytest.approx(np.linalg.eigvalsh(block)[-1], rel=1e-12)


def _random_symmetric(rng, n):
    """A symmetric kernel of n groups: sparse or dense support, loops on
    about half the draws, and on half of them two disconnected halves."""
    a = 3.0 * rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 1.0))
    if rng.random() < 0.5:
        cut = int(rng.integers(1, n))
        a[:cut, cut:] = 0.0
    k = np.triu(a) + np.triu(a, 1).T
    if rng.random() < 0.5:
        np.fill_diagonal(k, 0.0)
    return MetapopModel(np.full(n, 1.0 / n), k)


def _general_radius(k, eta):
    return float(np.abs(np.linalg.eigvals(k * eta)).max())


def _general_gradient(k, eta):
    """The Perron formula from ``np.linalg.eig`` of K . diag(eta) and its
    transpose."""
    effective = k * eta
    values, vectors = np.linalg.eig(effective)
    top = int(np.argmax(values.real))
    v = vectors[:, top].real
    v = v / v.sum()
    left_values, left_vectors = np.linalg.eig(effective.T)
    phi = left_vectors[:, int(np.argmin(np.abs(left_values - values[top])))].real
    phi = phi / (phi @ v)
    return (k.T @ phi) * v


def _ring2(n):
    k = fixtures.cycle_model(n).matrix.copy()
    i = np.arange(n)
    k[i, (i + 2) % n] = k[(i + 2) % n, i] = 1.0
    return MetapopModel(np.full(n, 1.0 / n), k)


def _grid(rows, cols):
    n = rows * cols
    k = np.zeros((n, n))
    for v in range(n):
        if (v + 1) % cols:
            k[v, v + 1] = k[v + 1, v] = 1.0
        if v + cols < n:
            k[v, v + cols] = k[v + cols, v] = 1.0
    return MetapopModel(np.full(n, 1.0 / n), k)


class TestSymmetricRoute:
    """An exactly symmetric K takes the symmetric eigensolver on
    diag(sqrt(eta)) K diag(sqrt(eta)); it must agree with general QR on
    K . diag(eta)."""

    def test_radii_agree_with_general_qr(self):
        rng = np.random.default_rng(81)
        for _ in range(60):
            n = int(rng.integers(2, 61))
            model = _random_symmetric(rng, n)
            k = model.matrix
            etas = rng.random((4, n))
            etas[rng.random((4, n)) < 0.25] = 0.0
            batch = effective_re_batch(model, etas)
            for eta, batched in zip(etas, batch):
                want = _general_radius(k, eta)
                r = np.sqrt(eta)
                for got in (
                    effective_re(model, Strategy(eta)),
                    batched,
                    spectral_radius(k * eta),
                    spectral_radius(np.outer(r, r) * k),
                ):
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-14)
            decomposition = frobenius_decompose(model)
            for atom, radius in zip(decomposition.atoms, decomposition.atom_radii):
                want = _general_radius(k[np.ix_(atom, atom)], 1.0)
                assert radius == pytest.approx(want, rel=1e-12)

    def test_gradient_agrees_with_general_formula(self):
        rng = np.random.default_rng(82)
        checked = 0
        for _ in range(80):
            n = int(rng.integers(2, 61))
            model = _random_symmetric(rng, n)
            k = model.matrix
            eta = rng.random(n)
            eta[rng.random(n) < 0.25] = 0.0
            try:
                grad = re_gradient(model, Strategy(eta))
            except (NonSimple, ZeroRadius):
                continue
            want = _general_gradient(k, eta)
            np.testing.assert_allclose(grad, want, rtol=0, atol=1e-10 * np.abs(want).max())
            checked += 1
        assert checked >= 60

    @pytest.mark.parametrize(
        "make",
        [fixtures.cycle_model, lambda: _ring2(30), lambda: _grid(5, 6),
         lambda: MetapopModel(np.full(1200, 1.0 / 1200), np.zeros((1200, 1200)))],
        ids=["cycle", "2-ring", "grid", "empty-1200"],
    )
    def test_eradicating_radius_is_positive_zero(self, make):
        model = make()
        eta = eradication_cost(model, CostFunction.uniform()).strategy
        values = [
            effective_re(model, eta),
            spectral_radius(model.effective_matrix(eta)),
            *effective_re_batch(model, eta.values[None, :]),
        ]
        for value in values:
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_route_takes_no_general_solver(self, monkeypatch):
        one = MetapopModel(np.array([1.0]), np.array([[3.0]]))
        assert effective_re(one, Strategy(np.array([0.7]))) == 3.0 * 0.7
        assert effective_re_batch(one, np.array([[0.7]]))[0] == 3.0 * 0.7

        def refuse(*args, **kwargs):
            raise AssertionError("general eigensolver called")

        caps = []
        power = spectral._power_block

        def capped(block, cap):
            caps.append((block.shape[0], cap))
            return power(block, cap)

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        monkeypatch.setattr(spectral, "_power_block", capped)
        assert effective_re(fixtures.cycle_model(400), Strategy.ones(400)) == pytest.approx(
            2.0, abs=1e-12
        )
        batch = effective_re_batch(fixtures.cycle_model(), np.ones((3, 12)))
        np.testing.assert_allclose(batch, 2.0, rtol=0, atol=1e-12)
        (radius,) = frobenius_decompose(fixtures.cycle_model(300)).atom_radii
        assert radius == pytest.approx(2.0, abs=1e-12)
        assert caps == [(400, 400), (300, 300)]

    def test_route_above_the_cutoff_skips_the_symmetry_test(self, monkeypatch):
        # S = diag(sqrt(eta)) M diag(sqrt(eta)) is symmetric by construction,
        # so its blocks take the symmetric branch without being compared with
        # their transposes, and the radius keeps its bytes.
        rng = np.random.default_rng(83)
        model = _random_symmetric(rng, 2 * _DENSE_CUTOFF)
        eta = Strategy(rng.random(model.n))
        r = np.sqrt(eta.values)
        want = spectral_radius(np.outer(r, r) * model.matrix)
        effective_re(model, eta)  # the model derives its balance once, here

        def refuse(*args, **kwargs):
            raise AssertionError("block compared with its transpose")

        monkeypatch.setattr(np, "array_equal", refuse)
        assert effective_re(model, eta) == want


def _balanced_draws():
    """Symmetrizable kernels that are not symmetric: random_convex_model of 4,
    8 and 12 groups, positive 2-group kernels and a rank-one kernel."""
    rng = np.random.default_rng(91)
    models = [random_convex_model(rng, n) for n in (4, 8, 12) for _ in range(4)]
    models += [MetapopModel(np.array([0.3, 0.7]), 0.1 + rng.random((2, 2)))
               for _ in range(8)]
    models.append(random_rank_one(rng, 30)[0])
    return rng, models


class TestBalancedRoute:
    """A K balanced to rounding, d_i K_ij = d_j K_ji, takes the symmetric
    eigensolver on diag(sqrt(eta)) M diag(sqrt(eta)), M = D^(1/2) K D^(-1/2),
    and must agree with general QR on K . diag(eta)."""

    def test_takes_no_general_solver(self, monkeypatch):
        rng, models = _balanced_draws()
        etas = [rng.random((3, m.n)) for m in models]

        def refuse(*args, **kwargs):
            raise AssertionError("general eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        monkeypatch.setattr(np.linalg, "eig", refuse)
        for model, rows in zip(models, etas):
            effective_re_batch(model, rows)
            for eta in rows:
                effective_re(model, Strategy(eta))
                re_gradient(model, Strategy(eta))

    def test_matches_the_general_route(self):
        rng, models = _balanced_draws()
        for model in models:
            k = model.matrix
            etas = rng.random((5, model.n))
            batch = effective_re_batch(model, etas)
            for eta, batched in zip(etas, batch):
                want = _general_radius(k, eta)
                assert effective_re(model, Strategy(eta)) == pytest.approx(want, rel=1e-12)
                assert batched == pytest.approx(want, rel=1e-12)
                grad = re_gradient(model, Strategy(eta))
                np.testing.assert_allclose(grad, _general_gradient(k, eta), rtol=1e-12)

    def test_near_miss_keeps_the_general_route(self, monkeypatch):
        k = np.array([[1.0, 2.0, 0.5], [4.0, 3.0, 1.0], [2.0, 2.0, 2.0]])
        k[0, 1] *= 1.0 + 1e-10  # balanced by d = (1, 0.5, 0.25) only to 1e-10
        model = MetapopModel(np.full(3, 1.0 / 3.0), k)
        balance = classify_convexity(model).symmetrization
        assert balance.symmetrizable and 1e-11 < balance.residual < 1e-9

        def refuse(*args, **kwargs):
            raise AssertionError("symmetric eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        eta = np.array([0.9, 0.4, 0.7])
        want = _general_radius(k, eta)
        assert effective_re(model, Strategy(eta)) == want
        assert effective_re_batch(model, eta[None, :])[0] == want
        np.testing.assert_allclose(
            re_gradient(model, Strategy(eta)), _general_gradient(k, eta), rtol=1e-12
        )
