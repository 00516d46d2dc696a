import warnings

import numpy as np
import pytest

from vaxfront import (
    MetapopModel,
    Strategy,
    ValidationError,
    classify,
    classify_convexity,
    effective_re,
    full_spectrum,
    inertia,
    probe_convexity,
    symmetrize,
    sylvester_check,
)
from vaxfront import fixtures
from vaxfront.acceptance import (
    random_concave_model,
    random_convex_model,
    random_rank_one,
)


class TestSymmetrize:
    def test_symmetric_matrix(self):
        result = symmetrize(fixtures.positive_definite_model())
        assert result.symmetrizable
        assert np.allclose(result.d, 1.0)
        assert np.allclose(result.symmetrized, fixtures.positive_definite_model().matrix)

    def test_two_by_two_balancing(self):
        model = MetapopModel(
            weights=np.array([0.5, 0.5]), matrix=np.array([[0.0, 2.0], [8.0, 0.0]])
        )
        result = symmetrize(model)
        assert result.symmetrizable
        assert np.allclose(result.d, [4.0, 1.0])
        assert np.allclose(result.symmetrized, [[0.0, 4.0], [4.0, 0.0]])
        rho = full_spectrum(result.symmetrized).radius
        assert rho == pytest.approx(4.0, abs=1e-10)

    def test_cycle_product_failure(self):
        result = symmetrize(fixtures.counterexample_positive_spectrum())
        assert not result.symmetrizable

    def test_balance_invariants(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            model = random_convex_model(rng, n)
            result = symmetrize(model)
            assert result.symmetrizable
            k = model.matrix
            balanced = result.d[:, None] * k
            assert np.abs(balanced - balanced.T).max() <= 1e-8 * np.abs(k).max()
            m = result.symmetrized
            assert np.abs(m - m.T).max() <= 1e-10 * max(1.0, np.abs(m).max())

    def test_asymmetric_support_rejected(self):
        model = MetapopModel(
            weights=np.array([0.5, 0.5]), matrix=np.array([[0.0, 1.0], [0.0, 0.0]])
        )
        assert not symmetrize(model).symmetrizable

    def test_isolated_groups_get_unit_d(self):
        k = np.zeros((3, 3))
        k[0, 1] = 2.0
        k[1, 0] = 8.0
        model = MetapopModel(weights=np.array([0.3, 0.3, 0.4]), matrix=k)
        result = symmetrize(model)
        assert result.symmetrizable
        assert result.d[2] == 1.0


def _reference_d(k):
    """The balancing search as a queue loop: the lowest unassigned group is
    the root, neighbours are visited in ascending order, and d is scaled to
    minimum 1 per support component."""
    n = k.shape[0]
    off_diag = (k > 0) & ~np.eye(n, dtype=bool)
    d = np.ones(n)
    assigned = np.zeros(n, dtype=bool)
    for root in range(n):
        if assigned[root]:
            continue
        assigned[root] = True
        component, queue = [root], [root]
        while queue:
            i = queue.pop(0)
            for j in np.nonzero(off_diag[i])[0]:
                if not assigned[j]:
                    d[j] = d[i] * k[i, j] / k[j, i]
                    assigned[j] = True
                    component.append(int(j))
                    queue.append(int(j))
        d[component] /= d[component].min()
    return d


def _symmetric_pattern_draw(rng, n):
    """A sparse symmetric support of several components, balanced by random
    column scales: K = S diag(l) with S symmetric."""
    s = rng.random((n, n)) * (rng.random((n, n)) < 0.15)
    s = np.triu(s) + np.triu(s, 1).T
    return MetapopModel(np.full(n, 1.0 / n), s * (0.5 + rng.random(n)))


class TestBalanceSearch:
    """The model's level-at-a-time search gives the queue loop's d, byte for
    byte."""

    def test_d_matches_the_queue_loop(self):
        rng = np.random.default_rng(43)
        models = [
            fixtures.cycle_model(),
            fixtures.positive_definite_model(),
            fixtures.counterexample_single_positive(),
            fixtures.two_block_model(),
        ]
        for n in (4, 8, 12):
            models += [random_convex_model(rng, n) for _ in range(5)]
            models += [random_concave_model(rng, n) for _ in range(5)]
        models += [MetapopModel(np.array([0.4, 0.6]), 0.1 + rng.random((2, 2)))
                   for _ in range(10)]
        models += [random_rank_one(rng, 30)[0]]
        models += [_symmetric_pattern_draw(rng, 30) for _ in range(10)]
        checked = 0
        for model in models:
            result = symmetrize(model)
            if result.symmetrizable:
                assert result.d.tobytes() == _reference_d(model.matrix).tobytes()
                checked += 1
        assert checked == len(models) - 1  # two_block_model has a one-way edge

    def test_extreme_entries_are_not_balanced_by_overflow(self):
        k = np.array([[0.0, 1e-300, 0.0], [1e300, 0.0, 1e-300], [0.0, 1e300, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = symmetrize(MetapopModel(np.full(3, 1.0 / 3.0), k))
        assert not result.symmetrizable


class TestClassifyConvexity:
    def test_positive_definite_is_convex(self):
        verdict = classify_convexity(fixtures.positive_definite_model())
        assert verdict.verdict == "Convex"
        assert verdict.reason == "SymmetrizablePSD"
        assert verdict.inertia == (3, 0)

    def test_rank_one_is_linear(self):
        rng = np.random.default_rng(32)
        model, _, _ = random_rank_one(rng, 5)
        verdict = classify_convexity(model)
        assert verdict.verdict == "Linear"
        assert verdict.reason == "ConfigurationRankOne"

    def test_counterexample_not_symmetrizable(self):
        verdict = classify_convexity(fixtures.counterexample_positive_spectrum())
        assert verdict.verdict == "Indeterminate"
        assert verdict.reason == "NotSymmetrizable"

    def test_generated_concave(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            verdict = classify_convexity(random_concave_model(rng, int(rng.integers(2, 7))))
            assert verdict.verdict == "Concave"
            assert verdict.reason == "SymmetrizableSingleP"

    def test_mixed_inertia_indeterminate(self):
        # The even cycle is symmetric with spectrum 2cos(2 pi k / n): both signs.
        verdict = classify_convexity(fixtures.cycle_model())
        assert verdict.verdict == "Indeterminate"
        assert verdict.reason == "MixedInertia"


class TestProbeConvexity:
    def test_saddle_counterexamples(self):
        for model in (
            fixtures.counterexample_positive_spectrum(),
            fixtures.counterexample_single_positive(),
        ):
            verdict = probe_convexity(model, trials=3000, seed=0)
            assert verdict.verdict == "Indeterminate"
            assert verdict.convexity_violation is not None
            assert verdict.convexity_violation.gap > 1e-4
            assert verdict.concavity_violation is not None
            assert verdict.concavity_violation.gap < -1e-4

    def test_witness_is_reproducible(self):
        model = fixtures.counterexample_positive_spectrum()
        first = probe_convexity(model, trials=500, seed=7)
        second = probe_convexity(model, trials=500, seed=7)
        assert first.convexity_violation.gap == second.convexity_violation.gap
        assert np.array_equal(
            first.convexity_violation.eta0, second.convexity_violation.eta0
        )

    def test_witness_certifies_gap(self):
        model = fixtures.counterexample_single_positive()
        verdict = probe_convexity(model, trials=2000, seed=3)
        for witness, sign in (
            (verdict.convexity_violation, 1.0),
            (verdict.concavity_violation, -1.0),
        ):
            mid = witness.t * witness.eta0 + (1.0 - witness.t) * witness.eta1
            chord = witness.t * effective_re(model, Strategy(witness.eta0)) + (
                1.0 - witness.t
            ) * effective_re(model, Strategy(witness.eta1))
            gap = effective_re(model, Strategy(mid)) - chord
            assert gap == pytest.approx(witness.gap, abs=1e-9)
            assert sign * gap > 1e-6

    def test_scalar_is_linear(self):
        model = MetapopModel(weights=np.array([1.0]), matrix=np.array([[3.0]]))
        verdict = probe_convexity(model, trials=500, seed=0)
        assert verdict.verdict == "Linear"

    def test_concave_model_probe(self):
        model = random_concave_model(np.random.default_rng(34), 5)
        verdict = probe_convexity(model, trials=500, seed=1)
        assert verdict.verdict == "Concave"
        assert verdict.concavity_violation is None
        assert verdict.convexity_violation.gap > 1e-6

    def test_convex_model_probe_consistent(self):
        rng = np.random.default_rng(34)
        model = random_convex_model(rng, 5)
        verdict = probe_convexity(model, trials=2000, seed=1)
        assert verdict.verdict in ("Convex", "Linear")
        assert verdict.convexity_violation is None


class TestSylvester:
    def test_two_by_two(self):
        report = sylvester_check(
            np.diag([1.0, -1.0]), np.array([2.0, 3.0]), np.array([2.0, 3.0])
        )
        assert report.base == (1, 1)
        assert report.scaled == (1, 1)
        assert report.equal

    def test_identity(self):
        rng = np.random.default_rng(35)
        f = 0.5 + rng.random(3)
        g = 0.5 + rng.random(3)
        report = sylvester_check(np.eye(3), f, g)
        assert report.base == (3, 0)
        assert report.scaled == (3, 0)

    def test_random_suite(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            base = rng.normal(size=(n, n))
            t = 0.5 * (base + base.T)
            f = np.exp(rng.uniform(-1.5, 1.5, n))
            g = np.exp(rng.uniform(-1.5, 1.5, n))
            assert sylvester_check(t, f, g).equal

    def test_validates_inputs(self):
        for t, f, g in (
            (np.array([[0.0, 1.0], [2.0, 0.0]]), np.ones(2), np.ones(2)),
            (np.eye(2), np.array([1.0, 1e7]), np.ones(2)),
            (np.ones((2, 3)), np.ones(2), np.ones(2)),  # T not square
            (np.eye(2), np.ones(3), np.ones(2)),  # f of the wrong length
            (np.eye(2), np.ones(2), np.ones((2, 1))),  # g not a vector
        ):
            with pytest.raises(ValidationError):
                sylvester_check(t, f, g)


class TestTheoremCertificates:
    def test_convex_midpoint(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            model = random_convex_model(rng, n)
            assert classify_convexity(model).verdict in ("Convex", "Linear")
            eta0 = rng.random((20, n))
            eta1 = rng.random((20, n))
            for k in range(20):
                mid = 0.5 * (eta0[k] + eta1[k])
                gap = effective_re(model, Strategy(mid)) - 0.5 * (
                    effective_re(model, Strategy(eta0[k]))
                    + effective_re(model, Strategy(eta1[k]))
                )
                assert gap <= 1e-9

    def test_concave_midpoint_and_monatomic(self):
        rng = np.random.default_rng(38)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            model = random_concave_model(rng, n)
            assert classify(model).monatomic
            eta0 = rng.random((20, n))
            eta1 = rng.random((20, n))
            for k in range(20):
                mid = 0.5 * (eta0[k] + eta1[k])
                gap = effective_re(model, Strategy(mid)) - 0.5 * (
                    effective_re(model, Strategy(eta0[k]))
                    + effective_re(model, Strategy(eta1[k]))
                )
                assert gap >= -1e-9

    def test_symmetrization_preserves_spectrum(self):
        rng = np.random.default_rng(39)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            model = random_convex_model(rng, n)
            result = symmetrize(model)
            original = full_spectrum(model.matrix)
            balanced = full_spectrum(result.symmetrized)
            tol = 1e-8 * max(1.0, original.radius)
            for lam in original.values:
                assert np.abs(balanced.values - lam).min() <= 100 * tol

    def test_inertia_matches_between_k_and_m(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            model = random_concave_model(rng, int(rng.integers(2, 7)))
            result = symmetrize(model)
            assert inertia(0.5 * (result.symmetrized + result.symmetrized.T)) == inertia(
                model.matrix
            )
