import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxfront import (
    CostFunction,
    DimensionMismatch,
    GridKernelSpec,
    MetapopModel,
    ParseError,
    Strategy,
    ValidationError,
    c_max,
    cost,
    double_norm,
    effective_re,
    grid_to_model,
    load_grid,
    load_model,
    save_model,
)
from vaxfront import fixtures
from vaxfront.model import _pin_weight_sum

UNIFORM = CostFunction.uniform()


def write_model(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoadModel:
    def test_cycle_file(self, tmp_path):
        path = tmp_path / "cycle.json"
        save_model(fixtures.cycle_model(), str(path))
        model = load_model(str(path))
        assert model.n == 12
        assert np.array_equal(model.matrix, fixtures.cycle_model().matrix)

    def test_degenerate_single_group(self, tmp_path):
        path = write_model(tmp_path, "one.json", {"n": 1, "weights": [1.0], "matrix": [[0.0]]})
        model = load_model(path)
        assert model.n == 1
        assert model.matrix[0, 0] == 0.0

    def test_negative_entry_rejected(self, tmp_path):
        path = write_model(
            tmp_path,
            "neg.json",
            {"n": 2, "weights": [0.5, 0.5], "matrix": [[0.0, -1.0], [1.0, 0.0]]},
        )
        with pytest.raises(ValidationError):
            load_model(path)

    def test_weight_sum_tolerance(self, tmp_path):
        ok = write_model(
            tmp_path,
            "ok.json",
            {"n": 2, "weights": [0.5, 0.5 + 5e-10], "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        )
        model = load_model(ok)
        assert abs(math.fsum(model.weights.tolist()) - 1.0) <= 1e-15
        bad = write_model(
            tmp_path,
            "bad.json",
            {"n": 2, "weights": [0.5, 0.5 + 5e-9], "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        )
        with pytest.raises(ValidationError):
            load_model(bad)

    def test_dimension_mismatch(self, tmp_path):
        path = write_model(
            tmp_path, "dim.json", {"n": 3, "weights": [0.5, 0.5], "matrix": [[1.0]]}
        )
        with pytest.raises(ValidationError):
            load_model(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_model(str(path))

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"n": 1, "weights": [1.0], "matrix": [[NaN]]}')
        with pytest.raises(ParseError):
            load_model(str(path))

    @pytest.mark.parametrize(
        "field, value",
        [("labels", 5), ("labels", "ab"), ("labels", ["a", 2]), ("n", 2.9), ("n", "2"),
         ("n", True), ("n", 2.0), ("weights", ["a", 0.5])],
    )
    def test_strict_fields(self, tmp_path, field, value):
        doc = {"n": 2, "weights": [0.5, 0.5], "matrix": [[0.0, 1.0], [1.0, 0.0]]}
        doc[field] = value
        with pytest.raises(ParseError):
            load_model(write_model(tmp_path, "strict.json", doc))

    @pytest.mark.parametrize("text, error", [
        (None, ParseError),
        ("[1.0]", ParseError),
        ('{"weights": [1.0], "matrix": [[1.0]]}', ParseError),
        ('{"n": 2, "weights": [0.5, 0.5], "matrix": [[1.0]]}', ValidationError),
        ('{"n": 2, "weights": [1.5, -0.5], "matrix": [[1, 0], [0, 1]]}', ValidationError),
    ], ids=["no-file", "not-an-object", "no-n", "matrix-shape", "negative-weight"])
    def test_refused_files(self, tmp_path, text, error):
        path = tmp_path / "model.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(error):
            load_model(str(path))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(1, 5))
    def test_round_trip_property(self, tmp_path_factory, data, n):
        floats = st.floats(0.0, 1e3, allow_subnormal=True)
        weights = _pin_weight_sum(
            np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
        )
        matrix = np.array(data.draw(st.lists(floats, min_size=n * n, max_size=n * n)))
        labels = tuple(data.draw(st.lists(st.text(max_size=6), min_size=n, max_size=n)))
        model = MetapopModel(weights=weights, matrix=matrix.reshape(n, n), labels=labels)
        path = tmp_path_factory.getbasetemp() / "round_trip.json"
        save_model(model, str(path))
        again = load_model(str(path))
        assert again.weights.tobytes() == model.weights.tobytes()
        assert again.matrix.tobytes() == model.matrix.tobytes()
        assert again.labels == labels

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = int(rng.integers(1, 7))
            w = 0.3 + rng.random(n)
            w /= math.fsum(w.tolist())
            doc = {
                "n": n,
                "weights": list(w),
                "matrix": [[float(x) for x in row] for row in rng.random((n, n))],
            }
            first = load_model(write_model(tmp_path, f"m{trial}.json", doc))
            path = tmp_path / f"rt{trial}.json"
            save_model(first, str(path))
            second = load_model(str(path))
            assert np.array_equal(first.weights, second.weights)
            assert np.array_equal(first.matrix, second.matrix)


class TestGrid:
    def test_constant_kernel(self):
        spec = GridKernelSpec(grid_points=4, samples=np.ones((4, 4)))
        model = grid_to_model(spec)
        assert np.allclose(model.matrix, 0.25)
        assert np.allclose(model.weights, 0.25)

    def test_scalar_grid(self):
        model = grid_to_model(GridKernelSpec(grid_points=1, samples=np.array([[5.0]])))
        assert model.matrix[0, 0] == 5.0
        assert effective_re(model, Strategy.ones(1)) == pytest.approx(5.0, abs=1e-12)

    def test_rank_one_kernel_converges(self):
        # Analytic radius of the kernel 6xy on [0,1]^2 is the integral of
        # 6x^2, i.e. 2; midpoint sampling converges at second order.
        previous = None
        for m in (25, 50, 100, 200):
            centers = (np.arange(m) + 0.5) / m
            model = grid_to_model(
                GridKernelSpec(grid_points=m, samples=6.0 * np.outer(centers, centers))
            )
            err = abs(effective_re(model, Strategy.ones(m)) - 2.0)
            assert err <= 10.0 / m
            if previous is not None:
                assert err < previous
            previous = err

    @pytest.mark.parametrize("value", [2.9, "2", True, 2.0])
    def test_strict_grid_points(self, tmp_path, value):
        path = write_model(
            tmp_path, "grid.json", {"grid_points": value, "samples": [[1.0] * 2] * 2}
        )
        with pytest.raises(ParseError):
            load_grid(path)

    @pytest.mark.parametrize("doc, error", [
        ({"grid_points": 2}, ParseError),
        ({"grid_points": 2, "samples": [[1.0, "a"], [1.0, 1.0]]}, ParseError),
        ({"grid_points": 2, "samples": [[1.0, 1.0]]}, ValidationError),
    ], ids=["no-samples", "malformed-samples", "samples-shape"])
    def test_refused_grid_files(self, tmp_path, doc, error):
        with pytest.raises(error):
            load_grid(write_model(tmp_path, "grid.json", doc))

    def test_grid_file(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"grid_points": 2, "samples": [[1.0, 2.0], [3.0, 4.0]]}))
        spec = load_grid(str(path))
        assert spec.grid_points == 2
        with pytest.raises(ValidationError):
            GridKernelSpec(grid_points=2, samples=np.array([[1.0, -2.0], [3.0, 4.0]]))


class TestStrictConstruction:
    """Library callers get the checks the file loaders make."""

    @pytest.mark.parametrize(
        "labels", ["ab", (1, None), 5, ("a", b"b")], ids=["string", "non-strings", "int", "bytes"]
    )
    def test_labels_refused(self, labels):
        with pytest.raises(ValidationError):
            MetapopModel(weights=np.array([0.5, 0.5]), matrix=np.ones((2, 2)), labels=labels)

    def test_label_list_kept(self):
        model = MetapopModel(
            weights=np.array([0.5, 0.5]), matrix=np.ones((2, 2)), labels=["a", "b"]
        )
        assert model.labels == ("a", "b")

    @pytest.mark.parametrize("value, size", [(2.9, 2), (True, 1), ("2", 2), (2.0, 2)])
    def test_grid_points_refused(self, value, size):
        with pytest.raises(ValidationError):
            GridKernelSpec(grid_points=value, samples=np.ones((size, size)))

    @pytest.mark.parametrize("build, error", [
        (lambda: MetapopModel(np.array([]), np.zeros((0, 0))), ValidationError),
        (lambda: MetapopModel(np.array([0.5, 0.5]), np.ones((2, 3))), ValidationError),
        (lambda: MetapopModel(np.array([0.5, 0.5]), np.ones((3, 3))), ValidationError),
        (lambda: MetapopModel(np.array([1.5, -0.5]), np.ones((2, 2))), ValidationError),
        (lambda: MetapopModel(np.array([0.5, 0.6]), np.ones((2, 2))), ValidationError),
        (lambda: MetapopModel(np.array([0.5, 0.5]), np.ones((2, 2)), labels=("a",)),
         ValidationError),
        (lambda: fixtures.cycle_model().effective_matrix(Strategy.ones(3)),
         DimensionMismatch),
        (lambda: Strategy(np.array([])), ValidationError),
        (lambda: CostFunction("quadratic"), ValidationError),
        (lambda: CostFunction("uniform", np.ones(2)), ValidationError),
        (lambda: CostFunction.affine([]), ValidationError),
        (lambda: CostFunction.affine([1.0, 2.0]).coefficient_vector(3), DimensionMismatch),
        (lambda: GridKernelSpec(grid_points=2, samples=np.ones((2, 3))), ValidationError),
    ], ids=["no-weights", "matrix-not-square", "matrix-size", "negative-weight",
            "weight-sum", "labels-length", "strategy-length", "empty-strategy",
            "cost-kind", "uniform-coefficients", "no-coefficients",
            "coefficient-count", "samples-shape"])
    def test_refused(self, build, error):
        with pytest.raises(error):
            build()

    def test_numpy_grid_points_accepted(self):
        spec = GridKernelSpec(grid_points=np.int64(2), samples=np.ones((2, 2)))
        assert spec.grid_points == 2 and type(spec.grid_points) is int


class TestCost:
    def test_cycle_one_in_four(self):
        value = cost(UNIFORM, fixtures.cycle_model(), fixtures.one_in_four_strategy())
        assert value == 0.25

    def test_doing_nothing_costs_nothing(self):
        model = fixtures.cycle_model()
        assert cost(UNIFORM, model, Strategy.ones(12)) == 0.0

    def test_two_group_sum(self):
        model = MetapopModel(weights=np.array([0.3, 0.7]), matrix=np.ones((2, 2)))
        assert cost(UNIFORM, model, Strategy(np.array([0.0, 1.0]))) == pytest.approx(
            0.3, abs=1e-15
        )

    def test_affine_requires_positive_coefficients(self):
        with pytest.raises(ValidationError):
            CostFunction.affine([1.0, 0.0])
        with pytest.raises(ValidationError):
            CostFunction.affine([1.0, -2.0])

    def test_cost_affine_decreasing(self):
        rng = np.random.default_rng(1)
        model = MetapopModel(
            weights=np.array([0.25, 0.25, 0.5]), matrix=rng.random((3, 3))
        )
        fn = CostFunction.affine([2.0, 1.0, 0.5])
        eta = Strategy(np.array([0.5, 0.5, 0.5]))
        more = Strategy(np.array([0.5, 0.4, 0.5]))
        assert cost(fn, model, more) > cost(fn, model, eta)
        assert cost(fn, model, Strategy.ones(3)) == 0.0
        assert cost(fn, model, Strategy.zeros(3)) == pytest.approx(
            c_max(fn, model), abs=1e-15
        )


class TestDoubleNorm:
    def test_scalar(self):
        model = MetapopModel(weights=np.array([1.0]), matrix=np.array([[5.0]]))
        assert double_norm(model, 2.0) == pytest.approx(5.0, abs=1e-12)

    def test_two_group_hand_evaluation(self):
        # k_d has entries 2 off-diagonal; the double sum evaluates to
        # (sum_i mu_i * (2^2 * 1/2))^(1/2) = sqrt(2).
        model = MetapopModel(
            weights=np.array([0.5, 0.5]), matrix=np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        assert double_norm(model, 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_constant_kernel_closed_form(self):
        for c in (0.5, 1.0, 3.0):
            spec = GridKernelSpec(grid_points=5, samples=np.full((5, 5), c))
            model = grid_to_model(spec)
            for p in (1.5, 2.0, 3.0):
                assert double_norm(model, p) == pytest.approx(c, rel=1e-12)

    def test_p_must_exceed_one(self):
        model = MetapopModel(weights=np.array([1.0]), matrix=np.array([[1.0]]))
        for p in (1.0, math.inf):
            with pytest.raises(ValidationError):
                double_norm(model, p)

    def test_operator_norm_bound(self):
        # R_0 <= ||k|| for every p; large p must not underflow the outer sum.
        rng = np.random.default_rng(2)
        models = [fixtures.cycle_model()]
        for _ in range(25):
            n = int(rng.integers(1, 6))
            w = 0.2 + rng.random(n)
            w /= math.fsum(w.tolist())
            models.append(MetapopModel(weights=w, matrix=rng.random((n, n))))
        for model in models:
            r0 = effective_re(model, Strategy.ones(model.n))
            for p in (1.5, 2.0, 10.0, 100.0, 420.0, 1e3, 1e4):
                assert r0 <= double_norm(model, p) * (1.0 + 1e-12) + 1e-12


class TestStrategy:
    def test_constructors(self):
        assert np.all(Strategy.ones(3).values == 1.0)
        assert np.all(Strategy.zeros(3).values == 0.0)
        ind = Strategy.indicator(4, (0, 2))
        assert list(ind.values) == [1.0, 0.0, 1.0, 0.0]

    @pytest.mark.parametrize("kept", [[-1], [3], [0.5], [1.0], [True]],
                             ids=["negative", "past-the-end", "fraction", "float", "bool"])
    def test_indicator_rejects_bad_indices(self, kept):
        with pytest.raises(ValidationError):
            Strategy.indicator(3, kept)

    def test_indicator_takes_any_integer_sequence(self):
        for kept in (range(1, 3), np.array([1, 2]), [np.int32(2), 1, 1]):
            assert list(Strategy.indicator(3, kept).values) == [0.0, 1.0, 1.0]

    def test_range_validation(self):
        for values, message in (
            ([0.5, 1.2], "must lie in"), ([-0.1, 0.5], "must lie in"),
            ([0.5, math.nan], "NaN or infinite"), ([math.inf, 0.5], "NaN or infinite"),
            ([0.5, -math.inf], "NaN or infinite"),
        ):
            with pytest.raises(ValidationError, match=message):
                Strategy(np.array(values))

    def test_immutable(self):
        eta = Strategy.ones(3)
        with pytest.raises(ValueError):
            eta.values[0] = 0.5


class TestCostAffinity:
    def test_cost_is_affine_in_eta(self):
        rng = np.random.default_rng(60)
        model = MetapopModel(
            weights=np.array([0.2, 0.3, 0.5]), matrix=rng.random((3, 3))
        )
        fn = CostFunction.affine([1.5, 0.7, 2.0])
        for _ in range(20):
            eta0 = rng.random(3)
            eta1 = rng.random(3)
            lam = rng.random()
            mixed = cost(fn, model, Strategy(lam * eta0 + (1 - lam) * eta1))
            split = lam * cost(fn, model, Strategy(eta0)) + (1 - lam) * cost(
                fn, model, Strategy(eta1)
            )
            assert mixed == pytest.approx(split, abs=1e-14)

    def test_grid_spec_weights(self):
        spec = GridKernelSpec(grid_points=4, samples=np.ones((4, 4)))
        assert np.allclose(spec.weights(), 0.25)


class TestDoubleNormRobustness:
    def test_p_close_to_one_does_not_overflow(self):
        model = MetapopModel(
            weights=np.array([0.5, 0.5]),
            matrix=np.array([[40.0, 10.0], [10.0, 40.0]]),
        )
        value = double_norm(model, 1.01)
        assert np.isfinite(value)
        # For q -> infinity the inner integral tends to the row essential
        # sup of k_d, here 80 on both rows, and the outer p-mean of a
        # constant is that constant.
        assert value == pytest.approx(80.0, rel=0.05)

    def test_zero_kernel(self):
        model = MetapopModel(weights=np.array([0.5, 0.5]), matrix=np.zeros((2, 2)))
        assert double_norm(model, 2.0) == 0.0

    def test_labels_round_trip(self, tmp_path):
        model = MetapopModel(
            weights=np.array([0.5, 0.5]),
            matrix=np.eye(2),
            labels=("children", "adults"),
        )
        path = tmp_path / "labelled.json"
        save_model(model, str(path))
        again = load_model(str(path))
        assert again.labels == ("children", "adults")
