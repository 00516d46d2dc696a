import math

import numpy as np
import pytest

from vaxfront import (
    CostFunction,
    MetapopModel,
    NotDisconnecting,
    Strategy,
    c_max,
    classify,
    cordon_improvement,
    cost,
    effective_re,
    frobenius_decompose,
    full_spectrum,
    has_symmetric_support,
    is_disconnecting,
    is_invariant,
    spectral_radius,
    support_digraph,
)
from vaxfront import ValidationError, eradication_cost, fixtures, spectral, structure
from vaxfront.acceptance import random_block_upper_model, random_model

UNIFORM = CostFunction.uniform()


def model_of(matrix):
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    weights = np.full(n, 1.0 / n)
    weights[-1] += 1.0 - math.fsum(weights.tolist())
    return MetapopModel(weights=weights, matrix=matrix)


class TestSupportDigraph:
    def test_cycle_edges_both_directions(self):
        successors = support_digraph(fixtures.cycle_model())
        for j in range(12):
            assert set(successors[j]) == {(j - 1) % 12, (j + 1) % 12}

    def test_zero_matrix_empty(self):
        successors = support_digraph(model_of(np.zeros((3, 3))))
        assert all(len(s) == 0 for s in successors)

    def test_single_arrow(self):
        # K[1,0] > 0 means group 1 infects group 2 (j=0 -> i=1).
        successors = support_digraph(model_of([[0.0, 0.0], [1.0, 0.0]]))
        assert successors[0] == (1,)
        assert successors[1] == ()


class TestIsInvariant:
    def test_block_lower_triangular(self):
        model = model_of([[1.0, 0.0], [1.0, 2.0]])
        assert not is_invariant(model, [0])
        assert is_invariant(model, [1])

    def test_trivial_sets(self):
        model = model_of(np.ones((3, 3)))
        assert is_invariant(model, [])
        assert is_invariant(model, [0, 1, 2])

    @pytest.mark.parametrize("subset", [[-1], [0, 3]])
    def test_indices_out_of_range(self, subset):
        with pytest.raises(ValidationError):
            is_invariant(model_of(np.ones((3, 3))), subset)

    @pytest.mark.parametrize("subset", [[1.9], [True], [1.0], [np.float64(1.0)]],
                             ids=["fraction", "bool", "float", "numpy-float"])
    def test_indices_must_be_integers(self, subset):
        # Group 1 alone is invariant here; a misread index would test it.
        model = model_of([[1.0, 0.0], [1.0, 2.0]])
        with pytest.raises(ValidationError):
            is_invariant(model, subset)

    def test_numpy_integer_indices(self):
        model = model_of([[1.0, 0.0], [1.0, 2.0]])
        assert is_invariant(model, np.array([1]))
        assert not is_invariant(model, [np.int64(0)])

    def test_cycle_arc_not_invariant(self):
        assert not is_invariant(fixtures.cycle_model(), [0, 1, 2])


class TestFrobeniusDecomposition:
    def test_irreducible_positive(self):
        decomp = frobenius_decompose(model_of(np.ones((3, 3))))
        assert decomp.atoms == ((0, 1, 2),)
        assert decomp.remainder == ()
        assert decomp.order == (0,)

    def test_two_atom_triangular(self):
        decomp = frobenius_decompose(model_of([[1.0, 0.0], [1.0, 2.0]]))
        assert decomp.atoms == ((0,), (1,))
        assert decomp.atom_radii == (1.0, 2.0)
        # Atom {1} precedes atom {0}: group 0 infects group 1, so the
        # infected side must come first.
        assert decomp.order == (1, 0)

    def test_nilpotent_all_remainder(self):
        decomp = frobenius_decompose(model_of(np.triu(np.ones((3, 3)), k=1)))
        assert decomp.atoms == ()
        assert decomp.remainder == (0, 1, 2)

    def test_precedence_invariant(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            model, _ = random_block_upper_model(rng)
            decomp = frobenius_decompose(model)
            k = model.matrix
            for a, pos_i in enumerate(decomp.order):
                for pos_j in decomp.order[:a]:
                    rows = list(decomp.atoms[pos_i])
                    cols = list(decomp.atoms[pos_j])
                    assert not np.any(k[np.ix_(rows, cols)] > 0)

    def test_atom_radii_positive_and_remainder_nilpotent(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            model = random_model(rng, int(rng.integers(2, 9)), density=0.3)
            decomp = frobenius_decompose(model)
            for radius in decomp.atom_radii:
                assert radius > 0
            if decomp.remainder:
                rows = list(decomp.remainder)
                sub = model.matrix[np.ix_(rows, rows)]
                assert spectral_radius(sub) == 0.0
            members = [v for atom in decomp.atoms for v in atom]
            members += list(decomp.remainder)
            assert sorted(members) == list(range(model.n))


class TestClassify:
    def test_cycle_irreducible(self):
        result = classify(fixtures.cycle_model())
        assert result.irreducible
        assert result.quasi_irreducible
        assert result.monatomic
        assert result.atom == tuple(range(12))
        assert result.infected == ()

    def test_two_isolated_loops(self):
        result = classify(model_of(np.eye(2)))
        assert not result.monatomic
        assert result.atom is None

    def test_monatomic_with_infected(self):
        result = classify(model_of([[1.0, 0.0], [1.0, 0.0]]))
        assert result.monatomic
        assert not result.quasi_irreducible
        assert not result.irreducible
        assert result.atom == (0,)
        assert result.infected == (1,)

    def test_implication_chain(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            model = random_model(rng, n, density=float(rng.random()))
            result = classify(model)
            if result.irreducible:
                assert result.quasi_irreducible
            if result.quasi_irreducible:
                assert result.monatomic


class TestIsDisconnecting:
    def test_one_in_four(self):
        assert is_disconnecting(fixtures.cycle_model(), fixtures.one_in_four_strategy())

    def test_positive_kernel_never_disconnects(self):
        model = model_of(np.ones((3, 3)))
        rng = np.random.default_rng(24)
        for _ in range(20):
            eta = rng.random(3) * (rng.random(3) < 0.7)
            if np.all(eta == 0):
                continue
            assert not is_disconnecting(model, Strategy(eta))

    def test_zero_strategy_is_not_disconnecting(self):
        assert not is_disconnecting(fixtures.cycle_model(), Strategy.zeros(12))

    def test_all_ones_on_reducible(self):
        assert is_disconnecting(fixtures.two_block_model(), Strategy.ones(2))


class TestCordonImprovement:
    def test_cycle_one_in_four(self):
        model = fixtures.cycle_model()
        improved, cert = cordon_improvement(
            model, fixtures.one_in_four_strategy(), UNIFORM
        )
        assert cert.cost_before == 0.25
        assert cert.cost_after == 0.5
        assert cert.re_before == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert abs(cert.re_after - cert.re_before) <= 1e-10 * 2.0
        # One additional 3-node path is fully vaccinated.
        assert len(cert.zeroed) == 3

    def test_two_block_keeps_heavier_block(self):
        model = fixtures.two_block_model()
        improved, cert = cordon_improvement(model, Strategy.ones(2), UNIFORM)
        assert list(improved.values) == [1.0, 0.0]
        assert cert.re_after == pytest.approx(3.0, abs=1e-12)
        assert cert.cost_after == pytest.approx(0.5, abs=1e-15)

    def test_requires_disconnecting(self):
        model = model_of(np.ones((3, 3)))
        with pytest.raises(NotDisconnecting):
            cordon_improvement(model, Strategy.ones(3), UNIFORM)

    def test_certificate_property(self):
        rng = np.random.default_rng(25)
        tested = 0
        while tested < 50:
            model, _ = random_block_upper_model(rng)
            eta = Strategy(0.2 + 0.8 * rng.random(model.n))
            if not is_disconnecting(model, eta):
                continue
            r0 = effective_re(model, Strategy.ones(model.n))
            improved, cert = cordon_improvement(model, eta, UNIFORM)
            assert cert.cost_after > cert.cost_before
            assert abs(cert.re_after - cert.re_before) <= 1e-10 * max(1.0, r0)
            assert cost(UNIFORM, model, improved) == cert.cost_after
            tested += 1


class TestBlockLaws:
    def test_block_max_law(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            model, blocks = random_block_upper_model(rng)
            r0 = effective_re(model, Strategy.ones(model.n))
            eta = rng.random(model.n)
            whole = effective_re(model, Strategy(eta))
            per_block = max(
                spectral_radius(model.matrix[lo:hi, lo:hi] * eta[None, lo:hi])
                for lo, hi in blocks
            )
            assert abs(whole - per_block) <= 1e-9 * max(1.0, r0)

    def test_disjoint_union_law(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            n_a = int(rng.integers(1, 4))
            n_b = int(rng.integers(1, 4))
            n = n_a + n_b
            k = np.zeros((n, n))
            k[:n_a, :n_a] = rng.random((n_a, n_a))
            k[n_a:, n_a:] = rng.random((n_b, n_b))
            k[:n_a, n_a:] = rng.random((n_a, n_b))  # B infects A, allowed
            model = model_of(k)
            part_a = Strategy.indicator(n, range(n_a))
            part_b = Strategy.indicator(n, range(n_a, n))
            both = effective_re(model, Strategy.ones(n))
            expected = max(
                effective_re(model, part_a), effective_re(model, part_b)
            )
            assert abs(both - expected) <= 1e-9 * max(1.0, both)

    def test_multiplicity_additivity(self):
        rng = np.random.default_rng(28)
        for _ in range(60):
            model, _ = random_block_upper_model(rng)
            decomp = frobenius_decompose(model)
            rho = max(decomp.atom_radii) if decomp.atom_radii else 0.0
            full = full_spectrum(model.matrix)
            parts = []
            for atom in decomp.atoms:
                rows = list(atom)
                parts.extend(full_spectrum(model.matrix[np.ix_(rows, rows)]).values)
            parts = np.array(parts + [0.0] * (model.n - len(parts)))
            tol = 1e-8 * max(1.0, rho)
            for centre, mult in full.clusters:
                if abs(centre) <= 1e-6 * max(rho, 1.0):
                    continue
                near = int(np.sum(np.abs(parts - centre) <= 100 * tol))
                assert near == mult

    def test_spectrum_preserved_by_block_restriction(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            model, _ = random_block_upper_model(rng)
            decomp = frobenius_decompose(model)
            tilde = np.zeros_like(model.matrix)
            for atom in decomp.atoms:
                rows = list(atom)
                tilde[np.ix_(rows, rows)] = model.matrix[np.ix_(rows, rows)]
            full = full_spectrum(model.matrix)
            restricted = full_spectrum(tilde)
            rho = full.radius
            keep = np.abs(full.values) > 1e-6 * max(1.0, rho)
            for lam in full.values[keep]:
                assert np.abs(restricted.values - lam).min() <= 1e-6 * max(1.0, rho)


class TestDecompositionOnGeneralSparseMatrices:
    def test_order_invariant_and_partition(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            density = 0.1 + 0.4 * rng.random()
            model = random_model(rng, n, density=density)
            decomp = frobenius_decompose(model)
            members = sorted(
                [v for atom in decomp.atoms for v in atom] + list(decomp.remainder)
            )
            assert members == list(range(n))
            assert sorted(decomp.order) == list(range(len(decomp.atoms)))
            k = model.matrix
            for a, pos_i in enumerate(decomp.order):
                for pos_j in decomp.order[:a]:
                    rows = list(decomp.atoms[pos_i])
                    cols = list(decomp.atoms[pos_j])
                    assert not np.any(k[np.ix_(rows, cols)] > 0), (
                        "an earlier atom infects a later one"
                    )

    def test_atoms_are_irreducible(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(2, 10))
            model = random_model(rng, n, density=0.25)
            decomp = frobenius_decompose(model)
            for atom in decomp.atoms:
                rows = list(atom)
                sub = model.matrix[np.ix_(rows, rows)]
                sub_model = MetapopModel(
                    weights=np.full(len(rows), 1.0 / len(rows)),
                    matrix=sub,
                )
                assert classify(sub_model).irreducible


def _closure(above):
    """Reflexive transitive closure of a boolean adjacency matrix."""
    reach = above | np.eye(above.shape[0], dtype=bool)
    while True:
        wider = reach | (reach.astype(int) @ reach.astype(int) > 0)
        if np.array_equal(wider, reach):
            return reach
        reach = wider


def _reference_flags(k, threshold):
    """Classification flags by transitive closure: irreducibility of the
    whole support and of the live groups, and the atom count."""

    def irreducible(sub):
        if sub.shape[0] == 0:
            return False
        return bool(_closure(sub > threshold).all()) and (
            sub.shape[0] > 1 or sub[0, 0] > threshold
        )

    live = np.where((k.sum(axis=0) + k.sum(axis=1)) > threshold)[0]
    reach = _closure(k > threshold)
    mutual = reach & reach.T
    components = {tuple(np.nonzero(row)[0]) for row in mutual}
    atoms = [c for c in components if len(c) > 1 or k[c[0], c[0]] > threshold]
    return [irreducible(k), irreducible(k[np.ix_(live, live)]), len(atoms) == 1]


class TestRadiusFreeStructure:
    @pytest.fixture()
    def no_radius(self, monkeypatch):
        def refuse(block):
            raise AssertionError("a spectral radius was computed")

        monkeypatch.setattr(spectral, "_block_radius", refuse)
        monkeypatch.setattr(structure, "_block_radius", refuse)

    def test_classify_flags_at_positive_thresholds(self, no_radius):
        rng = np.random.default_rng(32)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            k = rng.random((n, n)) * (rng.random((n, n)) < rng.random())
            threshold = float(rng.choice([0.0, 0.2, 0.5]))
            result = classify(model_of(k), threshold)
            flags = [result.irreducible, result.quasi_irreducible, result.monatomic]
            assert flags == _reference_flags(k, threshold)

    def test_live_group_without_an_edge(self, no_radius):
        # Group 1 is live by its row and column sums (0.4 > 0.3), but no
        # single entry of it is above the threshold.
        k = np.array([[0.5, 0.2], [0.2, 0.0]])
        result = classify(model_of(k), 0.3)
        flags = [result.irreducible, result.quasi_irreducible, result.monatomic]
        assert flags == _reference_flags(k, 0.3) == [False, False, True]
        assert result.atom == (0,)
        assert result.infected == ()

    def test_asymmetric_eradication(self, no_radius):
        # Every group of these models lies in a positive diagonal block, so
        # it has a loop and eradication vaccinates everyone.
        rng = np.random.default_rng(33)
        for _ in range(20):
            model, _ = random_block_upper_model(rng)
            if has_symmetric_support(model):
                continue
            result = eradication_cost(model, UNIFORM)
            assert result.exact
            assert result.set == ()
            assert result.cstar == c_max(UNIFORM, model)


class TestThreshold:
    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
    def test_every_entry_point_rejects(self, threshold):
        model = fixtures.cycle_model()
        eta = fixtures.one_in_four_strategy()
        calls = [
            lambda: support_digraph(model, threshold),
            lambda: frobenius_decompose(model, threshold),
            lambda: classify(model, threshold),
            lambda: is_disconnecting(model, eta, threshold),
            lambda: cordon_improvement(model, eta, UNIFORM, threshold),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="threshold"):
                call()
