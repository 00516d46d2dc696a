import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxfront import (
    CostFunction,
    MetapopModel,
    Strategy,
    cost,
    effective_re,
    eradication_cost,
    has_symmetric_support,
    max_independent_set,
)
from vaxfront import fixtures, independent
from vaxfront.acceptance import brute_force_mwis, random_model

UNIFORM = CostFunction.uniform()


def model_of(matrix, weights=None):
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if weights is None:
        weights = np.full(n, 1.0 / n)
        weights[-1] += 1.0 - math.fsum(weights.tolist())
    return MetapopModel(weights=np.asarray(weights, dtype=float), matrix=matrix)


class TestMaxIndependentSet:
    def test_cycle_half(self):
        result = max_independent_set(fixtures.cycle_model(), UNIFORM)
        assert len(result.set) == 6
        assert result.alpha == 0.5
        assert result.set == (0, 2, 4, 6, 8, 10)

    def test_triangle(self):
        triangle = model_of([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        result = max_independent_set(triangle, UNIFORM)
        assert len(result.set) == 1
        assert result.alpha == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_zero_matrix_everything(self):
        model = model_of(np.zeros((5, 5)))
        result = max_independent_set(model, UNIFORM)
        assert result.set == (0, 1, 2, 3, 4)
        assert result.alpha == pytest.approx(1.0, abs=1e-15)
        assert result.cstar == 0.0

    def test_self_loop_excluded(self):
        model = model_of([[1.0, 0.0], [0.0, 0.0]])
        result = max_independent_set(model, UNIFORM)
        assert result.set == (1,)

    def test_budget(self):
        model = model_of(np.zeros((41, 41)), weights=np.full(41, 1.0 / 41))
        result = max_independent_set(model, UNIFORM)
        assert result.exact
        assert len(result.set) == 41

    def test_support_only_dependence(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(3, 10))
            model = random_model(rng, n, density=0.4)
            support = model_of((model.matrix > 0).astype(float), model.weights)
            a = max_independent_set(model, UNIFORM)
            b = max_independent_set(support, UNIFORM)
            assert a.set == b.set

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            n = int(rng.integers(3, 13))
            model = random_model(rng, n, density=0.15 + 0.5 * rng.random())
            cost_fn = (
                UNIFORM if trial % 2 else CostFunction.affine(0.5 + rng.random(n))
            )
            exact = max_independent_set(model, cost_fn)
            _, oracle = brute_force_mwis(model, cost_fn)
            assert exact.weight == oracle

    def test_lexicographic_tie_break(self):
        # Two disjoint edges: four optimal pairs; {0, 2} is lexicographically
        # smallest.
        k = np.zeros((4, 4))
        k[0, 1] = k[1, 0] = 1.0
        k[2, 3] = k[3, 2] = 1.0
        result = max_independent_set(model_of(k), UNIFORM)
        assert result.set == (0, 2)


def ring2_matrix(n):
    k = np.zeros((n, n))
    for i in range(n):
        for step in (1, 2):
            k[i, (i + step) % n] = k[(i + step) % n, i] = 1.0
    return k


def grid_matrix(rows, cols):
    k = np.zeros((rows * cols, rows * cols))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                k[v, v + 1] = k[v + 1, v] = 1.0
            if r + 1 < rows:
                k[v, v + cols] = k[v + cols, v] = 1.0
    return k


def lexicographic_mwis(model, cost_fn):
    """The lexicographically smallest of all maximal-weight independent sets,
    each weight summed in ascending index order; exhaustive."""
    weights = cost_fn.coefficient_vector(model.n) * model.weights
    k = model.matrix
    adjacent = ((k > 0) | (k.T > 0)).tolist()
    allowed = [i for i in range(model.n) if k[i, i] == 0]
    best = (-1.0, ())
    for size in range(len(allowed) + 1):
        for subset in itertools.combinations(allowed, size):
            if any(adjacent[i][j] for i, j in itertools.combinations(subset, 2)):
                continue
            weight = 0.0
            for v in subset:
                weight += weights[v]
            if weight > best[0] or (weight == best[0] and subset < best[1]):
                best = (weight, subset)
    return best


@st.composite
def symmetric_supports(draw):
    n = draw(st.integers(1, 14))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    loop = st.sampled_from([False] * 4 + [True])
    loops = draw(st.lists(loop, min_size=n, max_size=n))
    k = np.zeros((n, n))
    for (i, j), edge in zip(pairs, edges):
        if edge:
            k[i, j] = k[j, i] = 1.0
    k[np.diag_indices(n)] = loops
    kind = draw(st.sampled_from(["uniform", "integer", "tenths", "affine"]))
    if kind == "uniform":
        cost_fn = UNIFORM
    elif kind == "integer":
        cost_fn = CostFunction.affine(
            draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        )
    elif kind == "tenths":
        # Decimal fractions make sets of equal real weight differ by rounding.
        tenths = st.sampled_from([0.1, 0.2, 0.3, 0.6, 0.7])
        cost_fn = CostFunction.affine(
            draw(st.lists(tenths, min_size=n, max_size=n))
        )
    else:
        cost_fn = CostFunction.affine(
            draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
        )
    return model_of(k), cost_fn


def acyclic(matrix, subset):
    """Whether the support restricted to ``subset`` has no cycle, loops
    included: peel off groups with no predecessor left until none remain."""
    left = set(subset)
    while left:
        sources = {i for i in left if not any(matrix[i, j] > 0 for j in left)}
        if not sources:
            return False
        left -= sources
    return True


def min_acyclic_cost(model, cost_fn):
    """The cost of vaccinating all but a group set with an acyclic support,
    minimized exhaustively."""
    return min(
        cost(cost_fn, model, Strategy.indicator(model.n, subset))
        for size in range(model.n + 1)
        for subset in itertools.combinations(range(model.n), size)
        if acyclic(model.matrix, subset)
    )


@st.composite
def directed_supports(draw):
    """Supports of at most 10 groups mixing loops, 2-cycles and one-way edges."""
    n = draw(st.integers(1, 10))
    edge = st.sampled_from(["none"] * 5 + ["mutual", "forward", "backward"])
    k = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        kind = draw(edge)
        if kind in ("mutual", "forward"):
            k[j, i] = 1.0
        if kind in ("mutual", "backward"):
            k[i, j] = 1.0
    loop = st.sampled_from([False] * 5 + [True])
    k[np.diag_indices(n)] = draw(st.lists(loop, min_size=n, max_size=n))
    weights = None
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
        weights /= weights.sum()
    cost_fn = UNIFORM
    if draw(st.booleans()):
        cost_fn = CostFunction.affine(
            draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
        )
    return model_of(k, weights), cost_fn


class TestExactSearch:
    @settings(max_examples=150, deadline=None)
    @given(symmetric_supports())
    def test_lexicographically_smallest_optimum(self, case):
        model, cost_fn = case
        result = max_independent_set(model, cost_fn)
        weight, expected = lexicographic_mwis(model, cost_fn)
        assert result.set == expected
        assert result.weight == weight

    def test_rounding_near_tie(self):
        # {1, 3, 4, 5} and {3, 4, 5, 6} have the same real weight, but summed
        # in ascending order the second is one ulp heavier.  The clique-cover
        # bound sums the same weights in another order and rounds below it;
        # without the pruning slack the search would return the first set.
        # Group 7 has a self-loop and only makes the weights sum to one.
        k = np.zeros((8, 8))
        for i, j in [(0, 1), (0, 3), (0, 4), (0, 6), (1, 2), (1, 6), (2, 4)]:
            k[i, j] = k[j, i] = 1.0
        k[7, 7] = 1.0
        weights = np.array([0.4, 0.1, 0.1, 0.5, 0.6, 0.1, 0.1, 0.0]) / 2
        weights[7] = 1.0 - math.fsum(weights.tolist())
        result = max_independent_set(model_of(k, weights), UNIFORM)
        assert result.set == (3, 4, 5, 6)

    # The node counts are those of the first-fit cover's search: a cover
    # that changed any bound would change the nodes visited.
    @pytest.mark.parametrize(
        "matrix, expected, nodes",
        [
            (fixtures.cycle_model(40).matrix, tuple(range(0, 40, 2)), 81),
            (ring2_matrix(40), tuple(range(0, 37, 3)), 573),
            (
                grid_matrix(5, 8),
                tuple(v for v in range(40) if (v // 8 + v % 8) % 2 == 0),
                81,
            ),
            (
                grid_matrix(20, 20),
                tuple(v for v in range(400) if (v // 20 + v % 20) % 2 == 0),
                801,
            ),
        ],
        ids=["cycle-40", "ring2-40", "grid-5x8", "grid-20x20"],
    )
    def test_closed_forms_at_the_cap(self, matrix, expected, nodes):
        model = model_of(matrix)
        result = max_independent_set(model, UNIFORM)
        assert result.exact
        assert result.set == expected
        assert result.nodes == nodes

    def test_cycle_beyond_forty_groups(self):
        result = max_independent_set(fixtures.cycle_model(60), UNIFORM)
        assert result.exact
        assert result.set == tuple(range(0, 60, 2))

    def test_search_deeper_than_recursion_limit(self):
        # The search descends one level per group, here 1,200 of them.
        n = 1200
        model = model_of(np.zeros((n, n)))
        result = max_independent_set(model, UNIFORM)
        assert result.exact
        assert result.set == tuple(range(n))
        assert result.cstar == pytest.approx(0.0, abs=1e-12)

    def test_node_budget_gives_an_eradicating_upper_bound(self, monkeypatch):
        # The 40-group ring2 search needs 573 nodes to finish.
        model = model_of(ring2_matrix(40))
        proved = eradication_cost(model, UNIFORM)
        assert proved.exact
        assert proved.nodes == 573
        monkeypatch.setattr(independent, "SEARCH_NODE_BUDGET", 100)
        stopped = max_independent_set(model, UNIFORM)
        assert not stopped.exact
        assert stopped.nodes == 100
        assert not model.matrix[np.ix_(stopped.set, stopped.set)].any()
        bound = eradication_cost(model, UNIFORM)
        assert not bound.exact
        assert bound.cstar >= proved.cstar
        assert effective_re(model, bound.strategy) <= 1e-10

    def test_conflict_graph_matches_pair_loop(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            n = int(rng.integers(1, 70))
            matrix = (rng.random((n, n)) < rng.random()) * rng.random((n, n))
            allowed = [i for i in range(n) if matrix[i, i] == 0]
            mutual, oneway = {}, {}
            for i in allowed:
                mutual[i] = oneway[i] = 0
                for j in allowed:
                    if j != i and matrix[i, j] > 0 and matrix[j, i] > 0:
                        mutual[i] |= 1 << j
                    if j != i and matrix[i, j] > 0 and not matrix[j, i] > 0:
                        oneway[i] |= 1 << j
            assert independent._conflict_graph(matrix) == (allowed, mutual, oneway)

    def test_clique_cover_matches_first_fit(self):
        def first_fit(candidates, adj, w):
            # Each vertex, in ascending order, joins the first clique whose
            # members are all adjacent to it.
            cliques = []  # [member mask, largest weight]
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                v = low.bit_length() - 1
                for clique in cliques:
                    if not clique[0] & ~adj[v]:
                        clique[0] |= low
                        clique[1] = max(clique[1], w[v])
                        break
                else:
                    cliques.append([low, w[v]])
            return sum(clique[1] for clique in cliques)

        rng = np.random.default_rng(45)
        for trial in range(300):
            n = int(rng.integers(1, 71))
            matrix = (rng.random((n, n)) < rng.random()).astype(float)
            if trial % 2:
                matrix = np.maximum(matrix, matrix.T)
            allowed, adj, _ = independent._conflict_graph(matrix)
            w = [1.0 / n] * n if trial % 3 else rng.random(n).tolist()
            for _ in range(5):
                keep = rng.random()
                candidates = sum(1 << v for v in allowed if rng.random() < keep)
                assert independent._clique_cover_bound(candidates, adj, w) == (
                    first_fit(candidates, adj, w)
                )


class TestEradicationCost:
    def test_cycle_exact_half(self):
        result = eradication_cost(fixtures.cycle_model(), UNIFORM)
        assert result.cstar == 0.5
        assert result.exact
        assert result.set == (0, 2, 4, 6, 8, 10)
        assert effective_re(fixtures.cycle_model(), result.strategy) <= 1e-10

    def test_positive_matrix_needs_everyone(self):
        model = model_of([[1.0, 1.0], [1.0, 1.0]])
        result = eradication_cost(model, UNIFORM)
        assert result.exact
        assert result.set == ()
        assert result.cstar == pytest.approx(1.0, abs=1e-15)

    def test_reducible_remainder_bound(self):
        # Group 0 is on no cycle; group 1 has a self-loop.
        model = model_of([[0.0, 1.0], [0.0, 2.0]])
        assert not has_symmetric_support(model)
        result = eradication_cost(model, UNIFORM)
        assert result.exact
        assert result.set == (0,)
        assert result.cstar == pytest.approx(0.5, abs=1e-15)
        assert effective_re(model, result.strategy) <= 1e-10

    def test_returned_strategy_always_eradicates(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            model = random_model(rng, n, density=0.4)
            result = eradication_cost(model, UNIFORM)
            assert effective_re(model, result.strategy) <= 1e-10
            assert result.cstar == cost(UNIFORM, model, result.strategy)

    @settings(max_examples=150, deadline=None)
    @given(directed_supports())
    def test_directed_brute_force_oracle(self, case):
        model, cost_fn = case
        result = eradication_cost(model, cost_fn)
        assert result.exact
        assert acyclic(model.matrix, result.set)
        assert result.cstar == pytest.approx(
            min_acyclic_cost(model, cost_fn), rel=1e-12, abs=1e-15
        )

    def test_sparse_directed_draws(self):
        # Before one search covered directed supports, 35 of these draws
        # reported a cost above the optimum; draw 2 reported 0.668.
        rng = np.random.default_rng(3)
        for t in range(60):
            n = int(rng.integers(4, 11))
            model = random_model(rng, n, density=0.15 + 0.3 * rng.random())
            result = eradication_cost(model, UNIFORM)
            assert result.exact
            assert result.cstar == pytest.approx(
                min_acyclic_cost(model, UNIFORM), rel=1e-12, abs=1e-15
            )
            if t == 2:
                assert result.cstar == pytest.approx(0.35320008341249, abs=1e-13)

    def test_node_budget_on_a_directed_support(self, monkeypatch):
        # A directed 40-cycle with a chord: one component, whose two cycles
        # share the groups 0 to 20, so one group breaks both.
        k = np.roll(np.eye(40), 1, axis=0)
        k[0, 20] = 1.0
        model = model_of(k)
        proved = eradication_cost(model, UNIFORM)
        assert proved.exact
        assert proved.cstar == pytest.approx(1.0 / 40.0, abs=1e-15)
        monkeypatch.setattr(independent, "SEARCH_NODE_BUDGET", 10)
        bound = eradication_cost(model, UNIFORM)
        assert not bound.exact
        assert bound.nodes == 10
        assert bound.cstar >= proved.cstar
        assert effective_re(model, bound.strategy) <= 1e-10

    def test_nodes_summed_over_components(self):
        # Two directed cycles, of 3 and 5 groups, searched one at a time.
        def directed_cycle(n):
            return np.roll(np.eye(n), 1, axis=0)

        both = np.zeros((8, 8))
        both[:3, :3] = directed_cycle(3)
        both[3:, 3:] = directed_cycle(5)
        counts = [eradication_cost(model_of(directed_cycle(n)), UNIFORM).nodes
                  for n in (3, 5)]
        assert min(counts) > 0
        assert eradication_cost(model_of(both), UNIFORM).nodes == sum(counts)

    def test_strategy_matches_set(self):
        result = eradication_cost(fixtures.cycle_model(), UNIFORM)
        expected = Strategy.indicator(12, result.set)
        assert np.array_equal(result.strategy.values, expected.values)
