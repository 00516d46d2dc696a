"""Maximum-weight independent sets and the eradication cost.

An independent set of the kernel is a group set A with K = 0 on A x A, the
diagonal included: a group with internal transmission can never belong to
one.  Leaving exactly an independent set non-vaccinated kills the epidemic,
since the effective operator then squares to zero.  For symmetric supports
the cheapest eradicating strategy is the indicator of a cost-maximal
independent set; for asymmetric supports that value is only an upper bound
on the true eradication cost and is flagged as such.

The exact search is a branch and bound on bitmasks, include-first on the
lowest-index candidate, pruned by a greedy weighted clique cover of the
candidates (an independent set takes at most one vertex per clique; see
Ostergard 2002, "A fast algorithm for the maximum clique problem", for the
colouring form of the same bound).  Among the sets of maximal weight, summed
in ascending index order, it returns the lexicographically smallest.  A
search stopped at ``SEARCH_NODE_BUDGET`` nodes returns its best set so far,
flagged ``exact=False``: still independent, so an eradicating upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import CostFunction, MetapopModel, Strategy, c_max, cost
from .spectral import effective_re
from .structure import _atom_submodel, _atoms

SEARCH_NODE_BUDGET = 1 << 16


@dataclass(frozen=True)
class IndependentSetResult:
    """A maximum-weight independent set with its cost values.

    ``alpha`` is the saved cost c_max - C(1_A) (the weighted independence
    number; plain mu(A) for the uniform cost) and ``cstar`` the cost C(1_A)
    of vaccinating everybody else.  ``exact`` is False when the search
    stopped at the node budget before proving the set maximal.
    """

    set: tuple[int, ...]
    alpha: float
    cstar: float
    weight: float
    exact: bool


def _conflict_graph(matrix: np.ndarray):
    allowed_mask = np.diagonal(matrix) == 0
    allowed = np.flatnonzero(allowed_mask).tolist()
    adjacent = ((matrix > 0) | (matrix.T > 0)) & allowed_mask
    np.fill_diagonal(adjacent, False)
    rows = np.packbits(adjacent[allowed], axis=1, bitorder="little")
    masks = {
        i: int.from_bytes(row.tobytes(), "little") for i, row in zip(allowed, rows)
    }
    return allowed, masks


def _mwis_branch_and_bound(allowed, adj, weights):
    """Exact MWIS by include-first branch and bound with a clique-cover bound.

    The candidates of a node are one bitmask.  Its bound is the current
    weight plus, over a greedy clique cover of the candidates, each clique's
    largest weight: every candidate joins, in ascending index order, the
    first clique whose members are all adjacent to it.  An independent set
    takes at most one vertex per clique, so the bound holds.

    Branching is include-first on the lowest-index candidate and a set's
    weight is summed in ascending index order.  A node is pruned only when
    its bound lies below the best weight by more than a relative slack of
    1e-12 (total weight + 1), far above the rounding of either sum, so every
    set of maximal weight is reached.  The result is the lexicographically
    smallest of them (as a sorted index tuple), its weight, and whether the
    search finished within ``SEARCH_NODE_BUDGET`` nodes; if it did not, the
    set is the best one found so far.
    """
    w = [float(x) for x in weights]
    slack = 1e-12 * (sum(w) + 1.0)
    best_weight = -1.0
    best_set: tuple[int, ...] = ()

    def cover_bound(candidates: int) -> float:
        cliques = []  # [member mask, largest weight]
        placed = 0
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            v = low.bit_length() - 1
            neighbours = adj[v] & placed
            # Skipping the scan when v has no placed neighbour keeps
            # isolated vertices linear; no clique could take them.
            for clique in cliques if neighbours else ():
                if not clique[0] & ~neighbours:
                    clique[0] |= low
                    if w[v] > clique[1]:
                        clique[1] = w[v]
                    break
            else:
                cliques.append([low, w[v]])
            placed |= low
        return sum(clique[1] for clique in cliques)

    # Depth-first over an explicit stack of (candidates, chosen groups in
    # ascending order, weight), so that depth is not bounded by the
    # interpreter's recursion limit.  The include branch is pushed last and
    # so explored first, and a node's bound is taken when it is popped.
    stack = [(sum(1 << v for v in allowed), (), 0.0)]
    nodes_left = SEARCH_NODE_BUDGET
    while stack and nodes_left:
        nodes_left -= 1
        candidates, current, weight = stack.pop()
        if not candidates:
            if weight > best_weight or (
                weight == best_weight and current < best_set
            ):
                best_weight = weight
                best_set = current
            continue
        if weight + cover_bound(candidates) < best_weight - slack:
            continue
        low = candidates & -candidates
        v = low.bit_length() - 1
        stack.append((candidates ^ low, current, weight))
        stack.append((candidates & ~adj[v] & ~low, current + (v,), weight + w[v]))
    return best_set, best_weight if best_weight >= 0 else 0.0, not stack


def max_independent_set(
    model: MetapopModel, cost_fn: CostFunction
) -> IndependentSetResult:
    """Maximum-weight independent set of the kernel support.

    Vertex weights are coef_i * mu_i; groups with K_ii > 0 are excluded
    outright.  Ties between sets of equal weight go to the lexicographically
    smallest index tuple.  The set is proved maximal (``exact``) unless the
    search stops at ``SEARCH_NODE_BUDGET`` nodes.
    """
    coef = cost_fn.coefficient_vector(model.n)
    weights = coef * model.weights
    allowed, adj = _conflict_graph(model.matrix)
    best_set, weight, exact = _mwis_branch_and_bound(allowed, adj, weights)
    strategy = Strategy.indicator(model.n, best_set)
    cstar = cost(cost_fn, model, strategy)
    alpha = c_max(cost_fn, model) - cstar
    return IndependentSetResult(
        set=tuple(sorted(best_set)), alpha=alpha, cstar=cstar, weight=float(weight),
        exact=exact,
    )


@dataclass(frozen=True)
class EradicationResult:
    """Cheapest (or cheapest-known) strategy with R_e = 0.

    ``exact`` is True only when the support is symmetric, where the
    independent-set characterization of the eradication cost applies, and
    the search proved its set maximal; otherwise ``cstar`` is an upper bound.
    """

    cstar: float
    strategy: Strategy
    set: tuple[int, ...]
    alpha: float
    exact: bool


def has_symmetric_support(model: MetapopModel) -> bool:
    pos = model.matrix > 0
    return bool(np.array_equal(pos, pos.T))


def eradication_cost(model: MetapopModel, cost_fn: CostFunction) -> EradicationResult:
    """Minimal vaccination cost that completely stops transmission.

    Symmetric support: exact, equal to C(1_A) for a cost-maximal independent
    set A, unless the search stops at its node budget.  Asymmetric support:
    upper bound from leaving the quasi-nilpotent remainder plus per-atom
    independent sets non-vaccinated.  Every upper bound is flagged
    ``exact=False``.
    """
    if has_symmetric_support(model):
        res = max_independent_set(model, cost_fn)
        chosen = res.set
        exact = res.exact
    else:
        _, _, atoms, kept = _atoms(model, 0.0)
        for atom in atoms:
            sub_model, sub_cost = _atom_submodel(model, cost_fn, atom)
            sub = max_independent_set(sub_model, sub_cost)
            kept.extend(atom[j] for j in sub.set)
        chosen = tuple(sorted(kept))
        exact = False
    strategy = Strategy.indicator(model.n, chosen)
    value = cost(cost_fn, model, strategy)
    residual = effective_re(model, strategy)
    if residual > 1e-10:
        raise ValidationError(
            f"eradication strategy leaves R_e = {residual}, above 1e-10"
        )
    return EradicationResult(
        cstar=value,
        strategy=strategy,
        set=chosen,
        alpha=c_max(cost_fn, model) - value,
        exact=exact,
    )
