"""Maximum-weight independent sets and the eradication cost.

An independent set of the kernel is a group set A with K = 0 on A x A, the
diagonal included: a group with internal transmission can never belong to
one.  Leaving a group set A non-vaccinated kills the epidemic exactly when
the support restricted to A is acyclic, loops counted as cycles, since the
effective operator is then nilpotent.  Cost falls as eta rises, so the
eradication cost is C(1_A) for a cost-maximal acyclic set A.  On a
symmetric support every edge is a 2-cycle and the acyclic sets are the
independent sets.

The exact search is a branch and bound on bitmasks, include-first on the
lowest-index candidate, pruned by a greedy weighted clique cover of the
candidates over the mutual edges (an acyclic set takes at most one vertex
per bidirected clique).  The cover is first-fit colouring in ascending index
order, built one clique at a time by bitmask intersections (Ostergard 2002;
San Segundo, Rodriguez-Losada and Jimenez 2011, "An exact bit-parallel
algorithm for the maximum clique problem").  A group whose one-way edges
would close a cycle through the groups already chosen is not included.
Every cycle lies inside one strongly connected component, so a directed
support is searched one component at a time (the contraction view of Levy
and Low 1988, "A contraction algorithm for finding small cycle cutsets").
Among the sets of maximal weight, summed in ascending index order, a search
returns the lexicographically smallest.  A search stopped at
``SEARCH_NODE_BUDGET`` nodes returns its best set so far, flagged
``exact=False``: still acyclic, so an eradicating upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._graph import support_components
from .errors import ValidationError
from .model import CostFunction, MetapopModel, Strategy, c_max, cost
from .spectral import effective_re

SEARCH_NODE_BUDGET = 1 << 16


@dataclass(frozen=True)
class IndependentSetResult:
    """A maximum-weight independent set with its cost values.

    ``alpha`` is the saved cost c_max - C(1_A) (the weighted independence
    number; plain mu(A) for the uniform cost) and ``cstar`` the cost C(1_A)
    of vaccinating everybody else.  ``exact`` is False when the search
    stopped at the node budget before proving the set maximal; ``nodes``
    counts the search's nodes.
    """

    set: tuple[int, ...]
    alpha: float
    cstar: float
    weight: float
    exact: bool
    nodes: int


def _conflict_graph(matrix: np.ndarray):
    """The loop-free groups, and per group the bitmasks of its mutual edges
    (both K_ij and K_ji positive) and of its one-way edges (K_ij only)."""
    allowed_mask = np.diagonal(matrix) == 0
    allowed = np.flatnonzero(allowed_mask).tolist()
    positive = matrix > 0
    mutual = positive & positive.T & allowed_mask
    np.fill_diagonal(mutual, False)
    masks = []
    for edges in (mutual, positive & ~positive.T & allowed_mask):
        rows = np.packbits(edges[allowed], axis=1, bitorder="little")
        masks.append({
            i: int.from_bytes(row.tobytes(), "little") for i, row in zip(allowed, rows)
        })
    return allowed, *masks


def _closes_cycle(v: int, chosen: int, oneway) -> bool:
    """Whether one-way edges lead from v through the ``chosen`` mask back to v."""
    seen = frontier = oneway[v] & chosen
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        step = oneway[low.bit_length() - 1]
        if step >> v & 1:
            return True
        step &= chosen & ~seen
        seen |= step
        frontier |= step
    return False


def _clique_cover_bound(candidates: int, adj, w) -> float:
    """Sum of the largest weights of a greedy clique cover of the
    ``candidates`` bitmask by the mutual edges ``adj``, in order of creation.

    A clique starts at the lowest candidate left and takes, in ascending
    order, each candidate adjacent to all its members so far.  So a vertex
    joins clique k when it is in no earlier clique and is adjacent to every
    lower member of clique k: the cliques, and so the sum, of first-fit.
    """
    total = 0.0
    while candidates:
        possible, top = candidates, float("-inf")
        while possible:
            low = possible & -possible
            candidates ^= low
            u = low.bit_length() - 1
            possible &= adj[u]
            if w[u] > top:
                top = w[u]
        total += top
    return total


def _mwis_branch_and_bound(allowed, adj, oneway, weights):
    """Exact maximum-weight acyclic set by include-first branch and bound
    with a clique-cover bound.

    ``adj`` holds the mutual edges and ``oneway`` the one-way edges; with no
    one-way edge the acyclic sets are the independent sets.  The candidates
    of a node are one bitmask.  Its bound is the current weight plus
    ``_clique_cover_bound`` of the candidates; an acyclic set takes at most
    one vertex per bidirected clique, so the bound holds.  Including a
    candidate drops its mutual neighbours; a candidate that would close a
    one-way cycle through the chosen groups is only excluded.

    Branching is include-first on the lowest-index candidate and a set's
    weight is summed in ascending index order.  A node is pruned only when
    its bound lies below the best weight by more than a relative slack of
    1e-12 (total weight + 1), far above the rounding of either sum, so every
    set of maximal weight is reached.  The result is the lexicographically
    smallest of them (as a sorted index tuple), its weight, whether the
    search finished within ``SEARCH_NODE_BUDGET`` nodes (if it did not, the
    set is the best one found so far) and the number of nodes visited.
    """
    w = [float(x) for x in weights]
    n = len(w)
    slack = 1e-12 * (sum(w) + 1.0)
    best_weight = -1.0
    best_set: tuple[int, ...] = ()

    # Depth-first over an explicit stack of (candidates, chosen, weight)
    # bitmasks and sums, so that depth is not bounded by the interpreter's
    # recursion limit.  The include branch is pushed last and so explored
    # first, and a node's bound is taken when it is popped.
    stack = [(sum(1 << v for v in allowed), 0, 0.0)]
    nodes_left = SEARCH_NODE_BUDGET
    while stack and nodes_left:
        nodes_left -= 1
        candidates, chosen, weight = stack.pop()
        if not candidates:
            if weight >= best_weight:
                members = tuple(i for i in range(n) if chosen >> i & 1)
                if weight > best_weight or members < best_set:
                    best_weight = weight
                    best_set = members
            continue
        if weight + _clique_cover_bound(candidates, adj, w) < best_weight - slack:
            continue
        low = candidates & -candidates
        v = low.bit_length() - 1
        stack.append((candidates ^ low, chosen, weight))
        if not _closes_cycle(v, chosen, oneway):
            stack.append((candidates & ~adj[v] & ~low, chosen | low, weight + w[v]))
    return best_set, max(best_weight, 0.0), not stack, SEARCH_NODE_BUDGET - nodes_left


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
    positive = model.matrix > 0
    # Independence forbids an edge either way, so every edge counts as mutual.
    graph = _conflict_graph(positive | positive.T)
    best_set, weight, exact, nodes = _mwis_branch_and_bound(*graph, weights)
    strategy = Strategy.indicator(model.n, best_set)
    cstar = cost(cost_fn, model, strategy)
    alpha = c_max(cost_fn, model) - cstar
    return IndependentSetResult(
        set=tuple(sorted(best_set)), alpha=alpha, cstar=cstar, weight=float(weight),
        exact=exact, nodes=nodes,
    )


@dataclass(frozen=True)
class EradicationResult:
    """Cheapest (or cheapest-known) strategy with R_e = 0.

    ``exact`` is True when every search proved its set maximal; a search
    stopped at ``SEARCH_NODE_BUDGET`` nodes makes ``cstar`` an upper bound.
    ``nodes`` counts the nodes of every search, summed over the components
    of a directed support.
    """

    cstar: float
    strategy: Strategy
    set: tuple[int, ...]
    alpha: float
    exact: bool
    nodes: int


def has_symmetric_support(model: MetapopModel) -> bool:
    pos = model.matrix > 0
    return bool(np.array_equal(pos, pos.T))


def eradication_cost(model: MetapopModel, cost_fn: CostFunction) -> EradicationResult:
    """Minimal vaccination cost that completely stops transmission.

    Equal to C(1_A) for a cost-maximal group set A on which the support is
    acyclic: on a symmetric support a maximum-weight independent set, on any
    other one the union of a search per strongly connected component.  Exact
    unless a search stops at its node budget.
    """
    if has_symmetric_support(model):
        res = max_independent_set(model, cost_fn)
        chosen, exact, nodes = res.set, res.exact, res.nodes
    else:
        weights = cost_fn.coefficient_vector(model.n) * model.weights
        _, adj, oneway = _conflict_graph(model.matrix)
        searches = [
            _mwis_branch_and_bound([v for v in comp if v in adj], adj, oneway, weights)
            for comp in support_components(model.matrix)[1]
        ]
        chosen = tuple(sorted(v for found, *_ in searches for v in found))
        exact = all(finished for _, _, finished, _ in searches)
        nodes = sum(count for *_, count in searches)
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
        nodes=nodes,
    )
