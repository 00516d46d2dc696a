"""Support digraph structure of the next-generation matrix.

Edges follow the infection direction: ``j -> i`` whenever ``K[i, j] > 0``
(group j infects group i).  Atoms of the Frobenius decomposition are the
strongly connected components whose restricted matrix has positive spectral
radius; remaining indices form the quasi-nilpotent remainder.  The atom order
lists infected components before their infectors, so that an earlier atom
never infects a later one: position j before i implies K(atom_i, atom_j) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._graph import condensation_topological, tarjan_sccs
from .errors import NotDisconnecting, ValidationError
from .model import CostFunction, MetapopModel, Strategy, cost
from .spectral import effective_re, spectral_radius


def support_digraph(model: MetapopModel, threshold: float = 0.0):
    """Successor lists of the support digraph: j -> i iff K[i, j] > threshold."""
    if threshold < 0:
        raise ValidationError("support threshold must be nonnegative")
    above = model.matrix > threshold
    return tuple(
        tuple(np.nonzero(above[:, j])[0].tolist()) for j in range(model.n)
    )


@dataclass(frozen=True)
class FrobeniusDecomposition:
    """Atoms, quasi-nilpotent remainder and the precedence order.

    ``order`` lists atom positions such that an atom earlier in the order is
    never infected by a later one (K restricted to later-rows/earlier-columns
    is zero).
    """

    atoms: tuple[tuple[int, ...], ...]
    remainder: tuple[int, ...]
    order: tuple[int, ...]
    atom_radii: tuple[float, ...]


def frobenius_decompose(
    model: MetapopModel, threshold: float = 0.0
) -> FrobeniusDecomposition:
    """Decompose into irreducible atoms with rho > 0 plus remainder.

    A singleton strongly connected component is an atom only when its
    diagonal entry is positive; otherwise it is quasi-nilpotent remainder.
    """
    successors = support_digraph(model, threshold)
    sccs = tarjan_sccs(successors)
    k = model.matrix

    def is_atom(comp) -> bool:
        if len(comp) > 1:
            return True
        i = comp[0]
        return k[i, i] > threshold

    atoms = [tuple(comp) for comp in sccs if is_atom(comp)]
    remainder = sorted(
        v for comp in sccs if not is_atom(comp) for v in comp
    )
    topo = condensation_topological(sccs, successors)
    atom_pos = {tuple(sccs[ci]): None for ci in range(len(sccs))}
    for pos, comp in enumerate(atoms):
        atom_pos[comp] = pos
    # Infected-first precedence: reverse of the source-first topological order.
    order = [
        atom_pos[tuple(sccs[ci])]
        for ci in reversed(topo)
        if atom_pos.get(tuple(sccs[ci])) is not None
    ]
    radii = tuple(
        float(spectral_radius(k[np.ix_(comp, comp)])) for comp in atoms
    )
    return FrobeniusDecomposition(
        atoms=tuple(atoms),
        remainder=tuple(remainder),
        order=tuple(order),
        atom_radii=radii,
    )


def _atom_submodel(model: MetapopModel, cost_fn: CostFunction, atom):
    """The model restricted to one atom, with weights renormalized to sum to
    one and the cost rescaled so that sub-costs equal whole-model costs."""
    idx = list(atom)
    sub_weights = model.weights[idx]
    scale = sub_weights.sum()
    sub_model = MetapopModel(
        weights=sub_weights / scale, matrix=model.matrix[np.ix_(idx, idx)]
    )
    sub_cost = CostFunction.affine(
        cost_fn.coefficient_vector(model.n)[idx] * scale
    )
    return sub_model, sub_cost


def is_invariant(model: MetapopModel, subset) -> bool:
    """True when the group set cannot infect its complement: K(A^c, A) = 0."""
    a = sorted(set(int(i) for i in subset))
    if any(i < 0 or i >= model.n for i in a):
        raise ValidationError("subset indices out of range")
    if not a or len(a) == model.n:
        return True
    comp = sorted(set(range(model.n)) - set(a))
    return not bool(np.any(model.matrix[np.ix_(comp, a)] > 0))


@dataclass(frozen=True)
class Classification:
    """Connectivity flags plus atom and infected set in the monatomic case."""

    irreducible: bool
    quasi_irreducible: bool
    monatomic: bool
    atom: tuple[int, ...] | None = None
    infected: tuple[int, ...] | None = None


def _is_irreducible_submatrix(matrix: np.ndarray, threshold: float) -> bool:
    n = matrix.shape[0]
    if n == 0:
        return False
    above = matrix > threshold
    successors = tuple(
        tuple(np.nonzero(above[:, j])[0].tolist()) for j in range(n)
    )
    sccs = tarjan_sccs(successors)
    if len(sccs) != 1:
        return False
    # Single zero node counts as reducible: it carries no transmission at all.
    return n > 1 or matrix[0, 0] > threshold


def classify(model: MetapopModel, threshold: float = 0.0) -> Classification:
    """Irreducibility, quasi-irreducibility and monatomicity of the support."""
    k = model.matrix
    irreducible = _is_irreducible_submatrix(k, threshold)
    live = np.where((k.sum(axis=0) + k.sum(axis=1)) > threshold)[0]
    if live.size:
        quasi = _is_irreducible_submatrix(k[np.ix_(live, live)], threshold)
    else:
        quasi = False
    decomp = frobenius_decompose(model, threshold)
    monatomic = len(decomp.atoms) == 1
    atom = infected = None
    if monatomic:
        atom = decomp.atoms[0]
        # Minimal invariant superset of the atom: its forward reachable set.
        successors = support_digraph(model, threshold)
        seen = set(atom)
        frontier = list(atom)
        while frontier:
            v = frontier.pop()
            for w in successors[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        infected = tuple(sorted(seen - set(atom)))
    return Classification(
        irreducible=irreducible,
        quasi_irreducible=quasi,
        monatomic=monatomic,
        atom=atom,
        infected=infected,
    )


def is_disconnecting(
    model: MetapopModel, eta: Strategy, threshold: float = 0.0
) -> bool:
    """Whether the kernel restricted to the non-vaccinated set is disconnected.

    The all-vaccinated strategy is never disconnecting by definition; a single
    surviving group counts as connected.
    """
    support = np.where(eta.values > 0)[0]
    if support.size == 0:
        return False
    sub = model.matrix[np.ix_(support, support)]
    above = sub > threshold
    successors = tuple(
        tuple(np.nonzero(above[:, j])[0].tolist()) for j in range(support.size)
    )
    return len(tarjan_sccs(successors)) > 1


@dataclass(frozen=True)
class CordonCertificate:
    """Witness that a disconnecting strategy is not anti-Pareto optimal."""

    re_before: float
    re_after: float
    cost_before: float
    cost_after: float
    kept: tuple[int, ...]
    zeroed: tuple[int, ...]


def cordon_improvement(
    model: MetapopModel,
    eta: Strategy,
    cost_fn: CostFunction,
    threshold: float = 0.0,
) -> tuple[Strategy, CordonCertificate]:
    """Vaccinate the weaker side of a cordon at no loss in R_e.

    Splits the surviving population along the condensation cut, keeps the
    side carrying the larger effective radius and fully vaccinates the other,
    producing a strictly more expensive strategy with the same R_e.
    """
    if not is_disconnecting(model, eta, threshold):
        raise NotDisconnecting("strategy does not disconnect the support")
    support = np.where(eta.values > 0)[0]
    sub = model.matrix[np.ix_(support, support)]
    above = sub > threshold
    successors = tuple(
        tuple(np.nonzero(above[:, j])[0].tolist()) for j in range(support.size)
    )
    sccs = tarjan_sccs(successors)
    topo = condensation_topological(sccs, successors)
    # First component in source-first order: nothing later can infect it.
    side_b = set(support[v] for v in sccs[topo[0]])
    side_a = set(support.tolist()) - side_b

    def restricted(kept: set) -> Strategy:
        v = np.where(np.isin(np.arange(model.n), sorted(kept)), eta.values, 0.0)
        return Strategy(v)

    eta_a = restricted(side_a)
    eta_b = restricted(side_b)
    re_a = effective_re(model, eta_a)
    re_b = effective_re(model, eta_b)
    if re_a >= re_b:
        kept, improved = side_a, eta_a
    else:
        kept, improved = side_b, eta_b
    certificate = CordonCertificate(
        re_before=effective_re(model, eta),
        re_after=effective_re(model, improved),
        cost_before=cost(cost_fn, model, eta),
        cost_after=cost(cost_fn, model, improved),
        kept=tuple(sorted(kept)),
        zeroed=tuple(sorted(set(support.tolist()) - kept)),
    )
    return improved, certificate
