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

from ._graph import support_components
from .errors import NotDisconnecting
from .model import CostFunction, MetapopModel, Strategy, _check_indices, cost
from .spectral import _block_radius, effective_re


def support_digraph(model: MetapopModel, threshold: float = 0.0):
    """Successor lists of the support digraph: j -> i iff K[i, j] > threshold."""
    return support_components(model.matrix, threshold)[0]


def _atoms(model: MetapopModel, threshold: float):
    """One SCC pass and no radius: successor lists, components in finishing
    order, atoms (several groups or a loop) by smallest member, remainder."""
    successors, sccs = support_components(model.matrix, threshold)
    k = model.matrix
    is_atom = [len(comp) > 1 or k[comp[0], comp[0]] > threshold for comp in sccs]
    atoms = sorted(tuple(comp) for comp, a in zip(sccs, is_atom) if a)
    remainder = sorted(comp[0] for comp, a in zip(sccs, is_atom) if not a)
    return successors, sccs, atoms, remainder


@dataclass(frozen=True)
class FrobeniusDecomposition:
    """Atoms, quasi-nilpotent remainder and the precedence order.

    ``order`` lists atom positions such that an atom earlier in the order
    never infects a later one (K restricted to later-rows/earlier-columns is
    zero).
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
    _, sccs, atoms, remainder = _atoms(model, threshold)
    atom_pos = {comp: pos for pos, comp in enumerate(atoms)}
    # Tarjan's finishing order is the infected-first precedence.
    order = [atom_pos[comp] for comp in map(tuple, sccs) if comp in atom_pos]
    k = model.matrix
    radii = tuple(_block_radius(k[np.ix_(comp, comp)]) for comp in atoms)
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
    inside = np.zeros(model.n, dtype=bool)
    inside[_check_indices(model.n, subset)] = True
    return not (model.matrix[np.ix_(~inside, inside)] > 0).any()


@dataclass(frozen=True)
class Classification:
    """Connectivity flags plus atom and infected set in the monatomic case."""

    irreducible: bool
    quasi_irreducible: bool
    monatomic: bool
    atom: tuple[int, ...] | None = None
    infected: tuple[int, ...] | None = None


def classify(model: MetapopModel, threshold: float = 0.0) -> Classification:
    """Irreducibility, quasi-irreducibility and monatomicity, one SCC pass."""
    k = model.matrix
    n = model.n
    successors, sccs, atoms, _ = _atoms(model, threshold)
    irreducible = len(sccs) == 1 and (n > 1 or k[0, 0] > threshold)
    # A group that is not live has no edge: it is a component of its own.
    live = np.where((k.sum(axis=0) + k.sum(axis=1)) > threshold)[0]
    quasi = (
        live.size > 0
        and len(sccs) - (n - live.size) == 1
        and (live.size > 1 or k[live[0], live[0]] > threshold)
    )
    monatomic = len(atoms) == 1
    atom = infected = None
    if monatomic:
        atom = atoms[0]
        # Minimal invariant superset of the atom: its forward reachable set,
        # which an irreducible support's one atom already is.
        seen = set(atom)
        frontier = [] if irreducible else list(atom)
        while frontier:
            v = frontier.pop()
            for w in successors[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        infected = tuple(sorted(seen - set(atom)))
    return Classification(
        irreducible=bool(irreducible),
        quasi_irreducible=bool(quasi),
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
    return len(support_components(sub, threshold)[1]) > 1


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
    _, sccs = support_components(sub, threshold)
    # Tarjan finishes a source last: no other component infects it.
    side_b = set(support[v] for v in sccs[-1])
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
