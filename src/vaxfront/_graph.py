"""Digraph primitives shared by the spectral and structure modules."""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError


def support_components(matrix: np.ndarray, threshold: float = 0.0):
    """Successor lists and strongly connected components of the support
    digraph, edge j -> i iff ``matrix[i, j] > threshold``.  A complete
    digraph (every entry above the threshold) skips the Tarjan walk."""
    if not math.isfinite(threshold) or threshold < 0:
        raise ValidationError("support threshold must be finite and nonnegative")
    above = matrix > threshold
    n = above.shape[0]
    if above.all():
        everyone = tuple(range(n))
        return (everyone,) * n, [list(everyone)]
    cols, rows = np.nonzero(above.T)
    ends = np.cumsum(np.bincount(cols, minlength=n)).tolist()
    flat = rows.tolist()
    successors = tuple(tuple(flat[a:b]) for a, b in zip([0] + ends[:-1], ends))
    return successors, tarjan_sccs(successors)


def tarjan_sccs(successors) -> list[list[int]]:
    """Strongly connected components, iterative Tarjan, each sorted.

    Components come in the order the search finishes them: every component
    after the ones it reaches, so with infector -> infectee successor lists
    the infected come before their infectors, and reversed the order starts
    at infection sources.  Roots are taken from the highest group down, so
    components that no path orders tend to come highest first, as in a
    reversed topological sort that breaks ties by smallest member.
    """
    n = len(successors)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in reversed(range(n)):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, child = work[-1]
            if child == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(child, len(successors[v])):
                w = successors[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    return sccs
