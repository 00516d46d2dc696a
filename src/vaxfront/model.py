"""Metapopulation models, vaccination strategies, costs and file ingestion.

The central object is :class:`MetapopModel`: a nonnegative next-generation
matrix ``K`` together with positive group weights ``mu`` summing to one.
``K[i, j]`` is the expected number of secondary infections in group ``i``
caused by one unvaccinated infectious individual of group ``j``.  The
associated discrete kernel is ``k_d(i, j) = K[i, j] / mu[j]``.

A vaccination strategy ``eta`` gives the fraction of *non-vaccinated*
individuals per group (``eta_i = 0`` means group ``i`` is fully vaccinated),
so doing nothing is the all-ones vector.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ParseError, ValidationError

# Weight sums are accepted within 1e-9 of one (decimal round-off in files),
# then renormalized so that math.fsum(weights) == 1.0 holds exactly.
WEIGHT_SUM_TOL = 1e-9
_WEIGHT_SUM_INVARIANT = 1e-12
# K is diagonally symmetrizable when positive d give d_i K_ij = d_j K_ji within
# 1e-8 relative; the symmetric eigensolver needs the balance to rounding.
SYMMETRIZABLE_RTOL = 1e-8
BALANCED_RTOL = 1e-12
_BALANCE_ROWS = 64  # rows per block of the balance check: no N x N temporaries


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _is_int(value) -> bool:
    """An integer, Python's or numpy's, that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_int(name: str, value, low: int) -> None:
    """Raise ``ValidationError`` unless ``value`` is an integer >= ``low``."""
    if not _is_int(value) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} contains NaN or infinite entries")


def _pin_weight_sum(w: np.ndarray) -> np.ndarray:
    """Rescale positive weights so their compensated sum is exactly 1.0."""
    s = math.fsum(w.tolist())
    if s != 1.0:
        w = w / s
    residual = math.fsum(w.tolist()) - 1.0
    if residual != 0.0:
        w = w.copy()
        w[int(np.argmax(w))] -= residual
    return w


@dataclass(frozen=True)
class SymmetrizabilityResult:
    """Balancing vector d, M = D^(1/2) K D^(-1/2) and the balance residual.

    ``d`` has minimum entry 1 on each support component, 1 on isolated
    groups.  ``symmetrized`` is M mirrored from its lower triangle, K itself
    when K is symmetric.  ``residual``, the largest |d_i K_ij - d_j K_ji|
    relative to the larger of the two, is inf when K is not symmetrizable.
    """

    symmetrizable: bool
    d: np.ndarray | None = None
    symmetrized: np.ndarray | None = None
    residual: float = math.inf


def _symmetrizability(k: np.ndarray) -> SymmetrizabilityResult:
    """Balancing vector d of K, its residual and M = D^(1/2) K D^(-1/2).

    The support must be symmetric.  Each component is searched breadth first
    from its lowest group, a level at a time in FIFO order with neighbours
    ascending, setting d_j = d_i K_ij / K_ji along the forest's edges; then d
    is scaled to minimum 1 on the component.  The balance is checked on the
    lower triangle in row blocks, stopping at the first gap above 1e-8
    relative.  An exactly symmetric K has d = 1 and M = K.
    """
    n = k.shape[0]
    if np.array_equal(k, k.T):
        return SymmetrizabilityResult(True, _as_readonly(np.ones(n)), k, 0.0)
    edges = k > 0
    if not np.array_equal(edges, edges.T):
        return SymmetrizabilityResult(False)
    d = np.ones(n)
    assigned = np.zeros(n, dtype=bool)
    # d can over- or underflow; the NaN gap that follows fails the check.
    with np.errstate(all="ignore"):
        while not assigned.all():
            root = int(assigned.argmin())  # the lowest unassigned group
            assigned[root] = True
            component = level = np.array([root])
            while level.size:
                free = np.flatnonzero(~assigned)
                hit = edges[np.ix_(level, free)]
                reached = hit.any(axis=0)
                first = hit.argmax(axis=0)[reached]  # the earliest parent in the queue
                order = np.argsort(first, kind="stable")
                level, parent = free[reached][order], level[first[order]]
                d[level] = d[parent] * k[parent, level] / k[level, parent]
                assigned[level] = True
                component = np.concatenate([component, level])
            d[component] /= d[component].min()
        floor = 1e-30 * float((d * k.max(axis=1)).max())
        residual = 0.0
        for start in range(0, n, _BALANCE_ROWS):
            stop = min(start + _BALANCE_ROWS, n)
            mine = d[start:stop, None] * k[start:stop, :stop]
            theirs = (k[:stop, start:stop] * d[:stop, None]).T
            gap = np.abs(mine - theirs) / np.maximum(np.maximum(mine, theirs), floor)
            residual = max(float(gap.max()), residual)  # keeps a NaN gap
            if not residual <= SYMMETRIZABLE_RTOL:
                return SymmetrizabilityResult(False)
    root_d = np.sqrt(d)
    m = k * root_d[:, None]
    m /= root_d
    for start in range(0, n, _BALANCE_ROWS):  # mirror the lower triangle
        stop = start + _BALANCE_ROWS
        m[start:stop, stop:] = m[stop:, start:stop].T
        square = m[start:stop, start:stop]
        square[...] = np.tril(square) + np.tril(square, -1).T
    d.setflags(write=False)
    m.setflags(write=False)
    return SymmetrizabilityResult(True, d, m, residual)


@dataclass(frozen=True)
class MetapopModel:
    """Next-generation matrix with group weights.

    Attributes:
        weights: positive reals summing to one (group sizes mu_i).
        matrix: N x N nonnegative next-generation matrix K.
        labels: optional group names.
    """

    weights: np.ndarray
    matrix: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        k = np.asarray(self.matrix, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("weights must be a non-empty vector")
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValidationError("matrix must be square")
        if k.shape[0] != w.size:
            raise ValidationError(
                f"matrix is {k.shape[0]}x{k.shape[1]} but {w.size} weights given"
            )
        _check_finite(w, "weights")
        _check_finite(k, "matrix")
        if np.any(w <= 0):
            raise ValidationError("all weights must be strictly positive")
        if np.any(k < 0):
            raise ValidationError("matrix entries must be nonnegative")
        if abs(math.fsum(w.tolist()) - 1.0) > _WEIGHT_SUM_INVARIANT:
            raise ValidationError("weights must sum to one (within 1e-12)")
        labels = self.labels
        if labels is not None:
            if isinstance(labels, str) or not isinstance(labels, Sequence) or not all(
                isinstance(x, str) for x in labels
            ):
                raise ValidationError("labels must be a sequence of strings")
            if len(labels) != w.size:
                raise ValidationError("labels length must match the number of groups")
            object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "weights", _as_readonly(w))
        object.__setattr__(self, "matrix", _as_readonly(k))

    @functools.cached_property
    def _balance(self) -> SymmetrizabilityResult:
        """The balance that spectral.py and convexity.py read, on first use."""
        return _symmetrizability(self.matrix)

    @property
    def n(self) -> int:
        return self.weights.size

    def kernel(self) -> np.ndarray:
        """Discrete kernel k_d(i, j) = K[i, j] / mu[j]."""
        return self.matrix / self.weights[None, :]

    def _values(self, eta: "Strategy") -> np.ndarray:
        """The entries of ``eta``, which must have one per group."""
        if eta.n != self.n:
            raise DimensionMismatch(
                f"strategy has {eta.n} entries, model has {self.n} groups"
            )
        return eta.values

    def effective_matrix(self, eta: "Strategy") -> np.ndarray:
        """K . diag(eta), the next-generation matrix of the vaccinated system."""
        return self.matrix * self._values(eta)[None, :]


@dataclass(frozen=True)
class Strategy:
    """Per-group fractions of non-vaccinated individuals, each in [0, 1]."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValidationError("strategy must be a non-empty vector")
        # NaN and infinities fail the range test too; only then is it asked why.
        if not (v.min() >= 0.0 and v.max() <= 1.0):
            _check_finite(v, "strategy")
            raise ValidationError("strategy entries must lie in [0, 1]")
        object.__setattr__(self, "values", _as_readonly(v))

    @property
    def n(self) -> int:
        return self.values.size

    @classmethod
    def ones(cls, n: int) -> "Strategy":
        """No vaccination at all."""
        return cls(np.ones(n))

    @classmethod
    def zeros(cls, n: int) -> "Strategy":
        """The whole population vaccinated."""
        return cls(np.zeros(n))

    @classmethod
    def indicator(cls, n: int, kept: "tuple[int, ...] | list[int]") -> "Strategy":
        """1 on ``kept`` (left non-vaccinated), 0 elsewhere."""
        v = np.zeros(n)
        v[list(kept)] = 1.0
        return cls(v)


@dataclass(frozen=True)
class CostFunction:
    """Affine vaccination cost c(eta) = sum_i coef_i mu_i (1 - eta_i).

    The uniform cost is the affine case with all coefficients equal to one;
    it measures the fraction of vaccinated individuals.  Coefficients are
    required strictly positive so that the cost is decreasing: vaccinating
    strictly more always costs strictly more.
    """

    kind: str
    coefficients: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "affine"):
            raise ValidationError(f"unknown cost kind {self.kind!r}")
        if self.kind == "uniform":
            if self.coefficients is not None:
                raise ValidationError("uniform cost takes no coefficients")
        else:
            c = np.asarray(self.coefficients, dtype=float)
            if c.ndim != 1 or c.size == 0:
                raise ValidationError("affine cost needs a coefficient vector")
            _check_finite(c, "cost coefficients")
            if np.any(c <= 0):
                raise ValidationError("affine cost coefficients must be positive")
            object.__setattr__(self, "coefficients", _as_readonly(c))

    @classmethod
    def uniform(cls) -> "CostFunction":
        return cls("uniform")

    @classmethod
    def affine(cls, coefficients) -> "CostFunction":
        return cls("affine", np.asarray(coefficients, dtype=float))

    def coefficient_vector(self, n: int) -> np.ndarray:
        if self.kind == "uniform":
            return np.ones(n)
        if self.coefficients.size != n:
            raise DimensionMismatch(
                f"cost has {self.coefficients.size} coefficients, model has {n} groups"
            )
        return np.asarray(self.coefficients)


@dataclass(frozen=True)
class GridKernelSpec:
    """Samples of a kernel k(x, y) at cell centers of a uniform grid on [0,1]^2."""

    grid_points: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        _check_int("grid_points", self.grid_points, 1)
        m = int(self.grid_points)
        s = np.asarray(self.samples, dtype=float)
        if s.shape != (m, m):
            raise ValidationError(
                f"samples must be {m}x{m}, got {'x'.join(map(str, s.shape))}"
            )
        _check_finite(s, "samples")
        if np.any(s < 0):
            raise ValidationError("kernel samples must be nonnegative")
        object.__setattr__(self, "grid_points", m)
        object.__setattr__(self, "samples", _as_readonly(s))

    def weights(self) -> np.ndarray:
        """Uniform cell weights, 1/M each."""
        return np.full(self.grid_points, 1.0 / self.grid_points)


def cost(cost_fn: CostFunction, model: MetapopModel, eta: Strategy) -> float:
    """Vaccination cost of ``eta``: sum of coef_i mu_i (1 - eta_i).

    Uses compensated summation so that e.g. vaccinating 6 of 12 uniform
    groups costs exactly 0.5.
    """
    values = model._values(eta)
    coef = cost_fn.coefficient_vector(model.n)
    terms = coef * model.weights * (1.0 - values)
    return math.fsum(terms.tolist())


def c_max(cost_fn: CostFunction, model: MetapopModel) -> float:
    """Cost of vaccinating everyone, C(0)."""
    return cost(cost_fn, model, Strategy.zeros(model.n))


def double_norm(model: MetapopModel, p: float) -> float:
    """Discrete L^p double norm of the kernel k_d(i,j) = K[i,j]/mu[j].

    Evaluates (sum_i mu_i (sum_j k_d(i,j)^q mu_j)^(p/q))^(1/p) with
    q = p / (p - 1).  Always finite in finite dimension; the kernel is
    rescaled by its maximum before exponentiation so that large q (p close
    to 1) cannot overflow, and the outer sum is taken relative to its
    largest inner term so that large p cannot underflow.  ``p`` must be
    finite.
    """
    if not (p > 1 and math.isfinite(p)):
        raise ValidationError("double norm needs a finite p > 1")
    q = p / (p - 1.0)
    kd = model.kernel()
    scale = float(kd.max())
    if scale == 0.0:
        return 0.0
    inner = ((kd / scale) ** q) @ model.weights
    top = float(inner.max())
    outer = float(model.weights @ (inner / top) ** (p / q))
    return scale * top ** (1.0 / q) * outer ** (1.0 / p)


def grid_to_model(spec: GridKernelSpec) -> MetapopModel:
    """Discretize a grid-sampled kernel into a metapopulation model.

    With M uniform cells, mu_i = 1/M and K[i, j] = k(x_i, x_j) / M, so that
    the discrete kernel reproduces the sampled values exactly.
    """
    m = spec.grid_points
    weights = _pin_weight_sum(np.full(m, 1.0 / m))
    return MetapopModel(weights=weights, matrix=spec.samples / m)


def _reject_nonfinite_token(token: str):
    raise ParseError(f"non-finite number {token!r} not allowed in input files")


def _read_json(path: str):
    """Parse a JSON file strictly: NaN and Infinity tokens are refused."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_nonfinite_token)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _load_json(path: str) -> dict:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top-level JSON object expected")
    return data


def load_model(path: str) -> MetapopModel:
    """Read a model file ``{"n":, "weights":, "matrix":, "labels"?}``.

    Weight sums within 1e-9 of one are renormalized; larger deviations are
    rejected.
    """
    data = _load_json(path)
    for key in ("n", "weights", "matrix"):
        if key not in data:
            raise ParseError(f"model file misses required key {key!r}")
    n = data["n"]
    if not _is_int(n):
        raise ParseError(f"model field 'n' must be a JSON integer, got {n!r}")
    try:
        weights = np.asarray(data["weights"], dtype=float)
        matrix = np.asarray(data["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"model file has malformed fields: {exc}") from exc
    if weights.shape != (n,):
        raise ValidationError(f"expected {n} weights, got shape {weights.shape}")
    if matrix.shape != (n, n):
        raise ValidationError(f"expected {n}x{n} matrix, got shape {matrix.shape}")
    _check_finite(weights, "weights")
    if np.any(weights <= 0):
        raise ValidationError("all weights must be strictly positive")
    s = math.fsum(weights.tolist())
    if abs(s - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(f"weights sum to {s!r}, off by more than 1e-9")
    weights = _pin_weight_sum(weights)
    labels = data.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ParseError("model field 'labels' must be a JSON list of strings")
        labels = tuple(labels)
    return MetapopModel(weights=weights, matrix=matrix, labels=labels)


def save_model(model: MetapopModel, path: str) -> None:
    """Write a model file that ``load_model`` reads back bit-exactly."""
    doc = {
        "n": model.n,
        "weights": [float(x) for x in model.weights],
        "matrix": [[float(x) for x in row] for row in model.matrix],
    }
    if model.labels is not None:
        doc["labels"] = list(model.labels)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, allow_nan=False)
        fh.write("\n")


def load_grid(path: str) -> GridKernelSpec:
    """Read a grid kernel file ``{"grid_points":, "samples":}``."""
    data = _load_json(path)
    for key in ("grid_points", "samples"):
        if key not in data:
            raise ParseError(f"grid file misses required key {key!r}")
    m = data["grid_points"]
    if not _is_int(m):
        raise ParseError(f"grid field 'grid_points' must be a JSON integer, got {m!r}")
    try:
        samples = np.asarray(data["samples"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"grid file has malformed fields: {exc}") from exc
    if samples.ndim != 2 or samples.shape != (m, m):
        raise ValidationError(
            f"expected {m}x{m} samples, got shape {samples.shape}"
        )
    return GridKernelSpec(grid_points=m, samples=samples)
