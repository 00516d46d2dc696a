"""Symmetrizability detection and convexity classification of R_e.

A nonnegative matrix K is diagonally symmetrizable when positive d_i exist
with d_i K_ij = d_j K_ji; it is then similar to the symmetric matrix
M = D^(1/2) K D^(-1/2) and has a real spectrum.  ``MetapopModel`` derives d
and M once, accepting a balance within 1e-8 relative; ``spectral`` takes its
symmetric route on the same d where the balance holds to 1e-12.  For
symmetrizable K the inertia of M settles convexity: no negative eigenvalues
make R_e convex, a single positive eigenvalue makes it concave.  Outside the
symmetrizable class no verdict is available (the spectral conditions alone
are not sufficient), and a randomized probe can exhibit explicit violations
of both convexity and concavity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import MetapopModel, SymmetrizabilityResult, _check_int
from .spectral import _lapack, effective_re_batch, inertia, spectral_radius

WITNESS_GAP = 1e-6
LINEAR_GAP = 1e-12


def symmetrize(model: MetapopModel) -> SymmetrizabilityResult:
    """Diagonal symmetrizability of the model's K within 1e-8 relative: the
    balance the model derives once."""
    return model._balance


@dataclass(frozen=True)
class Witness:
    """A convexity or concavity violation: the midpoint gap at t between
    eta0 and eta1 has the claimed sign and magnitude."""

    eta0: np.ndarray
    eta1: np.ndarray
    t: float
    gap: float


@dataclass(frozen=True)
class ConvexityVerdict:
    verdict: str  # Convex | Concave | Linear | Indeterminate
    reason: str | None = None
    inertia: tuple[int, int] | None = None
    symmetrization: SymmetrizabilityResult | None = None
    convexity_violation: Witness | None = None
    concavity_violation: Witness | None = None
    trials: int | None = None
    seed: int | None = None


def _matrix_rank_one(k: np.ndarray) -> bool:
    s = _lapack(np.linalg.svd, k, compute_uv=False)
    return s.size == 1 or s[1] <= 1e-10 * max(s[0], 1e-300)


def classify_convexity(model: MetapopModel) -> ConvexityVerdict:
    """Theorem-backed verdict on the shape of eta -> R_e(eta).

    Symmetrizable with no negative eigenvalue: convex.  Symmetrizable with a
    single positive eigenvalue: concave.  Both at once forces rank one, hence
    linear, as does any rank-one (configuration) matrix.  Everything else is
    Indeterminate: the spectral conditions alone do not decide convexity.
    """
    sym = symmetrize(model)
    if sym.symmetrizable:
        p, neg = inertia(sym.symmetrized)
        if neg == 0 and p <= 1:
            return ConvexityVerdict(
                "Linear", "ConfigurationRankOne", (p, neg), sym
            )
        if neg == 0:
            return ConvexityVerdict("Convex", "SymmetrizablePSD", (p, neg), sym)
        if p == 1:
            return ConvexityVerdict(
                "Concave", "SymmetrizableSingleP", (p, neg), sym
            )
        return ConvexityVerdict("Indeterminate", "MixedInertia", (p, neg), sym)
    if _matrix_rank_one(model.matrix):
        return ConvexityVerdict("Linear", "ConfigurationRankOne", None, sym)
    return ConvexityVerdict("Indeterminate", "NotSymmetrizable", None, sym)


def probe_convexity(model: MetapopModel, trials: int, seed: int) -> ConvexityVerdict:
    """Randomized search for convexity and concavity violations.

    All trials draw from one generator seeded with ``seed``: first every
    trial's eta0, then every eta1, then one uniform per trial.  Trial i tests
    the chord gap at t = 0.25, 0.5, 0.75 for i mod 4 = 0, 1, 2, and at
    t = 0.05 + 0.9 u from its uniform u for i mod 4 = 3.  Gaps above 1e-6 in
    absolute value count as violations.
    """
    _check_int("trials", trials, 1)
    _check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    eta0 = rng.random((trials, model.n))
    eta1 = rng.random((trials, model.n))
    u = rng.random(trials)
    phase = np.arange(trials) % 4
    ts = np.where(phase < 3, (phase + 1) / 4.0, 0.05 + 0.9 * u)
    mid = ts[:, None] * eta0 + (1.0 - ts[:, None]) * eta1
    r0 = effective_re_batch(model, eta0)
    r1 = effective_re_batch(model, eta1)
    rm = effective_re_batch(model, mid)
    gaps = rm - (ts * r0 + (1.0 - ts) * r1)

    hi = int(np.argmax(gaps))
    lo = int(np.argmin(gaps))
    convexity_violation = None
    concavity_violation = None
    if gaps[hi] > WITNESS_GAP:
        convexity_violation = Witness(eta0[hi], eta1[hi], float(ts[hi]), float(gaps[hi]))
    if gaps[lo] < -WITNESS_GAP:
        concavity_violation = Witness(eta0[lo], eta1[lo], float(ts[lo]), float(gaps[lo]))

    lin_tol = LINEAR_GAP * max(1.0, spectral_radius(model.matrix))
    if convexity_violation and concavity_violation:
        verdict = "Indeterminate"
    elif np.abs(gaps).max() <= lin_tol:
        verdict = "Linear"
    elif convexity_violation is None:
        verdict = "Convex"
    else:
        verdict = "Concave"
    return ConvexityVerdict(
        verdict,
        None,
        None,
        None,
        convexity_violation,
        concavity_violation,
        trials=trials,
        seed=seed,
    )


@dataclass(frozen=True)
class SylvesterReport:
    base: tuple[int, int]
    scaled: tuple[int, int]

    @property
    def equal(self) -> bool:
        return self.base == self.scaled


def sylvester_check(t: np.ndarray, f: np.ndarray, g: np.ndarray) -> SylvesterReport:
    """Inertia of diag(f) . T . diag(g) against the inertia of T.

    For symmetric T and positive bounded f, g the two inertias agree; the
    report carries both pairs so the caller can assert equality.
    """
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValidationError("T must be square")
    if np.abs(t - t.T).max() > 1e-12 * max(np.abs(t).max(), 1e-300):
        raise ValidationError("T must be symmetric")
    for name, vec in (("f", f), ("g", g)):
        if vec.shape != (t.shape[0],):
            raise ValidationError(f"{name} must have length {t.shape[0]}")
        if np.any(vec < 1e-6) or np.any(vec > 1e6):
            raise ValidationError(f"{name} entries must lie in [1e-6, 1e6]")
    scaled = f[:, None] * t * g[None, :]
    return SylvesterReport(base=inertia(t), scaled=inertia(scaled))
