"""Spectral radius, full spectra, inertia and derivatives of R_e.

Three routes are kept deliberately:

* A K balanced to rounding, d_i K_ij = d_j K_ji within 1e-12 relative
  (``BALANCED_RTOL``) for the d that ``MetapopModel`` derives once, is
  similar to the symmetric M = D^(1/2) K D^(-1/2) (K itself when K is
  symmetric), and R_e(eta) = rho(S) with S = diag(sqrt(eta)) M
  diag(sqrt(eta)), since rho(AB) = rho(BA); S is symmetric and nonnegative,
  so its radius is its top eigenvalue.  ``effective_re``, its batch and the
  solver take it with ``eigvalsh``, backward stable and several times
  cheaper than general QR (above ``_DENSE_CUTOFF`` groups ``spectral_radius``
  of S, told that S is symmetric by construction); ``dominant_pair`` maps
  one ``eigh`` of S to the Perron pair through D^(1/2), raising
  ``NonSimple`` at a tied top.  ``re_gradient`` returns
  (M (sqrt(eta) * u))^2 / lam from the same ``eigh``'s top pair (lam, u),
  and never raises ``NonSimple``: this is the Perron gradient at a simple
  top, and at a tied one, as on the cycles, the top eigenvector's element
  of the generalized gradient.
  A one-group model, whose radius is its exact entry K00 * eta0, and a
  kernel balanced only to the 1e-8 of ``symmetrize`` take the general route.
* ``spectral_radius`` condenses the support digraph into its strongly
  connected blocks (the radius of a nonnegative matrix is the maximum over
  the diagonal blocks of its Frobenius form) and takes each block's radius
  with ``_block_radius``: a dense eigensolver (``eigvalsh`` for an exactly
  symmetric block, QR otherwise) up to ``_DENSE_CUTOFF`` groups, above it a
  shifted power iteration with ``s = 1 + max diagonal``.  The shift makes
  the block primitive, defeating periodicity such as even cycles whose
  peripheral spectrum contains ``-rho``, and the Collatz-Wielandt ratio
  bracket then closes geometrically, certifying the result two-sided.  A
  block whose bracket contracts too slowly to close within the iteration
  cap (n steps for a symmetric block, whose eigensolver is cheap) leaves
  the loop early for the dense eigensolver.
* Every other model, the general route, takes dense QR (LAPACK via
  ``numpy.linalg.eigvals``) in ``_dense_radius`` up to ``_DENSE_CUTOFF``
  groups, and ``spectral_radius`` above it.  ``dominant_pair`` (which
  raises ``NonSimple`` at a tied top) and the solver's atom gradients take
  their roots from one ``eig`` in ``_perron_roots``, or from the ``eig`` its
  caller hands it: the solver takes R_e at every point it visits from that
  ``eig`` (``_re_with_eig``, the same radius as QR's) and its gradient
  there from the same solve, except where the vectors would cost more than
  the gradient's own ``eig`` (see ``_re_with_eig``).  ``re_gradient`` is
  the top atom row; at a tie the rows cannot keep apart, the rows come from
  the effective atoms, the components of K on the groups with eta > 0, and
  ``NonSimple`` is raised only where a component's own top root is tied.
  ``full_spectrum`` runs the same QR for all N eigenvalues and their
  clusters; it is the spectrum behind ``inertia`` and the cross-check
  oracle in the criteria and the tests.

Input with an acyclic support has a radius of exactly zero on every route:
``spectral_radius`` condenses it into one-group blocks with zero loops, and
the balancing step of LAPACK's QR permutes it to triangular form, so
``eigvals`` returns its zero diagonal.  On the symmetric route a top
eigenvalue that is not positive gives +0.0.

Every ``numpy.linalg`` call goes through ``_lapack``, so a LAPACK failure
reaches the caller as ``NonConvergence`` naming the routine, never as
``LinAlgError``.  Where the inverse of the eigenvector matrix fails or is
not finite, the left vectors come from the transpose instead; a root whose
overlap <phi, v> is exactly 0 gets a zero gradient row and does not pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._graph import support_components
from .errors import (
    ComplexSpectrum,
    DimensionMismatch,
    NonConvergence,
    NonSimple,
    ValidationError,
    ZeroRadius,
)
from .model import BALANCED_RTOL, MetapopModel, Strategy

POWER_ITERATION_CAP = 10_000
_START_SEED = 20211215  # fixed start vector: results must not vary run-to-run
_CW_RTOL = 1e-13
_DENSE_CUTOFF = 48  # per block and per effective_re model: LAPACK wins up to here
_STALL_CHECK = 64  # power iterations between two measures of the bracket

CLUSTER_TOL = 1e-8  # times max(1, rho): QR backward-error scale
RESIDUAL_TOL = 1e-10  # times max(lambda, 1): eigenpair residual bound
SIMPLE_GAP_TOL = 1e-8  # times rho: gap defining a numerically simple root
TIE_WINDOW = 1e-3  # times rho: atom radii that count as tied with R_e
_LEAK_TOL = 1e-6  # times the largest entry: rounding of a gradient off its atom


def _validate_square(a: np.ndarray, nonnegative: bool) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValidationError("expected a non-empty square matrix")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix contains NaN or infinite entries")
    if nonnegative and np.any(m < 0):
        raise ValidationError("matrix entries must be nonnegative")
    return m


def _lapack(solve, a):
    """``solve(a)`` for a ``numpy.linalg`` routine ``solve``; a
    ``LinAlgError`` is raised as ``NonConvergence`` naming the routine."""
    try:
        return solve(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"{solve.__name__} failed: {exc}") from exc


def _dense_radius(a: np.ndarray) -> float:
    return float(np.abs(_lapack(np.linalg.eigvals, a)).max())


def _power_block(block: np.ndarray, cap: int = POWER_ITERATION_CAP) -> float | None:
    """Certified radius of an irreducible nonnegative block, None on stall.

    Iterates x -> (B + sI) x for the scaled block B; for x > 0 the
    Collatz-Wielandt ratios bracket the radius on both sides, and on an
    irreducible primitive block the bracket closes geometrically.  Every
    ``_STALL_CHECK`` iterations, a bracket that would not close within the
    cap at its contraction since the last checkpoint stalls at once.
    """
    n = block.shape[0]
    scale = block.max()
    work = block / scale
    shift = 1.0 + work.diagonal().max()
    work = work + shift * np.eye(n)
    rng = np.random.default_rng(_START_SEED)
    x = 0.5 + rng.random(n)
    x /= x.sum()
    checked = None  # bracket width at the last checkpoint
    for it in range(1, cap + 1):
        y = work @ x
        ratios = y / x
        width = float(ratios.max()) - float(ratios.min())
        lam = float(y.sum())
        x = y / lam
        tol = max(_CW_RTOL * (lam - shift), 1e-15 * lam)
        if width <= tol:
            return (lam - shift) * scale
        if it % _STALL_CHECK == 0:
            if checked is not None and _STALL_CHECK * math.log(width / tol) > (
                cap - it
            ) * math.log(checked / width):
                return None
            checked = width
    return None


def _symmetric_radius(s: np.ndarray) -> float:
    """Spectral radius of a symmetric nonnegative matrix: its top eigenvalue
    (Perron-Frobenius), +0.0 when that is not positive."""
    top = float(_lapack(np.linalg.eigvalsh, s)[-1])
    return top if top > 0.0 else 0.0


def _block_radius(block: np.ndarray, symmetric: bool = False) -> float:
    """Spectral radius of an irreducible nonnegative block: its loop entry
    for one group, a dense eigensolver up to ``_DENSE_CUTOFF`` groups, above
    it the certified power route or, when that stalls, the dense eigensolver.
    The dense eigensolver is ``eigvalsh`` for an exactly symmetric block and
    QR otherwise.  ``eigvalsh`` costs on the order of n power steps (about
    n / 2 at 200 to 400 groups), so a symmetric block gives the power route
    n steps rather than the full cap: a fast-mixing block still closes its
    bracket at a tenth of the eigensolver's cost, and a slow one stalls
    within n steps and pays about two to three times the eigensolver.
    ``symmetric=True`` says the block is known to be exactly symmetric, so
    that it is not compared with its transpose."""
    n = block.shape[0]
    if n == 1:
        return float(block[0, 0])
    symmetric = symmetric or np.array_equal(block, block.T)
    if n > _DENSE_CUTOFF:
        value = _power_block(block, n if symmetric else POWER_ITERATION_CAP)
        if value is not None:
            return value
    return _symmetric_radius(block) if symmetric else _dense_radius(block)


def spectral_radius(a: np.ndarray, symmetric: bool = False) -> float:
    """Spectral radius of a nonnegative matrix, exactly 0 for nilpotent input:
    the largest ``_block_radius`` over the strongly connected blocks of its
    support.  ``symmetric=True`` says that ``a`` is known to be exactly
    symmetric, as the symmetric route builds it; its blocks are then not
    compared with their transposes."""
    m = _validate_square(a, nonnegative=True)
    _, sccs = support_components(m)
    return max(_block_radius(m[np.ix_(comp, comp)], symmetric) for comp in sccs)


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of a matrix with clustered multiplicities.

    ``clusters`` pairs a representative eigenvalue with its algebraic
    multiplicity; multiplicities sum to N.  ``p_count``/``n_count`` count the
    eigenvalues with real part beyond ``tol`` of either sign and near-zero
    imaginary part, with multiplicity.
    """

    values: np.ndarray
    clusters: tuple[tuple[complex, int], ...]
    radius: float
    p_count: int
    n_count: int
    is_real: bool
    tol: float

    @property
    def n(self) -> int:
        return self.values.size


def _cluster_eigenvalues(values: np.ndarray, tol: float):
    clusters: list[list] = []
    for lam in values:
        placed = False
        for entry in clusters:
            centre = entry[0] / entry[1]
            if abs(lam - centre) <= tol:
                entry[0] += lam
                entry[1] += 1
                placed = True
                break
        if not placed:
            clusters.append([lam, 1])
    return tuple((complex(s / m), int(m)) for s, m in clusters)


def full_spectrum(a: np.ndarray) -> Spectrum:
    """All N eigenvalues via Hessenberg reduction and shifted QR."""
    m = _validate_square(a, nonnegative=False)
    values = _lapack(np.linalg.eigvals, m)
    radius = float(np.abs(values).max())
    tol = CLUSTER_TOL * max(1.0, radius)
    order = np.lexsort((-values.imag, -values.real))
    values = values[order]
    clusters = _cluster_eigenvalues(values, tol)
    is_real = bool(np.all(np.abs(values.imag) <= tol))
    near_real = np.abs(values.imag) <= tol
    p_count = int(np.sum((values.real > tol) & near_real))
    n_count = int(np.sum((values.real < -tol) & near_real))
    return Spectrum(
        values=values,
        clusters=clusters,
        radius=radius,
        p_count=p_count,
        n_count=n_count,
        is_real=is_real,
        tol=tol,
    )


def inertia(a: np.ndarray) -> tuple[int, int]:
    """Counts (p, n) of positive and negative eigenvalues with multiplicity."""
    spec = full_spectrum(a)
    if not spec.is_real:
        raise ComplexSpectrum("matrix has eigenvalues with significant imaginary part")
    return spec.p_count, spec.n_count


def _route(model: MetapopModel) -> np.ndarray | None:
    """M = D^(1/2) K D^(-1/2) when the symmetric route applies: several
    groups, and d_i K_ij = d_j K_ji to rounding (``BALANCED_RTOL``)."""
    balance = model._balance
    return balance.symmetrized if model.n > 1 and balance.residual <= BALANCED_RTOL else None


def _symmetrized(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """diag(sqrt(x)) M diag(sqrt(x)), exactly symmetric (the outer product is
    formed first), with the spectrum of K . diag(x): M diag(x) is similar to
    K diag(x), and rho(AB) = rho(BA).  On a (B, N) stack, the (B, N, N)
    stack."""
    r = np.sqrt(x)
    return (r[..., :, None] * r[..., None, :]) * m


def _dense_general(model: MetapopModel) -> bool:
    """Whether R_e at every strategy is dense QR on K . diag(x): the general
    route up to ``_DENSE_CUTOFF`` groups, the one rule behind both
    ``_matrix_re`` and the solver's ``_re_with_eig``."""
    return model.n <= _DENSE_CUTOFF and _route(model) is None


def _matrix_re(model: MetapopModel, x: np.ndarray) -> float:
    """R_e at the strategy values ``x``: the one route choice of
    ``effective_re``, for callers such as the solver's inner loop.

    A model on the symmetric route goes to ``eigvalsh`` on its symmetrized
    matrix up to ``_DENSE_CUTOFF`` groups, above it to ``spectral_radius``
    of that matrix, whose symmetric blocks take ``eigvalsh`` when the power
    route does not close within n steps; any other model to dense QR on
    K . diag(x), above the cutoff to ``spectral_radius``.
    """
    if _dense_general(model):
        return _dense_radius(model.matrix * x)
    m = _route(model)
    if m is not None:
        effective = _symmetrized(m, x)
        if model.n <= _DENSE_CUTOFF:
            return _symmetric_radius(effective)
        return spectral_radius(effective, symmetric=True)
    return spectral_radius(model.matrix * x)


def effective_re(model: MetapopModel, eta: Strategy) -> float:
    """Effective reproduction number: spectral radius of K . diag(eta).

    A K balanced to rounding takes the symmetric eigensolver on
    diag(sqrt(eta)) M diag(sqrt(eta)), which has the same spectrum.  Other
    desk-scale models are evaluated by the dense QR spectrum, larger ones by
    the certified iterative route; the routes agree to 1e-12 relative
    (standing cross-checks in the tests).
    """
    return _matrix_re(model, model._values(eta))


def effective_re_batch(model: MetapopModel, etas: np.ndarray) -> np.ndarray:
    """R_e for each row of a (B, N) array of strategies.

    A model on the symmetric route takes one stacked ``eigvalsh`` of the
    symmetrized matrices, whose radius is zero only for the zero matrix.  Any
    other model takes one batched QR spectrum call, which gives exactly zero
    on a row whose effective support is acyclic.  A LAPACK failure on any row raises
    ``NonConvergence``.  Rows are checked as ``Strategy`` checks its values.
    The certified iterative route remains ``spectral_radius``.
    """
    etas = np.asarray(etas, dtype=float)
    if etas.ndim != 2 or etas.shape[1] != model.n:
        raise DimensionMismatch("etas must be a (B, N) array matching the model")
    if not ((etas >= 0.0) & (etas <= 1.0)).all():
        raise ValidationError("strategy entries must be finite and lie in [0, 1]")
    m = _route(model)
    if m is not None:
        top = _lapack(np.linalg.eigvalsh, _symmetrized(m, etas))[:, -1]
        return np.where(top > 0.0, top, 0.0)
    mats = model.matrix[None, :, :] * etas[:, None, :]
    return np.abs(_lapack(np.linalg.eigvals, mats)).max(axis=-1)


@dataclass(frozen=True)
class EigenPair:
    """Dominant eigenvalue with right/left eigenvectors.

    ``right`` is nonnegative with unit l1 norm, ``left`` is nonnegative and
    scaled so that <left, right> = 1.
    """

    value: float
    right: np.ndarray
    left: np.ndarray


def _symmetric_top(m: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues, ascending, of S = diag(r) M diag(r), r = sqrt(x), and
    the unit eigenvector u of the top one, from one ``eigh``."""
    values, vectors = _lapack(np.linalg.eigh, _symmetrized(m, x))
    if values[-1] <= 0.0:
        raise ZeroRadius("effective matrix is quasi-nilpotent")
    return values, vectors[:, -1]


def _symmetric_pair(model: MetapopModel, m: np.ndarray, x: np.ndarray,
                    lam: float, u: np.ndarray) -> EigenPair:
    """Perron pair of K . diag(x) from the simple top eigenpair (lam, u) of
    S = diag(r) M diag(r), r = sqrt(x), M = D^(1/2) K D^(-1/2).  For
    S u = lam u, phi = r * u is a left and M phi a right eigenvector of
    M . diag(x), so sqrt(d) * phi is a left and (M phi) / sqrt(d) a right
    eigenvector of K . diag(x)."""
    r = np.sqrt(x)
    phi = np.maximum(r * u if u.sum() >= 0.0 else -r * u, 0.0)
    root_d = np.sqrt(model._balance.d)
    v = (m @ phi) / root_d
    right = v / v.sum()
    left = root_d * phi
    return EigenPair(value=lam, right=right, left=left / float(left @ right))


def _left_rows(effective: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Left vectors of the eigenvalues ``lams`` of ``effective``, one row
    each: the eigenvectors of its transpose's eigenvalues nearest them."""
    values_t, vectors_t = _lapack(np.linalg.eig, effective.T)
    match = np.abs(values_t[:, None] - lams[None, :]).argmin(axis=0)
    return vectors_t[:, match].real.T


def _perron_rows(k, x, lams, v, phi):
    """The gradients (K^T phi) * v / <phi, v> of the eigenvalues ``lams`` of
    K . diag(x), one row each, and which of them pass for Perron roots: a
    real eigenvalue, a gradient nonnegative up to ``_LEAK_TOL``, and a left
    residual within ``RESIDUAL_TOL`` max(lambda, 1) of the size of phi, in
    Python floats over the few rows.  A row whose overlap <phi, v> is
    exactly 0 becomes a zero row, which does not pass.  ``NonConvergence``
    if phi is not finite."""
    sizes = np.abs(phi).max(axis=1).tolist()
    if not math.isfinite(sum(sizes)):
        raise NonConvergence("left vectors are not finite")
    kt_phi = phi @ k  # row i is (K^T phi_i)^T, and times x it is phi_i^T K diag(x)
    overlap = (phi * v).sum(axis=1)
    if 0.0 in overlap.tolist():
        overlap[overlap == 0.0] = math.inf
    grads = kt_phi * v
    grads /= overlap[:, None]
    residual = np.abs(kt_phi * x - lams.real[:, None] * phi).max(axis=1)
    kept = np.array([
        imag == 0.0 and top > 0.0 and low >= -_LEAK_TOL * top
        and res <= RESIDUAL_TOL * max(lam, 1.0) * size
        for imag, lam, top, low, res, size in zip(
            lams.imag.tolist(), lams.real.tolist(), grads.max(axis=1).tolist(),
            grads.min(axis=1).tolist(), residual.tolist(), sizes,
        )
    ])
    return grads, kept


def _eig(effective: np.ndarray):
    """(rho, eigenvalues, right eigenvector matrix) of ``effective`` from
    one ``eig``; rho is the largest modulus, as ``_dense_radius`` takes it."""
    values, vectors = _lapack(np.linalg.eig, effective)
    return float(np.abs(values).max()), values, vectors


def _re_with_eig(model: MetapopModel, x: np.ndarray, vectors: bool):
    """R_e at the strategy values ``x`` for the solver, which evaluates every
    point it visits here, and the solve behind it for ``_perron_roots``.

    Where ``_dense_general`` holds and the caller asks for ``vectors`` (it
    will take an eigen-gradient at x if it accepts x), that is one ``eig``
    of K . diag(x), whose (rho, values, vectors) the gradient reuses: its
    rho is ``_matrix_re``'s float, as LAPACK's ``dgeev`` balances, reduces
    and sweeps the active block alike with or without vectors.  Elsewhere
    it is ``_matrix_re`` and None.

    Whether that pays depends on the evaluations per accepted point: one
    ``eig`` costs 1.25 (6 groups) to 1.7 (48 groups) times an ``eigvals``,
    and saves the gradient 2 to 5 times that difference.  Timing both
    solves at every call of ``_pgd`` runs on general-route draws of 6 to 48
    groups, the runs of one Perron root and the maximizing runs, 1.0 to 2.5
    evaluations per accepted point, gain at every size; the several-atom
    minimizing runs, about 3.3, gain up to 14 groups and lose from 16 on.
    So ``_pgd`` asks for ``vectors`` on those only up to its
    ``_HULL_EIG_GROUPS``.
    """
    if vectors and _dense_general(model):
        solved = _eig(model.matrix * x)
        return solved[0], solved
    return _matrix_re(model, x), None


def _perron_roots(k: np.ndarray, x: np.ndarray, window: float, solved=None):
    """The roots of K . diag(x) within ``window`` rho of its spectral radius
    rho, the largest first, from one ``eig``: (rho, their eigenvalues, right
    vectors v and left vectors phi as rows, their ``_perron_rows`` gradients
    clipped at zero, and which of them pass for Perron roots).

    A caller that has already solved K . diag(x), as the solver has at every
    point it visits (``_re_with_eig``), hands that ``_eig`` over as
    ``solved``, and no ``eig`` of its own is made.

    The left vectors are the roots' rows of the inverse eigenvector matrix.
    A defective eigenvalue elsewhere, such as the zero cluster of a strategy
    with several zeros, can leave that inverse singular, inaccurate or not
    finite; where it fails or rho's row does not pass, they come from one
    ``eig`` of the transpose instead.

    Raises ``ZeroRadius`` when rho = 0, ``NonSimple`` when the window holds
    no eigenvalue (one of largest modulus is complex or defective), and
    ``NonConvergence`` when a solve fails or rho's root does not pass.
    """
    rho, values, vectors = solved if solved is not None else _eig(k * x)
    if rho <= 0.0:
        raise ZeroRadius("effective matrix is quasi-nilpotent")
    near = np.flatnonzero(np.abs(values - rho) <= window * rho)
    if len(near) == 0:
        raise NonSimple("no eigenvalue lies at the spectral radius")
    if len(near) > 1:
        near = near[np.argsort(-values[near].real, kind="stable")]
    lams = values[near]
    v = vectors[:, near].real.T
    try:
        phi = _lapack(np.linalg.inv, vectors)[near].real
        grads, kept = _perron_rows(k, x, lams, v, phi)
    except NonConvergence:
        kept = None
    if kept is None or not kept[0]:
        phi = _left_rows(k * x, lams)
        grads, kept = _perron_rows(k, x, lams, v, phi)
        if not kept[0]:
            raise NonConvergence("the dominant eigenvalue gives no Perron gradient")
    return rho, lams, v, phi, np.maximum(grads, 0.0, out=grads), kept


def _checked_pair(effective, lam, v, phi) -> EigenPair | None:
    """The ``EigenPair`` of the right vector v and left vector phi of
    ``effective`` at lam, or None unless each is of one sign, they overlap
    and both residuals are within ``RESIDUAL_TOL`` max(lam, 1)."""
    v, phi = (u if u.sum() >= 0.0 else -u for u in (v, phi))
    if not (v.min() >= -1e-12 * v.max() and phi.min() >= -1e-12 * phi.max()):
        return None
    right = np.maximum(v, 0.0)
    right /= right.sum()
    left = np.maximum(phi, 0.0)
    overlap = float(left @ right)
    if overlap <= 0.0:
        return None
    left /= overlap
    bound = RESIDUAL_TOL * max(lam, 1.0)
    if not (np.abs(effective @ right - lam * right).max() <= bound
            and np.abs(effective.T @ left - lam * left).max() <= bound):
        return None
    return EigenPair(value=lam, right=right, left=left)


def dominant_pair(model: MetapopModel, eta: Strategy) -> EigenPair:
    """Perron eigenpair of the effective matrix.

    Raises ``ZeroRadius`` when rho = 0 and ``NonSimple`` when the dominant
    eigenvalue is not simple within the 1e-8 relative gap threshold.

    A model on the symmetric route takes one ``eigh`` of
    diag(sqrt(eta)) M diag(sqrt(eta)) and maps its top eigenvector to the
    pair.  Any other model takes rho's vectors from ``_perron_roots``; a
    pair that fails ``_checked_pair`` takes its left vector from the
    transpose instead, and raises ``NonConvergence`` if it still fails.
    """
    x = model._values(eta)
    m = _route(model)
    if m is not None:
        values, u = _symmetric_top(m, x)
        lam = float(values[-1])
        if (np.abs(values - lam) <= SIMPLE_GAP_TOL * lam).sum() > 1:
            raise NonSimple("dominant eigenvalue is not simple within the 1e-8 gap threshold")
        return _symmetric_pair(model, m, x, lam, u)
    _, lams, v, phi, _, _ = _perron_roots(model.matrix, x, SIMPLE_GAP_TOL)
    if len(lams) > 1:
        raise NonSimple("dominant eigenvalue is not simple within the 1e-8 gap threshold")
    effective = model.matrix * x
    lam = float(lams[0].real)
    pair = (_checked_pair(effective, lam, v[0], phi[0])
            or _checked_pair(effective, lam, v[0], _left_rows(effective, lams)[0]))
    if pair is None:
        raise NonConvergence("the dominant eigenpair fails its sign or residual checks")
    return pair


def _atom_gradients(model: MetapopModel, x: np.ndarray, solved=None) -> np.ndarray:
    """Gradients of the atom radii within ``TIE_WINDOW`` rho of rho, one row
    each, the largest radius first, at the strategy values ``x``, from the
    ``_eig`` of K . diag(x) in ``solved`` where the caller has it.

    The roots of ``_perron_roots`` that pass for Perron roots are the atom
    radii: the gradient (K^T phi) * v / <phi, v> of one lives on its atom
    alone, since v vanishes on the groups the atom does not infect and
    K^T phi on those that do not infect it.

    Two eigenvalues in the window within the 1e-8 gap threshold of each
    other are kept apart where both pass and their gradients share no group
    (two atoms whose radii tie exactly, as at a Pareto optimum, that the
    eigensolver kept apart).  Elsewhere the rows are those of the effective
    atoms, the components of K on {x > 0}, each block solved on its own.
    Raises as ``_perron_roots`` does, and ``NonSimple`` where a block's own
    top root is tied.
    """
    rho, lams, _, _, grads, kept = _perron_roots(model.matrix, x, TIE_WINDOW, solved)
    if len(lams) > 1:
        # Each eigenvalue is tied with itself; any other tie must be between
        # atoms whose pairs the eigensolver kept apart.
        tied = np.abs(np.subtract.outer(lams, lams)) <= SIMPLE_GAP_TOL * rho
        if tied.sum() > len(lams):
            top = grads.max(axis=1)
            disjoint = (grads @ grads.T) <= _LEAK_TOL * np.outer(top, top)
            if (tied & ~(np.outer(kept, kept) & disjoint)).sum() > len(lams):
                return _effective_atom_rows(model.matrix, x, rho)
        grads = grads[kept]
    return grads


def _effective_atom_rows(k: np.ndarray, x: np.ndarray, rho: float) -> np.ndarray:
    """The top rows, zero off their blocks, of the components of K on
    {x > 0} whose radii lie within ``TIE_WINDOW`` rho of rho, the largest
    first: R_e is the largest of their radii (the Frobenius decomposition
    of K . diag(x))."""
    live = np.flatnonzero(x > 0.0)
    found = []
    for comp in support_components(k[np.ix_(live, live)])[1]:
        block = live[comp]
        if len(block) == 1 and k[block[0], block[0]] == 0.0:
            continue  # radius zero
        radius, lams, _, _, grads, _ = _perron_roots(
            k[np.ix_(block, block)], x[block], SIMPLE_GAP_TOL)
        if len(lams) > 1:
            raise NonSimple("eigenvalues tied within the 1e-8 gap threshold")
        if abs(radius - rho) <= TIE_WINDOW * rho:
            row = np.zeros(x.size)
            row[block] = grads[0]
            found.append((radius, row))
    found.sort(key=lambda pair: -pair[0])
    return np.array([row for _, row in found])


def re_gradient(model: MetapopModel, eta: Strategy) -> np.ndarray:
    """Gradient of eta -> rho(K . diag(eta)) at eta.

    Differentiating K diag(eta) v = lambda v for a simple lambda gives
    d lambda / d eta_j = (K^T phi)_j v_j / <phi, v>.

    A model on the symmetric route returns (M phi)^2 / lam, phi = r * u,
    for the top eigenpair (lam, u) of one ``eigh`` of S = diag(r) M diag(r),
    r = sqrt(eta).  At a simple lam that is the formula above, with left
    vector sqrt(d) * phi, right vector (M phi) / sqrt(d) and phi^T M phi =
    lam.  At a lam tied within the 1e-8 gap threshold, as on the cycles, it
    is u's element lam u^2 / eta (as M phi = lam u / r) of the generalized
    gradient {lam diag(U Z U^T) / eta : Z >= 0, tr Z = 1} for the cluster's
    basis U (Overton 1992; Lewis and Overton 1996): nonnegative, with
    eta . g = lam, and finite at eta_j = 0.  It never raises ``NonSimple``.

    Every other model returns the top row of ``_atom_gradients`` and raises
    as that does: ``NonSimple`` only at a tie within one effective atom.
    """
    x = model._values(eta)
    m = _route(model)
    if m is None:
        return _atom_gradients(model, x)[0]
    values, u = _symmetric_top(m, x)
    return (m @ (np.sqrt(x) * u)) ** 2 / values[-1]
