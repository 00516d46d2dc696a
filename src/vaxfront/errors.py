"""Exception types shared across the package."""


class VaxfrontError(Exception):
    """Base class for all package errors."""


class ParseError(VaxfrontError):
    """Input file is not valid JSON or does not match the expected schema."""


class ValidationError(VaxfrontError):
    """Data is well-formed but violates a model invariant."""


class DimensionMismatch(VaxfrontError):
    """Operands whose dimensions must agree do not."""


class NonConvergence(VaxfrontError):
    """Both the iterative eigensolver and its dense fallback failed."""


class ZeroRadius(VaxfrontError):
    """The effective matrix has spectral radius zero; no dominant eigenpair."""


class NonSimple(VaxfrontError):
    """The dominant eigenvalue is not simple; gradient information undefined."""


class ComplexSpectrum(VaxfrontError):
    """An operation requiring a real spectrum met complex eigenvalues."""


class NotDisconnecting(VaxfrontError):
    """The strategy does not disconnect the surviving sub-population."""


class PreconditionFailed(VaxfrontError):
    """A precondition of the requested analysis does not hold."""
