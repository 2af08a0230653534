"""Exception types shared across the toolkit."""


class BranekitError(Exception):
    """Base class for all toolkit errors."""


class NonDegenerateRequired(BranekitError):
    """A 2-form that must be non-degenerate is (numerically) degenerate."""


class NotAlmostComplex(BranekitError):
    """A linear map fails to square to -Id within tolerance."""


class NotPointwiseBrane(NotAlmostComplex):
    """The candidate complex structure fails I^2 = -Id at some grid point."""


class WrongSpace(BranekitError):
    """Operation requires the torus cohomology model."""


class SpaceMismatch(BranekitError):
    """Classes from different intersection spaces were combined."""


class SignatureMismatch(BranekitError):
    """Requested squares cannot be realised on the spanned subspace."""


class NonPositiveSquare(BranekitError, ValueError):
    """A class that must have positive square does not."""


class NonFiniteMatrix(BranekitError):
    """A matrix whose signature or rank is asked for holds NaN or inf."""


class DegenerateSubspace(BranekitError):
    """A Gram-Schmidt pivot norm fell below tolerance."""


class TargetOutsideSpan(BranekitError):
    """Target class does not lie in the span of the brane and symplectic classes."""


class NotInQuadric(BranekitError):
    """Class fails the quadric membership conditions."""


class DegenerateQuadric(BranekitError):
    """Quadratic part is degenerate; no normal form sum(+-x_i^2) = 1 exists."""


class WalkTooLarge(BranekitError):
    """A grid walk whose flat indices or residue sums would not fit int64;
    a walk's memory follows its block, so nothing else refuses one."""


class SchemaError(BranekitError):
    """An input file does not conform to the expected JSON schema."""
