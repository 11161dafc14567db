"""Exception types shared across the package.

Everything derives from ObrskError so callers (and the CLI) can distinguish
bad input (ValidationError) from an internal consistency check that failed
(VerificationError).
"""


class ObrskError(Exception):
    pass


class ValidationError(ObrskError, ValueError):
    """Input data does not satisfy a documented precondition."""


class VerificationError(ObrskError, AssertionError):
    """An internal cross-check that should always hold has failed."""


# -- tableaux ----------------------------------------------------------------

class ShapeMismatch(ValidationError):
    """The two tableaux of a bitableau do not have the same shape."""


class NotSemistandard(ValidationError):
    pass


class NotSkewSymmetric(ValidationError):
    pass


class EmptyBitableau(ValidationError):
    pass


# -- arrays ------------------------------------------------------------------

class LengthMismatch(ValidationError):
    pass


class InvalidPair(ValidationError):
    """A two-row array pair violates the skew lexicographic conditions."""


class VanishingColumn(ValidationError):
    """A column with equal top and bottom entry has no sign."""


class NotNegative(ValidationError):
    pass


# -- correspondence ----------------------------------------------------------

class BoundViolation(ValidationError):
    """Bounded insertion called with an entry not below its bound."""


class PathShapeMismatch(ValidationError):
    """An insertion path does not fit the tableau it is replayed on."""


# -- grassmannian ------------------------------------------------------------

class NotInId(ValidationError):
    """An entry list is not an admissible d-subset of {1, ..., 2d}."""


class MixedSigns(ValidationError):
    """A chain mixes positive and negative grid points where one sign is required."""


class BoundsNotComparable(ValidationError):
    """A triple is not alpha <= beta <= gamma in one I(d)."""


class SignAssertionFailure(VerificationError):
    """A derived plane set did not have the sign the theory guarantees."""


# -- ideal -------------------------------------------------------------------

class DimensionMismatch(ValidationError):
    pass


class ContextMismatch(ValidationError):
    """Polynomials from different term-order contexts were combined."""
