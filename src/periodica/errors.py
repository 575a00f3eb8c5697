"""Exception types shared across the package."""


class PeriodicaError(Exception):
    """Base class for every error raised by this package."""


class NonUnitError(PeriodicaError):
    """Inversion requested for a ring element of positive valuation (or zero)."""


class NotDivisibleError(PeriodicaError):
    """Exact division failed: the quotient does not lie in the local ring."""


class DimensionMismatchError(PeriodicaError):
    """Matrix or complex dimensions are incompatible."""


class FieldMismatchError(PeriodicaError):
    """Operands live over different coefficient fields."""


class CompositeNotZeroError(PeriodicaError):
    """A pair of maps expected to compose to zero does not."""


class InvalidChainMapError(PeriodicaError):
    """Matrices fail the chain-map commutation identities."""


class NotInvertibleError(PeriodicaError):
    """Matrix is not invertible over the local ring."""


class NotAComplexError(PeriodicaError):
    """Differentials do not compose to zero."""


class NotMinimalError(PeriodicaError):
    """Differential entries were required to lie in the maximal ideal."""


class NotFiniteLengthError(PeriodicaError):
    """Operation requires finite-length cohomology."""


class ParseError(PeriodicaError):
    """Malformed input document or ring-element string."""


class SizeLimitError(PeriodicaError):
    """A construction would exceed the package's size budget."""


class ValidationError(PeriodicaError):
    """Well-formed input that violates a mathematical invariant."""
