"""Exception types shared across the package.

Every error the library raises on purpose is a PhstabError. The CLI exits 1
on VerificationFailed and 2 on every other one.
"""


class PhstabError(Exception):
    """Base class for all package-specific errors."""


class InsufficientPrecision(PhstabError):
    """A certified decision could not be made at the available precision or
    resolution (an enclosure straddling an integer, a quadrature grid cap)."""


class TableExhausted(PhstabError):
    """A convergent table is too short for the requested operation."""


class OutOfRange(PhstabError):
    """A value lies outside the range a computation covers."""


class SingularMatrix(PhstabError):
    """A boundary matrix is singular: its determinant enclosure contains
    zero, or its smallest singular value is below the solver's tolerance."""


class ValidationError(PhstabError, ValueError):
    """An input the library refuses; the message names the offending value."""


class VerificationFailed(PhstabError):
    """A certified check of a proven statement came out false."""
