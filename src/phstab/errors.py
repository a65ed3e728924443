"""Exception types shared across the package."""


class PhstabError(Exception):
    """Base class for all package-specific errors."""


class InsufficientPrecision(PhstabError):
    """A certified decision could not be made at the available precision."""


class TableExhausted(PhstabError):
    """A convergent table is too short for the requested operation."""


class CeilingUndecidable(PhstabError):
    """An enclosure straddles an integer so the ceiling is uncertain."""


class MonotonicityViolation(PhstabError):
    """A tabulated decay target is not decreasing."""


class OutOfRange(PhstabError):
    """Requested evaluation point lies outside the covered range."""


class SingularMatrix(PhstabError):
    """A boundary-matrix determinant enclosure contains zero."""


class SingularBoundaryMatrix(SingularMatrix):
    """The boundary matrix of a resolvent solve is (numerically) singular."""


class QuadratureTooCoarse(PhstabError):
    """Residual stayed above tolerance after the node-doubling cap."""


class ExpOverflow(PhstabError):
    """Matrix exponential entries exceeded the representable range."""


class MissingCertificate(PhstabError):
    """A rate theorem requiring positive increase was invoked without one."""


class BelowRange(PhstabError):
    """Inverse requested below the start of the function's range."""


class ValidationError(PhstabError):
    """A system invariant is violated; message names the offending matrix."""


class VerificationFailed(PhstabError):
    """A certified check of a proven statement came out false."""
