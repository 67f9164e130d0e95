"""Exception types shared across the package.

ContractError covers violated preconditions and malformed certificates,
CapacityError covers inputs beyond the documented exhaustive-search ceilings,
ParseError covers malformed pattern/certificate/observation files, and
GenericityError covers completions that fail because the observed values are
not generic enough (resample and retry).  The CLI maps ParseError, ContractError
and CapacityError to exit code 2; GenericityError is a negative answer (exit 1).
"""


class DetmatroidError(Exception):
    """Base class for all package errors."""


class ContractError(DetmatroidError):
    """A documented precondition or invariant was violated by the caller."""


class CapacityError(ContractError):
    """Input exceeds a documented exhaustive-computation ceiling."""


class ParseError(DetmatroidError):
    """Malformed input text; message names the offending line or field."""


class GenericityError(DetmatroidError):
    """Observed values are not generic; carries the failing column support."""

    def __init__(self, message, phi=None):
        super().__init__(message)
        self.phi = phi
