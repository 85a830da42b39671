"""Exception types shared across the package.

The command line front end maps these onto exit codes: malformed input is a
usage problem, a missing mathematical object is a negative verdict, and blown
enumeration budgets are resource failures. A failed internal invariant is a
bug in the package and gets its own code, so it never reads as bad input.
Every class here is raised by the package itself; test oracles that need an
error of their own define it next to the oracle.
"""


class LogCentreError(Exception):
    """Base class for all package-specific errors."""


class InputError(LogCentreError):
    """Malformed input document, unparsable value, or unknown named object."""


class PreconditionViolation(LogCentreError):
    """An operation was invoked on data outside its stated contract."""


class NotApplicable(LogCentreError):
    """The requested quantity does not exist for this input."""


class NonStandardBoundary(NotApplicable):
    """Cover constructions require boundary coefficients of the form (e-1)/e."""


class ResourceLimit(LogCentreError):
    """A desk-scale enumeration limit was exceeded."""


class NonterminationSuspected(LogCentreError):
    """Rewriting exceeded the configured step cap."""


class InternalError(LogCentreError):
    """An internal mathematical invariant failed: a bug, not bad input."""
