"""Exception types shared across the package, each carrying its exit code.

The command line front end reads each class's ``exit_code``: malformed input
is a usage problem (InputError, 2), a missing mathematical object is a
negative verdict (NotApplicable, 3), a blown work budget is a resource failure
(ResourceLimit, 4), and a failed internal invariant is a bug in the package
(InternalError, 5), so it never reads as bad input. A bad argument to a
library function is a plain ValueError, which it reports as bad input. Test
oracles that need an error of their own define it next to the oracle.
"""


class LogCentreError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class InputError(LogCentreError):
    """Malformed input document, unparsable value, or unknown named object."""


class NotApplicable(LogCentreError):
    """The requested quantity does not exist for this input."""

    exit_code = 3


class ResourceLimit(LogCentreError):
    """A desk-scale work limit was exceeded."""

    exit_code = 4

    @classmethod
    def over(cls, work: str, name: str, limit) -> "ResourceLimit":
        """The one refusal of every work limit: "WORK, above the limit NAME = LIMIT"."""
        return cls(f"{work}, above the limit {name} = {limit}")


class InternalError(LogCentreError):
    """An internal mathematical invariant failed: a bug, not bad input."""

    exit_code = 5
