"""Exception and warning types shared across the package."""


class QnetcapError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameter(QnetcapError, ValueError):
    """A numeric field is outside its allowed range.

    Carries the offending field name so callers can report exactly what
    was wrong instead of a bare message.
    """

    def __init__(self, field, value, requirement):
        self.field = field
        self.value = value
        self.requirement = requirement
        super().__init__(f"{field}={value!r}: {requirement}")


class ParseError(QnetcapError, ValueError):
    """Input document does not decode as JSON; for malformed JSON, with position."""


class ValidationError(QnetcapError, ValueError):
    """A structurally valid document violates a network invariant."""


class UnknownEdge(QnetcapError, KeyError):
    """An edge id does not exist in the network."""


class NoRoute(QnetcapError):
    """Alice and Bob are disconnected.

    Raised instead of returning 0 because a capacity of exactly 0 is a
    legitimate value (e.g. dephasing at the uniform distribution) and must
    stay distinguishable from the absence of any route.
    """


class TooLarge(QnetcapError, ValueError):
    """Network exceeds the size cap of the brute-force oracle."""


class ParameterRegimeWarning(UserWarning):
    """Input is valid but outside the regime usually quoted for a formula."""
