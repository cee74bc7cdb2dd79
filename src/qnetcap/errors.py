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
    """No longer raised by the package.

    It flagged a dephasing distribution with more than 1/2 on a phase
    rotation, an input whose capacity log2 d - H(p) is right on the whole
    simplex.  It is no longer exported from :mod:`qnetcap`, and is kept here
    only for the benchmark harness, whose warning filters still import it.
    """
