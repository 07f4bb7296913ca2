"""Exception types shared across the package."""


class CdcatError(Exception):
    pass


class InvalidArgument(CdcatError, ValueError):
    """An argument no call accepts: an unknown rig or rig operation, a
    negative size or exponent, a repeated basis name.  It is a ValueError
    too, so callers that catch ValueError keep working."""


class NegationUnsupported(CdcatError):
    """Raised when negation is requested in a rig without negatives."""


class SpecMismatch(CdcatError):
    """Operands belong to different rigs."""


class SpaceMismatch(CdcatError):
    """Module elements belong to different spaces."""


class ArityError(CdcatError):
    """Domain/codomain arities do not line up."""


class ObjectMismatch(CdcatError):
    """Morphisms are not composable."""


class IndexOutOfRange(CdcatError):
    pass


class ParseError(CdcatError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(ParseError):
    pass


class SizeLimit(CdcatError):
    """An enumeration would exceed the configured size bound."""


class NoFiniteSupport(CdcatError):
    """Iterated derivatives did not vanish within the configured bound."""


class DegreeBoundExceeded(CdcatError):
    """A co-Kleisli computation needs generators above the degree bound."""


class InvalidSequence(CdcatError):
    """A candidate derivative sequence fails symmetry/multilinearity."""
