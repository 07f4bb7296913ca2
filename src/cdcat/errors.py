"""Exception types shared across the package."""


class CdcatError(Exception):
    pass


class InvalidArgument(CdcatError, ValueError):
    """An argument no call accepts: an unknown rig or rig operation, a
    negative size or exponent, a repeated basis name.  It is a ValueError
    too, so callers that catch ValueError keep working."""


def nonnegative(n, what: str):
    """n, refused with InvalidArgument when it is negative."""
    if n < 0:
        raise InvalidArgument(f"{what} must be nonnegative, got {n}")
    return n


def in_range(i, n: int, what: str):
    """i, refused with IndexOutOfRange unless 0 <= i < n."""
    if not 0 <= i < n:
        raise IndexOutOfRange(f"{what} must be in range({n}), got {i}")
    return i


def nonempty(items, what: str):
    """items, refused with InvalidArgument when it is empty."""
    if not items:
        raise InvalidArgument(f"{what} needs at least one argument")
    return items


def positive(n, what: str):
    """n, refused with InvalidArgument when it is less than 1."""
    if n < 1:
        raise InvalidArgument(f"{what} must be positive, got {n}")
    return n


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
