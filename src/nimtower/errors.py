"""Exception types shared across the package."""


class NimtowerError(Exception):
    """Base class for all errors raised by nimtower."""


class ParseError(NimtowerError):
    """Malformed textual input (numbers, elements, expressions, factor files).

    ``position`` is a 0-based offset into the offending string when known.
    """

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (offset {position})")
        self.position = position


class DivideByZero(NimtowerError):
    """Division with a zero divisor."""


class ExactDivError(NimtowerError):
    """An exponent division ``a / b`` left a nonzero remainder."""


class LevelError(NimtowerError):
    """A level, index or exponent size is outside the allowed range."""


class LevelMismatch(NimtowerError):
    """Two elements at different levels were combined without lifting."""


class NotInField(NimtowerError):
    """A value needs more coefficient bits than its level provides."""


class ZeroInverse(NimtowerError):
    """Multiplicative inverse of zero requested."""


class ZeroToZero(NimtowerError):
    """0**0 requested."""


class ZeroElement(NimtowerError):
    """An operation that requires a nonzero element received zero."""


class NotAnExponent(NimtowerError):
    """x**n != 1 for the claimed group order n (wrong table or level)."""


class MissingFactorization(NimtowerError):
    """No complete factorization is available for a required level."""


class ValidationError(NimtowerError):
    """A factor table failed its load-time consistency checks."""


class OutOfOracleRange(NimtowerError):
    """An argument exceeds the bound of the exhaustive oracle."""


class ArithmeticFault(NimtowerError):
    """A computed value broke a field identity such as norm(conj(x)/x) = 1."""
