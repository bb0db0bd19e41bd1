"""Exception taxonomy shared by every module in the package."""


class SemiringError(Exception):
    """Base class for all errors raised by this package."""


class UnknownSemiring(SemiringError):
    """Requested semiring name is not in the catalog."""


class InvalidBounds(SemiringError):
    """Bounded-lattice semiring given bounds with a >= b."""


class IllegalElement(SemiringError):
    """Value is not an element of the descriptor's carrier."""


class StarUndefined(SemiringError):
    """Closure of an element does not exist in this semiring.

    ``location`` pinpoints where the offending pivot sat when the error
    was raised by a matrix algorithm (row index, or (column, pivot) for
    the factorization); it stays None for plain scalar calls.
    """

    def __init__(self, message, element=None, location=None):
        super().__init__(message)
        self.element = element
        self.location = location


class DimensionMismatch(SemiringError):
    """Operand shapes are incompatible."""


class DescriptorMismatch(SemiringError):
    """Operands were built over different semirings."""


class ShapeViolation(SemiringError):
    """Matrix is not triangular/diagonal in the required way."""


class NotSymmetric(SemiringError):
    """Symmetric factorization asked for on an asymmetric matrix."""


class NotCommutative(SemiringError):
    """Symmetric factorization requires commutative multiplication."""


class NoStabilization(SemiringError):
    """Iterated partial sums did not reach a fixpoint in n steps."""


class EmptyInterval(SemiringError):
    """Interval endpoints violate lo <= hi in the base order."""


class NotPositive(SemiringError):
    """Interval lift requires a positive base semiring."""


class IndexOutOfRange(SemiringError):
    """Graph arc references a node outside 1..n."""


class InvalidGraph(SemiringError):
    """Graph has a duplicate arc or an explicit zero weight."""


class InvalidPath(SemiringError):
    """Node sequence does not follow existing arcs."""


class OracleScaleExceeded(SemiringError):
    """Brute-force enumeration refused: instance too large."""


class WrongDescriptor(SemiringError):
    """Algorithm called with a semiring it is not defined for."""


class InvalidOptions(SemiringError):
    """Inconsistent algorithm options (unknown algorithm, bad split point, ...)."""


class ParseError(SemiringError):
    """Input text could not be decoded.

    ``context`` names the file/field the error came from when known.
    """

    def __init__(self, message, context=None):
        if context:
            message = f"{context}: {message}"
        super().__init__(message)
        self.context = context


def _require_type(value, cls, name):
    """``value`` if it is a ``cls``; else a TypeError naming parameter ``name``."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value
