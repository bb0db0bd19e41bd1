"""Carrier values shared by the numerical semirings.

Finite elements are plain Python floats and the boolean semiring uses
plain bools.  The two infinities are dedicated singleton tags rather
than IEEE infinities, so an infinite value can never leak into float
arithmetic unnoticed: ``NEG_INF + 1.0`` raises instead of propagating.
"""

import math

__all__ = ["Infinity", "NEG_INF", "POS_INF", "is_finite", "usual_leq",
           "TOKENS", "to_token", "from_token"]


class Infinity:
    """Signed infinity tag. Only two instances ever exist."""

    __slots__ = ("sign",)

    def __init__(self, sign):
        self.sign = sign

    def __repr__(self):
        return "inf" if self.sign > 0 else "-inf"

    def __reduce__(self):
        return (_resolve_infinity, (self.sign,))


NEG_INF = Infinity(-1)
POS_INF = Infinity(+1)


def _resolve_infinity(sign):
    return POS_INF if sign > 0 else NEG_INF


def is_finite(v) -> bool:
    """True for a finite real value (bool does not count)."""
    return type(v) is float and math.isfinite(v) or type(v) is int


def usual_leq(x, y) -> bool:
    """The usual linear order on reals extended with the two tags."""
    if x is NEG_INF or y is POS_INF:
        return True
    if x is POS_INF or y is NEG_INF:
        return False
    return x <= y


# the text tokens of the tags and the booleans, for every reader of text
TOKENS = {"-inf": NEG_INF, "inf": POS_INF, "+inf": POS_INF,
          "true": True, "false": False}


def to_token(v) -> str:
    """Render a carrier value as its canonical text token."""
    if v is NEG_INF:
        return "-inf"
    if v is POS_INF:
        return "inf"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if not isinstance(v, (int, float)):
        raise TypeError(
            f"v must be a float, int, bool or infinity tag, got {v!r}")
    return repr(v)


def from_token(text: str):
    """Inverse of :func:`to_token`. Raises ValueError on garbage."""
    t = text.strip()
    if t in TOKENS:
        return TOKENS[t]
    value = float(t)
    if not math.isfinite(value):
        raise ValueError(f"not a finite literal: {text!r}")
    return value
