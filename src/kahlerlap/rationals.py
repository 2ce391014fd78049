"""Exact rational arithmetic.

Everything in this package computes over the rationals; results are exact
identities, never floating point.  Q is fractions.Fraction.
"""

from __future__ import annotations

from fractions import Fraction as Q

ZERO = Q(0)


def as_q(value) -> "Q":
    """Coerce an int, string like '3/4', or rational to Q; refuse a float."""
    if isinstance(value, (int, str)):
        return Q(value)
    try:
        return Q(value.numerator, value.denominator)
    except AttributeError:
        raise TypeError(
            f"only exact rationals are accepted, got {type(value).__name__} {value!r}"
        ) from None


def q_str(value) -> str:
    """Canonical text form: 'p/q', or just 'p' for integers."""
    return str(value)
