"""Exact rational arithmetic.

Everything in this package computes over the rationals; results are exact
identities, never floating point.  Q is fractions.Fraction.
"""

from __future__ import annotations

from fractions import Fraction as Q

ZERO = Q(0)

# the most digits an integer in the input may have: int()'s default limit,
# tested first so that each reader refuses a longer one with its own error
MAX_DIGITS = 4300
# the most levels of brackets in a .pot expression or a catalog label: reading
# and building recurse once per level, and must not exhaust the stack
MAX_NESTING = 100


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


class Record:
    """Base of the value types, whose fields are their __slots__, in order.

    The constructor takes the fields by position or name (a subclass with
    defaults or checks writes its own).  Equality and hash compare the
    fields of two instances of one class, and repr skips the fields whose
    names start with an underscore.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs and kwargs.keys() == set(names[len(args):]):  # the rest, by name
            args += tuple(map(kwargs.get, names[len(args):]))
        elif kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name, value in zip(names, args):
            setattr(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = (f"{f}={getattr(self, f)!r}" for f in self.__slots__ if f[0] != "_")
        return f"{type(self).__name__}({', '.join(shown)})"
