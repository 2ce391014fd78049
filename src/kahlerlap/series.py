"""Univariate truncated power series in t with exact rational coefficients.

Used for radial potentials Phi(t), t = |z_1|^2 + ... + |z_n|^2, and for the
psi-series feeding the radial recursion.  A series knows the power of t up to
which its coefficients are trusted; rescale_argument keeps that bound.
"""

from __future__ import annotations

from .rationals import ZERO, as_q


class SeriesError(ValueError):
    pass


class TSeries:
    """Coefficients (c_0, c_1, ..., c_order) of sum c_m t^m, trusted through t^order."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = [as_q(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise SeriesError("order must be >= 0")
        if len(coeffs) < order + 1:
            coeffs.extend([ZERO] * (order + 1 - len(coeffs)))
        self.coeffs = tuple(coeffs[: order + 1])
        self.order = order

    def __eq__(self, other):
        return (
            isinstance(other, TSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self):
        terms = [f"{c}*t^{m}" for m, c in enumerate(self.coeffs) if c != 0]
        body = " + ".join(terms) if terms else "0"
        return f"TSeries({body} + O(t^{self.order + 1}))"

    def rescale_argument(self, c):
        """Substitute t -> c*t (c rational): coefficient m picks up c^m."""
        c = as_q(c)
        return TSeries(
            [self.coeffs[m] * c**m for m in range(self.order + 1)], self.order
        )
