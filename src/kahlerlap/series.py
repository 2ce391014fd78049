"""Univariate truncated power series in t with exact rational coefficients.

Used for radial potentials Phi(t), t = |z_1|^2 + ... + |z_n|^2, and for the
psi-series feeding the radial recursion.  A series knows the power of t up to
which its coefficients are trusted; arithmetic propagates that bound.
"""

from __future__ import annotations

from .rationals import Q, ZERO, as_q


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

    def __add__(self, other):
        order = min(self.order, other.order)
        return TSeries(
            [self.coeffs[m] + other.coeffs[m] for m in range(order + 1)], order
        )

    def __sub__(self, other):
        order = min(self.order, other.order)
        return TSeries(
            [self.coeffs[m] - other.coeffs[m] for m in range(order + 1)], order
        )

    def __mul__(self, other):
        if not isinstance(other, TSeries):
            return self.scale(other)
        order = min(self.order, other.order)
        out = [ZERO] * (order + 1)
        for i, a in enumerate(self.coeffs):
            if i > order or a == 0:
                continue
            for j in range(0, order - i + 1):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TSeries(out, order)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = as_q(c)
        return TSeries([c * a for a in self.coeffs], self.order)

    def derivative(self):
        """d/dt; trusted order drops by one."""
        if self.order == 0:
            raise SeriesError("series order exhausted by differentiation")
        return TSeries(
            [m * self.coeffs[m] for m in range(1, self.order + 1)], self.order - 1
        )

    def multiply_by_t(self):
        return TSeries([ZERO] + list(self.coeffs[: self.order]), self.order)

    def constant_term(self):
        return self.coeffs[0]

    def reciprocal(self):
        """Series b with self*b = 1 through t^order; constant term must be nonzero."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise SeriesError("cannot invert a series with zero constant term")
        out = [Q(1) / a0]
        for m in range(1, self.order + 1):
            s = ZERO
            for i in range(1, m + 1):
                if self.coeffs[i] != 0:
                    s += self.coeffs[i] * out[m - i]
            out.append(-s / a0)
        return TSeries(out, self.order)

    def rescale_argument(self, c):
        """Substitute t -> c*t (c rational): coefficient m picks up c^m."""
        c = as_q(c)
        return TSeries(
            [self.coeffs[m] * c**m for m in range(self.order + 1)], self.order
        )

    def truncate(self, order):
        if order > self.order:
            raise SeriesError("cannot raise the trusted order of a series")
        return TSeries(self.coeffs[: order + 1], order)
