"""Fit of the origin identity lap^k phi(0) = p_k(lap_c) phi(0).

Both sides are linear in the derivatives of phi at the origin of total
degree <= 2k, so checking all monomials z^P zb^Q with |P|+|Q| <= 2k decides
the identity for every smooth phi.  p_k(lap_c) reads only diagonal monomials
z^P zb^P, so the fit walks just the off-diagonal keys of the lap^k table
(which stores no zeros) and the diagonal with 1 <= |P| <= k: every other
monomial reads zero on both sides.  On a table stored one key per
S_n-orbit, it walks the orbit representatives among them (fit_pk).  The fit
works on values rescaled to unit gauge (multiplying by
prod d_i^{(P_i+Q_i)/2}, which is prod d_i^{P_i} on the diagonal), which
keeps the arithmetic rational without changing coordinates.

Outcomes are witness-first: the first monomial (in the graded lexicographic
order of the complete test set) whose value is inconsistent is returned with
the discrepancy, which makes every failure reproducible.
"""

from __future__ import annotations

from functools import cache
from math import factorial

from .jets import JetError, diagonal_keys
from .metric import MetricJet, _laplacian_functional, _require
from .rationals import Q, ZERO, Record


class LaplacePolynomial(Record):
    """Monic degree-k polynomial sum_{l=1..k} a_l x^l with zero constant term."""

    __slots__ = ("k", "coeffs")  # coeffs: a_1 .. a_k

    def __init__(self, k, coeffs):
        self.k, self.coeffs = k, coeffs
        if self.k < 1 or len(self.coeffs) != self.k:
            raise JetError("need coefficients a_1..a_k")
        if self.coeffs[-1] != 1:
            raise JetError("polynomial must be monic")

    def coefficient(self, l):
        if 1 <= l <= self.k:
            return self.coeffs[l - 1]
        return ZERO

    def __str__(self):
        parts = []
        for l in range(self.k, 0, -1):
            a = self.coeffs[l - 1]
            if a == 0:
                continue
            mag = abs(a)
            xs = "x" if l == 1 else f"x^{l}"
            body = xs if mag == 1 else f"{mag}*{xs}"
            parts.append(("-" if a < 0 else "+", body))
        sign0, body0 = parts[0]
        text = body0 if sign0 == "+" else f"-{body0}"
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


class ViolationWitness(Record):
    """A concrete monomial whose lap^k value breaks the polynomial identity."""

    # kind: off_diagonal_nonzero | diagonal_inconsistent | non_monic
    __slots__ = ("P", "Q", "kind", "lhs", "expected")


class FitResult(Record):
    __slots__ = ("k", "polynomial", "witness")

    def __init__(self, k, polynomial=None, witness=None):
        self.k, self.polynomial, self.witness = k, polynomial, witness
        if (self.polynomial is None) == (self.witness is None):
            raise JetError("exactly one of polynomial/witness must be set")

    @property
    def fitted(self):
        return self.witness is None


def _require_depth(m: MetricJet, k, needed_for=None):
    """TruncationError unless the metric is valid to degree 2k."""
    suffix = f" needed for {needed_for}" if needed_for else ""
    _require(m, 2 * k, f"potential valid_degree {m.valid_degree} < {2 * k}{suffix}")


def _before(A, B, pk):
    """Whether packed key A comes before B != A in graded lexicographic
    order (|P|+|Q|, P, Q).  The total degree is A % mask: slot s weighs
    2^(bits s) = 1 mod mask, and the fit's keys have degree <= 2k < mask
    (2k <= valid_degree <= mask, and mask is odd).  The first slot where
    A and B differ holds the lowest set bit of A ^ B."""
    da, db = A % pk.mask, B % pk.mask
    if da != db:
        return da < db
    low = A ^ B
    shift = ((low & -low).bit_length() - 1) // pk.bits * pk.bits
    return A >> shift & pk.mask < B >> shift & pk.mask


@cache
def _sorted_diagonal(pk, p):
    """diagonal_keys(pk, p) restricted to P non-decreasing, the
    representatives of the diagonal's S_n-orbits, in the same order; walked
    once per packing and degree."""
    n, units = pk.n, pk.units

    def walk(s, floor, left):  # slots s..n-1, each >= floor, summing to left
        if s == n - 1:
            return [(left * units[s], factorial(left))]
        return [
            (e * units[s] + K, factorial(e) * f)
            for e in range(floor, left // (n - s) + 1)
            for K, f in walk(s + 1, e, left - e)
        ]

    return [(K + (K << pk.half), f) for K, f in walk(0, 0, p)]


def fit_pk(m: MetricJet, k) -> FitResult:
    """Fit the monic order-k polynomial over the degree <= 2k monomial set,
    or return the first violation in enumeration order.

    Only the monomials that can matter are visited, in the same order, so
    the witness is the one the complete set gives.  The walk reads the
    packed numerators N_k of the lap^k table (metric._laplacian_functional)
    directly.  An off-diagonal key is one whose two halves differ, and only
    the first of them in graded lexicographic order can be the witness.  The
    diagonal z^P zb^P has the rescaled value v = N_k prod d_i^{P_i} / Lg^k
    and the ratio v / (p! P!), kept as a Fraction once per degree p and
    compared with it in integers; diagonal_keys lists those of degree p in
    lexicographic order, asked for only when the walk reaches p.

    A table stored one key per S_n-orbit (metric._laplacian_functional)
    holds only the orbit representatives, so the scan reads only the
    off-diagonal ones, and the diagonal walk lists only P non-decreasing
    (_sorted_diagonal).  Every quantity the walk compares is the same on a
    whole orbit: the value, P!, and the rescaling, since a symmetric
    potential has all d_i equal; being off-diagonal is too.  The
    representative is the orbit's least member in the walk's order, and the
    first diagonal of each degree, z_n^p zb_n^p, is a representative, so the
    first violation and every fitted coefficient are the ones the full
    table gives.
    """
    if k < 1:
        raise JetError("k must be >= 1")
    _require_depth(m, k, f"the order-{k} fit")
    nums = _laplacian_functional(m, k)
    pk = m.potential.pk
    lgk = m._pullback[0] ** k
    half, low = pk.half, (1 << pk.half) - 1
    first = None
    for K in nums:
        if K & low != K >> half and (first is None or _before(K, first, pk)):
            first = K

    def witness(K, kind, lhs, expected):
        P, Q_ = pk.unpack(K)
        return FitResult(
            k=k,
            witness=ViolationWitness(P=P, Q=Q_, kind=kind, lhs=lhs, expected=expected),
        )

    # (shift, numerator, denominator) of the slots whose d_i is not 1
    slots = [(pk.bits * i, c.numerator, c.denominator)
             for i, c in enumerate(m.origin_diag) if c != 1]
    walk = _sorted_diagonal if m._orbits else diagonal_keys
    candidates = []
    for p, K, f in ((p, K, f) for p in range(1, k + 1) for K, f in walk(pk, p)):
        if first is not None and _before(first, K, pk):
            break
        norm, dn, dd = factorial(p) * f, 1, 1
        for shift, a, b in slots:
            e = K >> shift & pk.mask
            dn, dd = dn * a**e, dd * b**e
        c, den = nums.get(K, 0) * dn, lgk * norm * dd
        if len(candidates) < p:
            if p == k and c != den:
                return witness(K, "non_monic", Q(c, lgk * dd), Q(norm))
            candidates.append(Q(c, den))
        elif c * candidates[-1].denominator != candidates[-1].numerator * den:
            return witness(
                K, "diagonal_inconsistent", Q(c, lgk * dd), candidates[-1] * norm
            )
    if first is not None:
        return witness(first, "off_diagonal_nonzero", Q(nums[first], lgk), ZERO)
    return FitResult(k=k, polynomial=LaplacePolynomial(k=k, coeffs=tuple(candidates)))


def check_delta_property(m: MetricJet, k_max):
    """FitResults for k = 1..k_max, stopping after the first violation."""
    if k_max < 1:
        raise JetError("k_max must be >= 1")
    _require_depth(m, k_max, f"k_max={k_max}")
    results = []
    for k in range(1, k_max + 1):
        r = fit_pk(m, k)
        results.append(r)
        if not r.fitted:
            break
    return results
