"""Fit of the origin identity lap^k phi(0) = p_k(lap_c) phi(0).

Both sides are linear in the derivatives of phi at the origin of total
degree <= 2k, so checking all monomials z^P zb^Q with |P|+|Q| <= 2k decides
the identity for every smooth phi.  p_k(lap_c) reads only diagonal monomials
z^P zb^P, so the fit walks just the off-diagonal keys of the lap^k table
(which stores no zeros) and the diagonal with 1 <= |P| <= k: every other
monomial reads zero on both sides.  The fit works on values rescaled to unit
gauge (multiplying by prod d_i^{(P_i+Q_i)/2}), which keeps the arithmetic
rational without changing coordinates.

Outcomes are witness-first: the first monomial (in the graded lexicographic
order of the complete test set) whose value is inconsistent is returned with
the discrepancy, which makes every failure reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .jets import mi_factorial, multiindices
from .metric import MetricJet, TruncationError, _laplacian_functional, _table_value
from .rationals import Q, ZERO


class RescaleError(ValueError):
    """Value-level rescaling would be irrational and the value is nonzero."""


@dataclass(frozen=True)
class LaplacePolynomial:
    """Monic degree-k polynomial sum_{l=1..k} a_l x^l with zero constant term."""

    k: int
    coeffs: tuple  # a_1 .. a_k

    def __post_init__(self):
        if self.k < 1 or len(self.coeffs) != self.k:
            raise ValueError("need coefficients a_1..a_k")
        if self.coeffs[-1] != 1:
            raise ValueError("polynomial must be monic")

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
        if not parts:
            return "0"
        sign0, body0 = parts[0]
        text = body0 if sign0 == "+" else f"-{body0}"
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


@dataclass(frozen=True)
class ViolationWitness:
    """A concrete monomial whose lap^k value breaks the polynomial identity."""

    P: tuple
    Q: tuple
    kind: str  # off_diagonal_nonzero | diagonal_inconsistent | non_monic
    lhs: object
    expected: object


@dataclass(frozen=True)
class FitResult:
    k: int
    polynomial: LaplacePolynomial | None = None
    witness: ViolationWitness | None = None

    def __post_init__(self):
        if (self.polynomial is None) == (self.witness is None):
            raise ValueError("exactly one of polynomial/witness must be set")

    @property
    def fitted(self):
        return self.witness is None


def _require_depth(m: MetricJet, k, needed_for=None):
    """TruncationError unless the potential is valid to degree 2k."""
    valid = m.potential.valid_degree
    if valid < 2 * k:
        suffix = f" needed for {needed_for}" if needed_for else ""
        raise TruncationError(
            f"potential valid_degree {valid} < {2 * k}{suffix}", required=2 * k
        )


def _support_pairs(m: MetricJet, k):
    """Off-diagonal keys of the lap^k table and every (P, P) with
    1 <= |P| <= k, as (P, Q), in graded lexicographic order (|P|+|Q|, P, Q)."""
    unpack = m.potential.pk.unpack
    pairs = [PQ for PQ in map(unpack, _laplacian_functional(m, k)) if PQ[0] != PQ[1]]
    for p in range(1, k + 1):
        pairs.extend((P, P) for P in multiindices(m.n, p))
    pairs.sort(key=lambda pq: (sum(pq[0]) + sum(pq[1]), pq[0], pq[1]))
    return pairs


def _raw_value(m: MetricJet, P, Q_, k):
    """lap^k(z^P zb^Q)(0) via the cached functional table."""
    _require_depth(m, k)
    return _table_value(m, k, P, Q_)


def rescaled_value(m: MetricJet, P, Q_, k):
    """lap^k value on the monomial, rescaled to unit gauge.

    Multiplies by prod d_i^{(P_i+Q_i)/2}.  Zero values need no rescaling;
    a nonzero value whose rescale exponents are half-integral over a d_i != 1
    has no rational rescaled form and raises.
    """
    v = _raw_value(m, P, Q_, k)
    if v == 0:
        return ZERO
    factor = Q(1)
    for i in range(m.n):
        e = P[i] + Q_[i]
        d = m.origin_diag[i]
        if d == 1:
            continue
        if e % 2:
            raise RescaleError(
                f"monomial P={P}, Q={Q_} rescales by an irrational factor "
                f"and has nonzero value {v}"
            )
        factor *= d ** (e // 2)
    return v * factor


def fit_pk(m: MetricJet, k) -> FitResult:
    """Fit the monic order-k polynomial over the degree <= 2k monomial set,
    or return the first violation in enumeration order.  Only the monomials
    that can matter are visited, in the same order, so the witness is the
    one the complete set gives."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _require_depth(m, k, f"the order-{k} fit")
    candidates = {}
    for P, Q_ in _support_pairs(m, k):
        if P != Q_:
            # the table stores no zeros, so every off-diagonal key violates
            return FitResult(
                k=k,
                witness=ViolationWitness(
                    P=P, Q=Q_, kind="off_diagonal_nonzero",
                    lhs=_table_value(m, k, P, Q_), expected=ZERO,
                ),
            )
        p = sum(P)
        v = rescaled_value(m, P, Q_, k)
        norm = Q(factorial(p) * mi_factorial(P))
        ratio = v / norm
        if p not in candidates:
            if p == k and ratio != 1:
                return FitResult(
                    k=k,
                    witness=ViolationWitness(
                        P=P, Q=Q_, kind="non_monic", lhs=v, expected=norm,
                    ),
                )
            candidates[p] = ratio
        elif ratio != candidates[p]:
            return FitResult(
                k=k,
                witness=ViolationWitness(
                    P=P, Q=Q_, kind="diagonal_inconsistent", lhs=v,
                    expected=candidates[p] * norm,
                ),
            )
    coeffs = tuple(candidates[p] for p in range(1, k + 1))
    return FitResult(k=k, polynomial=LaplacePolynomial(k=k, coeffs=coeffs))


def check_delta_property(m: MetricJet, k_max):
    """FitResults for k = 1..k_max, stopping after the first violation."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    _require_depth(m, k_max, f"k_max={k_max}")
    results = []
    for k in range(1, k_max + 1):
        r = fit_pk(m, k)
        results.append(r)
        if not r.fitted:
            break
    return results
