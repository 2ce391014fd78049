"""Radial metrics: psi-series, the C constants, and the polynomial recursion.

A profile is the TSeries of a potential Phi(t), t = |z|^2, with Phi'(0) > 0;
profile_from_coeffs, named_profile and normalize refuse any other slope.
For such a potential the inverse metric is

    ginv[i][j] = (1/Phi')(delta_ij - Phi''/(Phi' + t Phi'') z_j zb_i)
               = psi1(t) delta_ij - psi2(t) z_j zb_i

(Sherman-Morrison on g = Phi' I + Phi'' zb z^T), so applying the Laplacian
to |z^P|^2 only involves the two radial series

    psi1 = 1/Phi'        psi2 = Phi'' / (Phi' (Phi' + t Phi'')).

The radial command fits p_k on the graded inverse of g, so its
recursion-vs-fit check stays independent of psi_functions.

With C^psi_{p,l} defined by (lap_c)^l (|z^P|^2 psi(t))(0) = C^psi_{p,l} p! P!,
where lap_c = sum_i d^2/dz_i dzb_i and p = |P|, the closed form is

    C^psi_{p,l} = psi_{l-p} (l-p)! l!/p! binom(l+n-1, l-p),   0 for p > l.

Derivation: (lap_c)^l |z^K|^2 (0) = l! K! when |K| = l, and 0 otherwise.
Expanding t^m = sum_{|A|=m} m!/A! |z^A|^2 by the multinomial theorem, only
m = l - p reaches the origin, so the value is psi_m m! l! sum_{|A|=m}
(P+A)!/A!.  That sum is P! times the coefficient of x^m in
prod_i (1-x)^{-(P_i+1)} = (1-x)^{-(p+n)}, i.e. P! binom(l+n-1, m); for
P = (p, 0, .., 0) this is Vandermonde's identity
sum_a binom(p+a, a) binom(m-a+n-2, n-2) = binom(l+n-1, m).  Dividing by
p! P! gives the form above, which depends on P only through p.

The monic polynomials p_k satisfy, for a profile normalized to Phi'(0) = 1:

    a_{k+1,p} = a_{k,p-1} + sum_{l=p}^{k} a_{k,l} (C^psi1_{p-1,l}
                                                   - p^2 C^psi2_{p,l}),

with a_{k,0} = 0 and a_{k,l} = 0 for l > k.  This produces p_1..p_kmax
without ever applying the Kahler Laplacian, giving a computation path
independent of the direct fit.
"""

from __future__ import annotations

from math import comb, factorial

from .fit import LaplacePolynomial
from .jets import Jet, ValidityError, substitute_radial
from .rationals import Q, ZERO, as_q
from .series import TSeries


def _slope(profile: TSeries):
    """Phi'(0), which must be positive."""
    if profile.order < 1:
        raise ValidityError("profile needs at least the t^1 coefficient")
    if profile.coeffs[1] <= 0:
        raise ValueError(f"Phi'(0) = {profile.coeffs[1]} must be positive")
    return profile.coeffs[1]


def profile_from_coeffs(coeffs, order=None) -> TSeries:
    """Profile from Taylor coefficients of Phi (constant term first).

    A finite coefficient list is an exact polynomial; order (default: the
    list length minus one) may extend it with zeros.
    """
    coeffs = [as_q(c) for c in coeffs]
    if order is not None and order + 1 > len(coeffs):
        coeffs.extend([ZERO] * (order + 1 - len(coeffs)))
    profile = TSeries(coeffs)
    _slope(profile)
    return profile


def named_profile(name, order) -> TSeries:
    """Built-in profiles: flat, fubini-study (log(1+t)), hyperbolic (-log(1-t))."""
    if name == "flat":
        return profile_from_coeffs([0, 1], order=order)
    if name == "fubini-study":
        coeffs = [Q((-1) ** (m + 1), m) for m in range(1, order + 1)]
        return profile_from_coeffs([0] + coeffs)
    if name == "hyperbolic":
        return profile_from_coeffs([0] + [Q(1, m) for m in range(1, order + 1)])
    raise ValueError(f"unknown profile name: {name!r}")


def normalize(profile: TSeries) -> TSeries:
    """Rescale t so that Phi'(0) = 1 (rational substitution t -> t/Phi'(0))."""
    c = _slope(profile)
    return profile if c == 1 else profile.rescale_argument(1 / c)


def psi_functions(profile: TSeries):
    """(psi1, psi2) = (1/Phi', Phi''/(Phi'(Phi' + t Phi''))) as t-series."""
    if _slope(profile) != 1:
        raise ValueError("profile must be normalized (Phi'(0) = 1)")
    d1 = profile.derivative()
    d2 = d1.derivative()
    denom = d1.truncate(d2.order) + d2.multiply_by_t()
    if denom.constant_term() == 0:
        raise ValueError("Phi' + t Phi'' vanishes at t = 0")
    psi1 = d1.reciprocal()
    psi2 = d2 * psi1.truncate(d2.order) * denom.reciprocal()
    return psi1, psi2


def c_constant(psi: TSeries, p, l, n):
    """C^psi_{p,l} = psi_{l-p} (l-p)! l!/p! binom(l+n-1, l-p), zero for p > l.

    This is (lap_c)^l (|z^P|^2 psi(t))(0) / (p! P!) for any P with |P| = p:
    only the t^(l-p) term of psi reaches the origin, and summing its
    multinomial expansion gives binom(l+n-1, l-p) (module docstring).
    """
    if p < 0 or l < 0:
        raise ValueError("p and l must be >= 0")
    if psi.order < l:
        raise ValidityError(
            f"psi trusted to t^{psi.order}, need t^{l} for l={l}"
        )
    if p > l:
        return ZERO
    m = l - p
    return psi.coeffs[m] * (
        factorial(m) * (factorial(l) // factorial(p)) * comb(l + n - 1, m)
    )


def recursion_step(
    a_k: LaplacePolynomial, psi1: TSeries, psi2: TSeries, n
) -> LaplacePolynomial:
    """One step k -> k+1 of the recursion in the module docstring, from the
    psi series of the normalized profile (psi_functions)."""
    k = a_k.k
    if psi1.order < k or psi2.order < k:
        raise ValidityError(
            f"psi series trusted to t^{min(psi1.order, psi2.order)}, need t^{k} "
            f"for the step to k={k + 1}"
        )
    new = []
    for p in range(1, k + 2):
        val = a_k.coefficient(p - 1)
        for l in range(p, k + 1):
            val += a_k.coefficient(l) * (
                c_constant(psi1, p - 1, l, n)
                - p * p * c_constant(psi2, p, l, n)
            )
        new.append(val)
    return LaplacePolynomial(k=k + 1, coeffs=tuple(new))


def radial_pk(profile: TSeries, n, k_max):
    """p_1..p_kmax by iterating the recursion from p_1 = x."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if n < 1:
        raise ValueError(f"need n >= 1 variables, got {n}")
    polys = [LaplacePolynomial(k=1, coeffs=(Q(1),))]
    if k_max > 1:
        psi1, psi2 = psi_functions(normalize(profile))
        while len(polys) < k_max:
            polys.append(recursion_step(polys[-1], psi1, psi2, n))
    return polys


def potential_jet(profile: TSeries, n, valid_degree) -> Jet:
    """The radial potential as a jet in n variables (no normalization)."""
    return substitute_radial(profile, n, valid_degree)
