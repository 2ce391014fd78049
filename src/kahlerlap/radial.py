"""Radial metrics: psi-series, the C constants, and the polynomial recursion.

A t-series is the tuple (c_0, ..., c_order) of its rational coefficients,
trusted through t^(len - 1).  A profile is the t-series of a potential
Phi(t), t = |z|^2, with Phi'(0) > 0; profile_from_coeffs, named_profile and
normalize refuse any other slope.
For such a potential the inverse metric is

    ginv[i][j] = (1/Phi')(delta_ij - Phi''/(Phi' + t Phi'') z_j zb_i)
               = psi1(t) delta_ij - psi2(t) z_j zb_i

(Sherman-Morrison on g = Phi' I + Phi'' zb z^T), so applying the Laplacian
to |z^P|^2 only involves the two radial series

    psi1 = 1/Phi'        psi2 = Phi'' / (Phi' (Phi' + t Phi'')).

Since 1/Phi' - 1/(Phi' + t Phi'') = t Phi'' / (Phi' (Phi' + t Phi'')) and
Phi' + t Phi'' = (t Phi')', psi2 = (psi1 - 1/(t Phi')')/t: both series come
from two reciprocals, which psi_functions takes on integers.

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

with a_{k,0} = 0 and a_{k,l} = 0 for l > k.  The bracket
M_{p,l} = C^psi1_{p-1,l} - p^2 C^psi2_{p,l} does not depend on k, so with S
the shift a_{k,p-1} -> a_{k+1,p} one step is p_{k+1} = (S + M) p_k.
radial_pk builds M once, through l = kmax - 1, as integers L M over the
lcm L of its denominators, and iterates on integer numerators: p_k is
N_k / L^(k-1).  This produces p_1..p_kmax without ever applying the Kahler
Laplacian, giving a computation path independent of the direct fit.
"""

from __future__ import annotations

from math import comb, factorial, lcm

from .fit import LaplacePolynomial
from .jets import Jet, ValidityError, substitute_radial
from .rationals import Q, ZERO, as_q


class SeriesError(ValueError):
    pass


def _slope(profile):
    """Phi'(0), which must be positive."""
    if len(profile) < 2:
        raise ValidityError("profile needs at least the t^1 coefficient")
    if profile[1] <= 0:
        raise SeriesError(f"Phi'(0) = {profile[1]} must be positive")
    return profile[1]


def profile_from_coeffs(coeffs, order=None):
    """Profile from Taylor coefficients of Phi (constant term first).

    A finite coefficient list is an exact polynomial; order (default: the
    list length minus one) may extend it with zeros.
    """
    profile = tuple(map(as_q, coeffs))
    if order is not None:
        profile += (ZERO,) * (order + 1 - len(profile))
    _slope(profile)
    return profile


def named_profile(name, order):
    """Built-in profiles: flat, fubini-study (log(1+t)), hyperbolic (-log(1-t))."""
    if name == "flat":
        return profile_from_coeffs([0, 1], order=order)
    if name == "fubini-study":
        coeffs = [Q((-1) ** (m + 1), m) for m in range(1, order + 1)]
        return profile_from_coeffs([0] + coeffs)
    if name == "hyperbolic":
        return profile_from_coeffs([0] + [Q(1, m) for m in range(1, order + 1)])
    raise ValueError(f"unknown profile name: {name!r}")


def normalize(profile):
    """Rescale t so that Phi'(0) = 1 (rational substitution t -> t/Phi'(0))."""
    c = _slope(profile)
    return profile if c == 1 else tuple(a / c**m for m, a in enumerate(profile))


def _reciprocal_numerators(f):
    """R_0..R_top with 1/f = sum_m R_m t^m / f_0^(m+1), for the integer
    coefficients f_0..f_top of a series with f_0 != 0."""
    out = [1]
    for m in range(1, len(f)):
        out.append(-sum(f[i] * f[0] ** (i - 1) * out[m - i] for i in range(1, m + 1)))
    return out


def psi_functions(profile):
    """(psi1, psi2) = (1/Phi', (psi1 - 1/(t Phi')')/t) as t-series.

    With Phi' = F / L1 for integers F (so F_0 = L1), psi1 = L1 / F and
    1/(t Phi')' = L1 / (t F)', two integer reciprocals whose t^m
    coefficients are integers over L1^m.  psi1 is trusted through the order
    of Phi', psi2 through one less.
    """
    if _slope(profile) != 1:
        raise ValueError("profile must be normalized (Phi'(0) = 1)")
    d1 = [m * c for m, c in enumerate(profile)][1:]
    if len(d1) < 2:
        raise SeriesError("series order exhausted by differentiation")
    l1 = lcm(*(c.denominator for c in d1))
    f = [c.numerator * (l1 // c.denominator) for c in d1]
    r = _reciprocal_numerators(f)
    s = _reciprocal_numerators([(m + 1) * c for m, c in enumerate(f)])
    psi1 = tuple(Q(c, l1**m) for m, c in enumerate(r))
    psi2 = tuple(Q(r[m] - s[m], l1**m) for m in range(1, len(r)))
    return psi1, psi2


def c_constant(psi, p, l, n):
    """C^psi_{p,l} = psi_{l-p} (l-p)! l!/p! binom(l+n-1, l-p), zero for p > l.

    This is (lap_c)^l (|z^P|^2 psi(t))(0) / (p! P!) for any P with |P| = p:
    only the t^(l-p) term of psi reaches the origin, and summing its
    multinomial expansion gives binom(l+n-1, l-p) (module docstring).
    """
    if p < 0 or l < 0:
        raise ValueError("p and l must be >= 0")
    if len(psi) <= l:
        raise ValidityError(f"psi trusted to t^{len(psi) - 1}, need t^{l} for l={l}")
    if p > l:
        return ZERO
    m = l - p
    return psi[m] * (
        factorial(m) * (factorial(l) // factorial(p)) * comb(l + n - 1, m)
    )


def _require_order(psi1, psi2, k):
    """ValidityError unless both psi series reach t^k, as the step k -> k+1 needs."""
    if min(len(psi1), len(psi2)) <= k:
        raise ValidityError(
            f"psi series trusted to t^{min(len(psi1), len(psi2)) - 1}, need t^{k} "
            f"for the step to k={k + 1}"
        )


def _recursion_matrix(psi1, psi2, n, top):
    """(L, rows): M_{p,l} = C^psi1_{p-1,l} - p^2 C^psi2_{p,l} for
    1 <= p <= l <= top as integers L M_{p,l}, L the lcm of their
    denominators; rows[p - 1] holds l = p..top."""
    rows = [
        [
            c_constant(psi1, p - 1, l, n) - p * p * c_constant(psi2, p, l, n)
            for l in range(p, top + 1)
        ]
        for p in range(1, top + 1)
    ]
    big = lcm(*(c.denominator for row in rows for c in row))
    return big, [[c.numerator * (big // c.denominator) for c in row] for row in rows]


def _step(nums, big, rows):
    """(S + M) p_k times L: a_1..a_{k+1} of L p_{k+1} from a_1..a_k of p_k,
    for (L, rows) from _recursion_matrix with top >= k."""
    shifted = [0] + [a * big for a in nums]
    for p, row in enumerate(rows[: len(nums)]):
        shifted[p] += sum(a * m for a, m in zip(nums[p:], row))
    return shifted


def recursion_step(a_k: LaplacePolynomial, psi1, psi2, n) -> LaplacePolynomial:
    """One step k -> k+1 of the recursion in the module docstring, from the
    psi series of the normalized profile (psi_functions)."""
    k = a_k.k
    _require_order(psi1, psi2, k)
    big, rows = _recursion_matrix(psi1, psi2, n, k)
    new = _step(a_k.coeffs, big, rows)
    return LaplacePolynomial(k=k + 1, coeffs=tuple(Q(a, big) for a in new))


def radial_pk(profile, n, k_max):
    """p_1..p_kmax from p_1 = x: one recursion matrix, integer numerators
    over L^(k-1) for p_k."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if n < 1:
        raise ValueError(f"need n >= 1 variables, got {n}")
    polys = [LaplacePolynomial(k=1, coeffs=(Q(1),))]
    if k_max > 1:
        psi1, psi2 = psi_functions(normalize(profile))
        for k in range(1, k_max):
            _require_order(psi1, psi2, k)
        big, rows = _recursion_matrix(psi1, psi2, n, k_max - 1)
        nums = [1]
        for k in range(1, k_max):
            nums = _step(nums, big, rows)
            coeffs = tuple(Q(a, big**k) for a in nums)
            polys.append(LaplacePolynomial(k=k + 1, coeffs=coeffs))
    return polys


def potential_jet(profile, n, valid_degree) -> Jet:
    """The radial potential as a jet in n variables (no normalization)."""
    return substitute_radial(profile, n, valid_degree)
