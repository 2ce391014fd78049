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
from two integer reciprocals over powers of one lcm l1 (_psi_numerators).

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
Every M_{p,l} has the denominator l1^(l-p+1), so radial_pk builds M once,
through l = kmax - 1, as integers L M over L = l1^(kmax-1)/g, g their gcd
with l1^(kmax-1).  p_k is N_k / L^(k-1) for integers N_k, and no Fraction
is built until the coefficients of p_k leave: a path to p_1..p_kmax,
independent of the direct fit, that never applies the Kahler Laplacian.
"""

from __future__ import annotations

from math import comb, factorial, gcd, lcm

from .fit import LaplacePolynomial
from .jets import InputError, Jet, JetError, ValidityError, substitute_radial
from .rationals import Q, ZERO, as_q


class SeriesError(InputError):
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
    raise SeriesError(f"unknown profile name: {name!r}")


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


def _psi_numerators(profile):
    """(l1, R, U) with psi1_m = R_m / l1^m and psi2_m = U_m / l1^(m+1).

    With Phi' = F / l1 for integers F (so F_0 = l1), psi1 = l1 / F and
    1/(t Phi')' = l1 / (t F)' have integer t^m coefficients over l1^m.
    psi1 is trusted through the order of Phi', psi2 through one less.
    """
    if _slope(profile) != 1:
        raise JetError("profile must be normalized (Phi'(0) = 1)")
    d1 = [m * c for m, c in enumerate(profile)][1:]
    if len(d1) < 2:
        raise SeriesError("series order exhausted by differentiation")
    l1 = lcm(*(c.denominator for c in d1))
    f = [c.numerator * (l1 // c.denominator) for c in d1]
    r = _reciprocal_numerators(f)
    s = _reciprocal_numerators([(m + 1) * c for m, c in enumerate(f)])
    return l1, r, [a - b for a, b in zip(r[1:], s[1:])]


def psi_functions(profile):
    """(psi1, psi2) = (1/Phi', (psi1 - 1/(t Phi')')/t) as t-series, the
    rational view of _psi_numerators."""
    l1, r, u = _psi_numerators(profile)
    return (tuple(Q(c, l1**m) for m, c in enumerate(r)),
            tuple(Q(c, l1 ** (m + 1)) for m, c in enumerate(u)))


def c_constant(psi, p, l, n):
    """C^psi_{p,l} = psi_{l-p} (l-p)! l!/p! binom(l+n-1, l-p), zero for p > l.

    This is (lap_c)^l (|z^P|^2 psi(t))(0) / (p! P!) for any P with |P| = p:
    only the t^(l-p) term of psi reaches the origin, and summing its
    multinomial expansion gives binom(l+n-1, l-p) (module docstring).  It
    is psi_{l-p} times an integer: rational for psi, an int for R or U.
    """
    if p < 0 or l < 0:
        raise JetError("p and l must be >= 0")
    if len(psi) <= l:
        raise ValidityError(f"psi trusted to t^{len(psi) - 1}, need t^{l} for l={l}")
    if p > l:
        return 0
    m = l - p
    return psi[m] * (factorial(m) * (factorial(l) // factorial(p)) * comb(l + n - 1, m))


def _require_order(psi1, psi2, k):
    """ValidityError unless both psi series reach t^k, as the step k -> k+1 needs."""
    if (got := min(len(psi1), len(psi2)) - 1) < k:
        raise ValidityError(f"psi series trusted to t^{got}, need t^{k} for the step to k={k + 1}")


def _recursion_matrix(l1, r, u, n, top):
    """(L, rows): the integers L M_{p,l}, 1 <= p <= l <= top, with
    L = l1^top / g (module docstring); rows[p - 1] holds l = p..top."""
    rows = [[l1 ** (top - l + p - 1)
             * (c_constant(r, p - 1, l, n) - p * p * c_constant(u, p, l, n))
             for l in range(p, top + 1)] for p in range(1, top + 1)]
    g = gcd(l1**top, *(c for row in rows for c in row))
    return l1**top // g, [[c // g for c in row] for row in rows]


def _step(nums, big, rows):
    """(S + M) p_k times L: a_1..a_{k+1} of L p_{k+1} from a_1..a_k of p_k,
    for (L, rows) from _recursion_matrix with top >= k."""
    shifted = [0] + [a * big for a in nums]
    for p, row in enumerate(rows[: len(nums)]):
        shifted[p] += sum(a * m for a, m in zip(nums[p:], row))
    return shifted


def recursion_step(a_k: LaplacePolynomial, psi1, psi2, n) -> LaplacePolynomial:
    """One step k -> k+1 of the recursion in the module docstring, from the
    psi series of the normalized profile (psi_functions), put over the
    common denominator l1 of their coefficients."""
    k = a_k.k
    _require_order(psi1, psi2, k)
    l1 = lcm(*(c.denominator for c in psi1[1 : k + 1] + psi2[: k + 1]))
    r = [0] + [int(c * l1**m) for m, c in enumerate(psi1[1 : k + 1], 1)]  # R_0 is not read
    u = [int(c * l1 ** (m + 1)) for m, c in enumerate(psi2[: k + 1])]
    big, rows = _recursion_matrix(l1, r, u, n, k)
    new = _step(a_k.coeffs, big, rows)
    return LaplacePolynomial(k=k + 1, coeffs=tuple(Q(a, big) for a in new))


def radial_pk(profile, n, k_max):
    """p_1..p_kmax from p_1 = x: one recursion matrix, integer numerators
    over L^(k-1) for p_k, made rational only on output."""
    if k_max < 1:
        raise SeriesError("k_max must be >= 1")
    if n < 1:
        raise SeriesError(f"need n >= 1 variables, got {n}")
    polys = [LaplacePolynomial(k=1, coeffs=(Q(1),))]
    if k_max > 1:
        l1, r, u = _psi_numerators(normalize(profile))
        _require_order(r, u, min(len(u), k_max - 1))  # names the first step out of reach
        big, rows = _recursion_matrix(l1, r, u, n, k_max - 1)
        nums, den = [1], 1
        for k in range(2, k_max + 1):
            nums, den = _step(nums, big, rows), den * big
            polys.append(LaplacePolynomial(k=k, coeffs=tuple(Q(a, den) for a in nums)))
    return polys


def potential_jet(profile, n, valid_degree) -> Jet:
    """The radial potential as a jet in n variables (no normalization)."""
    return substitute_radial(profile, n, valid_degree)
