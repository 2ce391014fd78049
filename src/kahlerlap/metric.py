"""Metric data from a Kahler potential and origin evaluations of its Laplacian.

Conventions.  The metric matrix is g[i][j] = d^2 Phi / dz_i dzb_j and g_inv
is its matrix inverse over the jet ring, so the Laplacian of phi is

    lap(phi) = sum_{i,j} g_inv[i][j] * d^2 phi / dz_j dzb_i.

g itself is never held as jets: metric_from_potential builds its integer
parts straight from the packed potential and inverts them, and the one
reading of g's derivatives (third_deriv_obstruction) takes them from the
potential's coefficients.

One packing (jets._Packing) serves each metric: the slots fixed for the
potential at build hold every exponent up to valid_degree - 1, and the
lap^k pullback reuses them.  That is enough for every k a caller may ask
for: g_inv's exponents are at most valid_degree - 2, table k's at most k,
and every caller needs 2k <= valid_degree (the duality table asks for k = 3
only once einstein_constant has required valid_degree >= 4).

Only the diagonal gauge is supported: g(0) must be a positive diagonal
matrix d_1..d_n (checked at construction).  Identities that the literature
states at the center of normal coordinates (g(0) = I) are implemented in the
rescaled-normal form, weighting each contracted index h by 1/d_h; at
d = (1,..,1) they reduce to the classical statements.  This keeps every
computation rational even when the unit-gauge coordinate change would need
square roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .jets import (
    Jet,
    JetMatrix,
    ValidityError,
    _graded_inverse,
    _Packing,
    mi_factorial,
    weight,
)
from .rationals import Q, ZERO


class GaugeError(ValueError):
    """Coordinates outside the supported gauge (see module docstring)."""


class TruncationError(ValueError):
    """The potential jet is not deep enough for the requested computation."""

    def __init__(self, message, required):
        super().__init__(message)
        self.required = required


@dataclass(eq=False)
class MetricJet:
    """Potential and inverse-metric jets, plus origin normalization.

    There is no g field (see metric_from_potential).  origin_diag holds
    d_i = g[i][i](0).  normal_gauge means g(0) is the identity and the
    potential has no monomial of total degree 3; cubic_free is the degree-3
    half of that condition alone (it makes all first derivatives of g vanish
    at the origin).  _pullback is (packing, Lg, index), fixed at build (see
    _laplacian_functional); _functionals maps k to the lap^k table and its
    packed numerators N_k, with table 0 there from the start and the rest
    filled on first use; _einstein caches the Einstein report.
    """

    n: int
    potential: Jet
    g_inv: JetMatrix
    origin_diag: tuple
    normal_gauge: bool
    cubic_free: bool
    _pullback: tuple = field(repr=False)
    _functionals: dict = field(repr=False)
    _einstein: EinsteinReport = field(default=None, repr=False)


def metric_from_potential(potential: Jet) -> MetricJet:
    """Build MetricJet from a potential jet valid to degree >= 2.

    Fails with GaugeError unless g(0) is diagonal with positive entries.

    g is never formed as a matrix of rational jets.  Only the terms with
    both a z and a zb factor reach g; they are packed once (_Packing, slots
    for exponents up to valid_degree - 1, the most such a term carries).
    With Lp the lcm of their denominators, a term c z^P zb^Q gives
    Lp c P_i Q_j at the packed key K - e_i - e_{n+j} of Lp g[i][j], in its
    degree |P| + |Q| - 2 part; no two terms meet there, since the shift is
    the same for every term of one entry.  The integer parts go to the
    inverse kernel as g = parts / Lp.

    The pullback index is built here too, on the same packing: with Lg the
    lcm of the reduced denominators of g_inv, it maps the packed key of each
    g_inv monomial (U, V) to the positions carrying it, as (Lg * coefficient,
    shift of slot j, shift of slot n + i, packed e_j + e_i).
    """
    if potential.valid_degree < 2:
        raise TruncationError(
            "potential must be valid at least to degree 2", required=2
        )
    n, D = potential.n, potential.valid_degree - 2
    pk = _Packing(n, D + 1)
    terms = [
        (P, Q_, c) for (P, Q_), c in potential.coeffs.items() if any(P) and any(Q_)
    ]
    lp = lcm(*(c.denominator for *_, c in terms))
    units = [1 << pk.bits * s for s in range(2 * n)]
    # parts[d][i][j]: the degree-d part of Lp g[i][j], packed key -> integer
    parts = [[[{} for _ in range(n)] for _ in range(n)] for _ in range(D + 1)]
    for P, Q_, c in terms:
        key = pk.pack(P, Q_)
        c = c.numerator * (lp // c.denominator)
        rows = parts[weight(P) + weight(Q_) - 2]
        bars = [(j, b, units[n + j]) for j, b in enumerate(Q_) if b]
        for i, a in enumerate(P):
            if a:
                row, ca, ki = rows[i], c * a, key - units[i]
                for j, b, u in bars:
                    row[j][ki - u] = ca * b
    diag = []
    for i in range(n):
        for j in range(n):
            c = Q(parts[0][i][j].get(0, 0), lp)
            if i == j:
                if c <= 0:
                    raise GaugeError(
                        f"g({i},{i})(0) = {c} is not positive"
                    )
                diag.append(c)
            elif c != 0:
                raise GaugeError(
                    f"g(0) is not diagonal: entry ({i},{j}) = {c}"
                )
    g_inv = _graded_inverse(pk, parts, lp)
    ginv_terms = [
        (i, j, key, c)
        for i in range(n)
        for j in range(n)
        for key, c in g_inv[i][j].coeffs.items()
    ]
    lg = lcm(*(c.denominator for *_, c in ginv_terms))
    index = {}
    for i, j, key, c in ginv_terms:
        shift_j, shift_i = pk.bits * j, pk.bits * (n + i)
        index.setdefault(pk.pack(*key), []).append(
            (
                c.numerator * (lg // c.denominator),
                shift_j,
                shift_i,
                (1 << shift_j) + (1 << shift_i),
            )
        )
    cubic_free = not any(
        weight(P) + weight(Q_) == 3 for (P, Q_) in potential.coeffs
    )
    normal = cubic_free and all(d == 1 for d in diag)
    return MetricJet(
        n=n,
        potential=potential,
        g_inv=g_inv,
        origin_diag=tuple(diag),
        normal_gauge=normal,
        cubic_free=cubic_free,
        _pullback=(pk, lg, index),
        _functionals={0: ({pk.unpack(0): Q(1)}, {0: 1})},
    )


def laplacian_apply(m: MetricJet, phi: Jet) -> Jet:
    """sum_{i,j} g_inv[i][j] * d^2 phi / dz_j dzb_i as a jet."""
    if phi.valid_degree < 2:
        raise ValidityError("phi must be valid at least to degree 2")
    if phi.n != m.n:
        raise ValueError("phi lives in a different variable space")
    acc = Jet.zero(m.n, min(m.g_inv.valid_degree, phi.valid_degree - 2))
    for j in range(m.n):
        dj = phi.dz(j)
        for i in range(m.n):
            acc = acc + m.g_inv[i][j] * dj.dzbar(i)
    return acc


def _laplacian_functional(m: MetricJet, k: int) -> dict:
    """The linear functional phi -> lap^k(phi)(0) as a coefficient table.

    Table maps (P, Q) -> c with lap^k(phi)(0) = sum c * phi_{P,Q}; support
    lies within total degree 2k.  Built by pulling the origin-evaluation
    functional back through the Laplacian k times: table k - 1 entry c at
    (A, B) and g_inv[i][j] coefficient g at a divisor (U, V) <= (A, B) add
    c * g * S_j * T_i at (S, T) = (A - U + e_j, B - V + e_i).

    The pullback runs on integers, with the packing and index that
    metric_from_potential fixed (m._pullback).  With Lg the lcm of the
    denominators of g_inv and g' = Lg g_inv integral, table k is N_k / Lg^k
    with N_0 = 1 at the origin and N_k built from N_{k-1} by the step above
    with g' for g.  Keys are packed, so (S, T) is the int sum
    A - U + e_j + e_i.  Table k has |P| <= k and |Q| <= k, since each step
    adds one to |P| and one to |Q| and removes a divisor; so every k up to
    the slot mask is exact, and a larger k raises ValidityError.  Each
    entry of table k becomes a rational once, as N_k / Lg^k.
    """
    done = m._functionals.get(k)
    if done is not None:
        return done[0]
    pk, lg, index = m._pullback
    mask = pk.mask
    if k > mask:
        raise ValidityError(
            f"lap^{k} needs exponent slots above {mask}; the metric's "
            f"potential is valid only to degree {m.potential.valid_degree}"
        )
    _laplacian_functional(m, k - 1)
    out = {}
    get = out.get
    for KA, c in m._functionals[k - 1][1].items():
        for KU in pk.divisors(KA):
            hits = index.get(KU)
            if hits is None:
                continue
            base = KA - KU
            for g, shift_j, shift_i, step in hits:
                key = base + step
                out[key] = get(key, 0) + (
                    c * g * ((key >> shift_j) & mask) * ((key >> shift_i) & mask)
                )
    nums = {key: c for key, c in out.items() if c}
    den = lg**k
    table = {pk.unpack(key): Q(c, den) for key, c in nums.items()}
    m._functionals[k] = (table, nums)
    return table


def delta_power_at0(m: MetricJet, phi: Jet, k: int):
    """lap^k(phi)(0), exact.

    Needs the potential valid to 2k (inverse metric to 2k-2) and phi valid
    to 2k, since the value reads phi's coefficients through total degree 2k.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if m.potential.valid_degree < 2 * k:
        raise TruncationError(
            f"potential valid_degree {m.potential.valid_degree} < {2 * k} "
            f"needed for k={k}",
            required=2 * k,
        )
    if phi.n != m.n:
        raise ValueError("phi lives in a different variable space")
    if phi.valid_degree < 2 * k:
        raise ValidityError(
            f"phi valid_degree {phi.valid_degree} < {2 * k} needed for k={k}"
        )
    table = _laplacian_functional(m, k)
    acc = ZERO
    for key, c in phi.coeffs.items():
        t = table.get(key)
        if t is not None:
            acc += t * c
    return acc


@dataclass(frozen=True)
class EinsteinReport:
    """lam is present exactly when the origin Einstein identity holds (residual 0)."""

    lam: object
    residual: object


def einstein_constant(m: MetricJet) -> EinsteinReport:
    """Test sum_h (1/d_h) d^2 g_inv[i][j] / dz_h dzb_h (0) = lam delta_ij / d_i.

    In unit gauge this is the classical origin identity equivalent to
    Ric(0) = lam g(0); the 1/d weights extend it to rescaled-normal
    coordinates.  Requires a cubic-free potential so first derivatives of g
    vanish at the origin.
    """
    if m._einstein is not None:
        return m._einstein
    if not m.cubic_free:
        raise GaugeError(
            "potential has degree-3 monomials; first metric derivatives do "
            "not vanish at the origin"
        )
    if m.g_inv.valid_degree < 2:
        raise TruncationError(
            "inverse metric valid below degree 2", required=4
        )
    n = m.n
    d = m.origin_diag
    basis = [tuple(1 if a == h else 0 for a in range(n)) for h in range(n)]
    s = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = ZERO
            for h in range(n):
                c = m.g_inv[i][j].coeffs.get((basis[h], basis[h]))
                if c is not None:
                    acc += c / d[h]
            s[i][j] = acc
    lam = d[0] * s[0][0]
    residual = ZERO
    for i in range(n):
        for j in range(n):
            dev = abs(d[i] * s[i][j] - (lam if i == j else ZERO))
            if dev > residual:
                residual = dev
    report = (
        EinsteinReport(lam=None, residual=residual)
        if residual != 0
        else EinsteinReport(lam=lam, residual=ZERO)
    )
    m._einstein = report
    return report


def third_deriv_obstruction(m: MetricJet):
    """max |d^3 g[a][b] / dz_g dzb_d dz_e (0)| over all index tuples.

    Zero exactly when the curvature-derivative proxy vanishes at the origin.
    The derivative is the fifth derivative of the potential along
    z^P zb^Q with P = e_a + e_g + e_e and Q = e_b + e_d, which is c P! Q!
    for its term c z^P zb^Q, the same for every split of the indices; so the
    max runs over the potential's terms of bidegree (3, 2).
    """
    if not m.cubic_free:
        raise GaugeError("potential has degree-3 monomials")
    if m.potential.valid_degree < 5:
        raise TruncationError(
            "potential valid_degree must be >= 5", required=5
        )
    best = ZERO
    for (P, Q_), c in m.potential.coeffs.items():
        if weight(P) == 3 and weight(Q_) == 2:
            v = abs(c) * mi_factorial(P) * mi_factorial(Q_)
            if v > best:
                best = v
    return best


def fifth_order_check(m: MetricJet):
    """max over all (i,j,h,k,l) of |the six-term symmetrized third-derivative
    sum of the inverse metric at the origin|:

        d_{h kb l} ginv[i][j] + d_{i kb l} ginv[h][j] + d_{i kb h} ginv[l][j]
      + d_{h jb l} ginv[i][k] + d_{i jb l} ginv[h][k] + d_{i jb h} ginv[l][k]
    """
    if m.potential.valid_degree < 5:
        raise TruncationError(
            "potential valid_degree must be >= 5", required=5
        )
    n = m.n
    # dg3[a][b] maps (g, d, e) with g <= e to d^3 ginv[a][b]/dz_g dzb_d dz_e (0)
    dg3 = [[{} for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for (P, Q_), c in m.g_inv[a][b].coeffs.items():
                if weight(P) == 2 and weight(Q_) == 1:
                    hol = [idx for idx, e in enumerate(P) for _ in range(e)]
                    dd = Q_.index(1)
                    val = c * (2 if hol[0] == hol[1] else 1)
                    dg3[a][b][(hol[0], dd, hol[1])] = val

    def term(g, d, e, a, b):
        lo, hi = (g, e) if g <= e else (e, g)
        return dg3[a][b].get((lo, d, hi), ZERO)

    # The six-term sum is symmetric in (i, h, l) and in (j, k), so any tuple
    # with a nonzero term can be reordered to make that term the first one,
    # term(h, k, l, i, j) = dg3[i][j][(h, k, l)]; a tuple without one sums to
    # zero.  Evaluating the sum once per stored entry therefore gives the max
    # over all n^5 tuples.
    best = ZERO
    for i in range(n):
        for j in range(n):
            for h, k, l in dg3[i][j]:
                s = (
                    term(h, k, l, i, j)
                    + term(i, k, l, h, j)
                    + term(i, k, h, l, j)
                    + term(h, j, l, i, k)
                    + term(i, j, l, h, k)
                    + term(i, j, h, l, k)
                )
                if abs(s) > best:
                    best = abs(s)
    return best
