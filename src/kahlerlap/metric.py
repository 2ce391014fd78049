"""Metric data from a Kahler potential and origin evaluations of its Laplacian.

Conventions.  The metric matrix is g[i][j] = d^2 Phi / dz_i dzb_j and g_inv
is its matrix inverse over the jet ring, so the Laplacian of phi is

    lap(phi) = sum_{i,j} g_inv[i][j] * d^2 phi / dz_j dzb_i.

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
from math import factorial

from .jets import (
    Jet,
    JetMatrix,
    ValidityError,
    divisor_pairs,
    mi_factorial,
    multiindices,
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
    """Potential, metric and inverse-metric jets, plus origin normalization.

    origin_diag holds d_i = g[i][i](0).  normal_gauge means g(0) is the
    identity and the potential has no monomial of total degree 3; cubic_free
    is the degree-3 half of that condition alone (it makes all first
    derivatives of g vanish at the origin).  The underscored fields are
    caches filled on first use: lap^k tables by k, order-3 expansion tables
    by lam, the index of g_inv coefficients by monomial, and the Einstein
    report.
    """

    n: int
    potential: Jet
    g: JetMatrix
    g_inv: JetMatrix
    origin_diag: tuple
    normal_gauge: bool
    cubic_free: bool
    _functionals: dict = field(default_factory=dict, repr=False)
    _laplcube: dict = field(default_factory=dict, repr=False)
    _ginv_index: dict = field(default=None, repr=False)
    _einstein: EinsteinReport = field(default=None, repr=False)


def metric_from_potential(potential: Jet) -> MetricJet:
    """Build MetricJet from a potential jet valid to degree >= 2.

    Fails with GaugeError unless g(0) is diagonal with positive entries.
    """
    if potential.valid_degree < 2:
        raise TruncationError(
            "potential must be valid at least to degree 2", required=2
        )
    n = potential.n
    d = [potential.dz(i) for i in range(n)]
    g = JetMatrix([[d[i].dzbar(j) for j in range(n)] for i in range(n)])
    diag = []
    for i in range(n):
        for j in range(n):
            c = g[i][j].eval0()
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
    g_inv = g.inverse()
    cubic_free = not any(
        weight(P) + weight(Q_) == 3 for (P, Q_) in potential.coeffs
    )
    normal = cubic_free and all(d == 1 for d in diag)
    return MetricJet(
        n=n,
        potential=potential,
        g=g,
        g_inv=g_inv,
        origin_diag=tuple(diag),
        normal_gauge=normal,
        cubic_free=cubic_free,
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
    functional back through the Laplacian k times; each step convolves with
    the inverse-metric coefficients via divisor enumeration and hash lookup.
    """
    if k in m._functionals:
        return m._functionals[k]
    if k == 0:
        zero_mi = (0,) * m.n
        table = {(zero_mi, zero_mi): Q(1)}
        m._functionals[0] = table
        return table
    prev = _laplacian_functional(m, k - 1)
    # monomial -> list of inverse-metric positions carrying it
    by_mono = m._ginv_index
    if by_mono is None:
        by_mono = {}
        for i in range(m.n):
            for j in range(m.n):
                for key, c in m.g_inv[i][j].coeffs.items():
                    by_mono.setdefault(key, []).append((i, j, c))
        m._ginv_index = by_mono
    out = {}
    for (A, B), c in prev.items():
        for U, V in divisor_pairs(A, B):
            hits = by_mono.get((U, V))
            if not hits:
                continue
            S_base = tuple(a - u for a, u in zip(A, U))
            T_base = tuple(b - v for b, v in zip(B, V))
            for i, j, gcoef in hits:
                S = S_base[:j] + (S_base[j] + 1,) + S_base[j + 1 :]
                T = T_base[:i] + (T_base[i] + 1,) + T_base[i + 1 :]
                key = (S, T)
                add = c * gcoef * S[j] * T[i]
                s = out.get(key, ZERO) + add
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
    m._functionals[k] = out
    return out


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


def euclidean_power_at0(phi, l: int):
    """(lap_c)^l phi at the origin, lap_c = sum_i d^2/dz_i dzb_i.

    phi may be a jet or a multi-index pair (P, Q); for the pair the value is
    l! * P! when P == Q and |P| == l, else 0.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if isinstance(phi, tuple):
        P, Q_ = phi
        if tuple(P) != tuple(Q_) or weight(P) != l:
            return ZERO
        return Q(factorial(l) * mi_factorial(P))
    return _weighted_euclidean_at0(phi, l, None)


def _weighted_euclidean_at0(phi: Jet, l: int, diag):
    """(sum_i (1/d_i) d^2/dz_i dzb_i)^l phi at 0; diag None means d = 1."""
    if l == 0:
        return phi.eval0()
    fl = factorial(l)
    acc = ZERO
    for (P, Q_), c in phi.coeffs.items():
        if P != Q_ or weight(P) != l:
            continue
        term = c * fl * mi_factorial(P)
        if diag is not None:
            for i, e in enumerate(P):
                if e:
                    term /= diag[i] ** e
        acc += term
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


def check_k2_identity(m: MetricJet, phi: Jet):
    """Whether lap^2 phi(0) equals (lap_d^2 + lam lap_d) phi(0).

    lap_d is the d-weighted Euclidean Laplacian; returns (ok, discrepancy).
    """
    rep = einstein_constant(m)
    if rep.lam is None:
        raise GaugeError("metric is not Einstein at the origin")
    lhs = delta_power_at0(m, phi, 2)
    rhs = _weighted_euclidean_at0(phi, 2, m.origin_diag) + rep.lam * (
        _weighted_euclidean_at0(phi, 1, m.origin_diag)
    )
    return lhs == rhs, lhs - rhs


def third_deriv_obstruction(m: MetricJet):
    """max |d^3 g[a][b] / dz_g dzb_d dz_e (0)| over all index tuples.

    Zero exactly when the curvature-derivative proxy vanishes at the origin.
    """
    if not m.cubic_free:
        raise GaugeError("potential has degree-3 monomials")
    if m.potential.valid_degree < 5:
        raise TruncationError(
            "potential valid_degree must be >= 5", required=5
        )
    best = ZERO
    for i in range(m.n):
        for j in range(m.n):
            for (P, Q_), c in m.g[i][j].coeffs.items():
                if weight(P) == 2 and weight(Q_) == 1:
                    v = abs(c) * (2 if max(P) == 2 else 1)
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


def _laplcube_functional(m: MetricJet, lam) -> dict:
    """Coefficient table of the order-3 expansion of lap^3 phi(0):

        (lap_d^3 + 3 lam lap_d^2 + lam^2 lap_d) phi(0)
        + 2 sum w_lh d_{l hb} ginv[i][j] d^4 phi/dz_j dz_h dzb_l dzb_i
        +   sum w_lh d_{l h}  ginv[i][j] d^4 phi/dz_j dzb_h dzb_l dzb_i
        +   sum w_lh d_{lb hb} ginv[i][j] d^4 phi/dz_j dz_h dz_l dzb_i
        +   sum w_lh d_{l h lb hb} ginv[i][j] d^2 phi/dz_j dzb_i

    with w_lh = 1/(d_l d_h); all derivatives at the origin.
    """
    key = ("laplcube", lam)
    if key in m._laplcube:
        return m._laplcube[key]
    n = m.n
    d = m.origin_diag
    table = {}

    def put(mono, value):
        if value == 0:
            return
        s = table.get(mono, ZERO) + value
        if s == 0:
            table.pop(mono, None)
        else:
            table[mono] = s

    # polynomial part in the weighted Euclidean Laplacian
    for l, coef in ((1, lam * lam), (2, 3 * lam), (3, Q(1))):
        if coef == 0:
            continue
        for A in multiindices(n, l):
            wgt = Q(factorial(l) * mi_factorial(A))
            for i, e in enumerate(A):
                if e:
                    wgt /= d[i] ** e
            put((A, A), coef * wgt)

    def e_vec(*idxs):
        v = [0] * n
        for i in idxs:
            v[i] += 1
        return tuple(v)

    for i in range(n):
        for j in range(n):
            entry = m.g_inv[i][j].coeffs
            for l in range(n):
                for h in range(n):
                    w = Q(1) / (d[l] * d[h])
                    # mixed second derivative of ginv
                    c = entry.get((e_vec(l), e_vec(h)))
                    if c is not None:
                        P, Q_ = e_vec(j, h), e_vec(l, i)
                        put(
                            (P, Q_),
                            2 * w * c * mi_factorial(P) * mi_factorial(Q_),
                        )
                    # holomorphic-holomorphic
                    c = entry.get((e_vec(l, h), e_vec()))
                    if c is not None:
                        P, Q_ = e_vec(j), e_vec(h, l, i)
                        put(
                            (P, Q_),
                            w
                            * c
                            * mi_factorial(e_vec(l, h))
                            * mi_factorial(Q_),
                        )
                    # antiholomorphic-antiholomorphic
                    c = entry.get((e_vec(), e_vec(l, h)))
                    if c is not None:
                        P, Q_ = e_vec(j, h, l), e_vec(i)
                        put(
                            (P, Q_),
                            w
                            * c
                            * mi_factorial(e_vec(l, h))
                            * mi_factorial(P),
                        )
                    # fourth derivative of ginv
                    c = entry.get((e_vec(l, h), e_vec(l, h)))
                    if c is not None:
                        fac = mi_factorial(e_vec(l, h))
                        put((e_vec(j), e_vec(i)), w * c * fac * fac)
    m._laplcube[key] = table
    return table


def laplcube_expansion(m: MetricJet, phi: Jet):
    """Evaluate the order-3 origin expansion term by term from the stored jets.

    For an Einstein metric in a cubic-free diagonal gauge this must equal
    delta_power_at0(m, phi, 3).
    """
    rep = einstein_constant(m)
    if rep.lam is None:
        raise GaugeError("metric is not Einstein at the origin")
    if m.potential.valid_degree < 6:
        raise TruncationError(
            "potential valid_degree must be >= 6", required=6
        )
    if phi.valid_degree < 6:
        raise ValidityError("phi must be valid to degree 6")
    table = _laplcube_functional(m, rep.lam)
    acc = ZERO
    for key, c in phi.coeffs.items():
        t = table.get(key)
        if t is not None:
            acc += t * c
    return acc
