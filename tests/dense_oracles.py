"""Dense reference computations used only as test oracles.

The walks enumerate the whole index space instead of the nonzero support
that the library walks: the complete monomial test set for the polynomial
fit and every (i, j, h, k, l) tuple for the fifth-order check.  The inverse
and the reciprocal sum geometric (Neumann) series with full jet products
instead of solving degree by degree.  The radial C constants are evaluated
from their definition, by applying the Euclidean Laplacian to a jet, instead
of from their closed form.  log(1 + s) sums its power series with full jet
products instead of solving degree by degree, and direct_potential_jet
builds the catalog potentials by hand-written log det jet algebra instead
of elaborating their surface expressions.  They are slow on large inputs and
exist so that the library can be compared against the definitions.
"""

from math import factorial

from kahlerlap.catalog import SpaceDescriptor, _upper_index, dual_potential
from kahlerlap.fit import (
    FitResult,
    LaplacePolynomial,
    ViolationWitness,
    rescaled_value,
)
from kahlerlap.jets import (
    Jet,
    JetError,
    JetMatrix,
    NonInvertibleError,
    _invert_rational,
    mi_factorial,
    multiindices,
    substitute_radial,
    weight,
)
from kahlerlap.metric import TruncationError, _laplacian_functional
from kahlerlap.radial import named_profile
from kahlerlap.rationals import Q, ZERO


def monomial_test_set(n, k):
    """All pairs (P, Q) with |P| + |Q| <= 2k in graded lexicographic order.

    Sufficient: lap^k(.)(0) and p_k(lap_c)(.)(0) are both linear functionals
    reading only derivatives of order <= 2k at the origin.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    by_degree = [list(multiindices(n, t)) for t in range(2 * k + 1)]
    pairs = []
    for dp in range(2 * k + 1):
        for dq in range(2 * k + 1 - dp):
            for P in by_degree[dp]:
                for Q_ in by_degree[dq]:
                    pairs.append((P, Q_))
    pairs.sort(key=lambda pq: (weight(pq[0]) + weight(pq[1]), pq[0], pq[1]))
    return pairs


def dense_fit_pk(m, k) -> FitResult:
    """fit_pk over the complete monomial test set."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if m.potential.valid_degree < 2 * k:
        raise TruncationError(
            f"potential valid_degree {m.potential.valid_degree} < {2 * k} "
            f"needed for the order-{k} fit",
            required=2 * k,
        )
    table = _laplacian_functional(m, k)
    candidates = {}
    for P, Q_ in monomial_test_set(m.n, k):
        if P != Q_:
            v = table.get((P, Q_), ZERO)
            if v != 0:
                return FitResult(
                    k=k,
                    witness=ViolationWitness(
                        P=P, Q=Q_, kind="off_diagonal_nonzero", lhs=v,
                        expected=ZERO,
                    ),
                )
            continue
        p = weight(P)
        if p == 0:
            continue
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


def dense_fifth_order_check(m):
    """fifth_order_check as the O(n^5) loop over every index tuple."""
    if m.potential.valid_degree < 5:
        raise TruncationError(
            "potential valid_degree must be >= 5", required=5
        )
    n = m.n
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

    best = ZERO
    rng = range(n)
    for i in rng:
        for j in rng:
            for h in rng:
                for k in rng:
                    for l in rng:
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


def neumann_inverse(g):
    """JetMatrix inverse as the Neumann series of G_0^{-1} (G - G_0).

    Splits off the constant part G0 (inverted exactly over the rationals)
    and sums the series of the degree >= 1 remainder with full matrix
    products; the series terminates at the validity.
    """
    m = g.rows
    g0 = [[g.entries[i][j].eval0() for j in range(m)] for i in range(m)]
    g0_inv = _invert_rational(g0)
    b = _const_times(g0_inv, g)
    r = JetMatrix.identity(g.n, m, g.valid_degree) - b  # -N, min deg >= 1
    acc = JetMatrix.identity(g.n, m, g.valid_degree)
    power = acc
    for _ in range(g.valid_degree):
        power = power @ r
        if all(e.is_zero() for row in power.entries for e in row):
            break
        acc = acc + power
    return _times_const(acc, g0_inv)


def _const_times(const, mat):
    """Rational matrix times JetMatrix."""
    m = len(const)
    out = []
    for i in range(m):
        row = []
        for j in range(mat.cols):
            acc = Jet.zero(mat.n, mat.valid_degree)
            for k in range(m):
                if const[i][k] != 0:
                    acc = acc + mat.entries[k][j].scale(const[i][k])
            row.append(acc)
        out.append(row)
    return JetMatrix(out)


def _times_const(mat, const):
    """JetMatrix times rational matrix."""
    m = len(const)
    out = []
    for i in range(mat.rows):
        row = []
        for j in range(m):
            acc = Jet.zero(mat.n, mat.valid_degree)
            for k in range(m):
                if const[k][j] != 0:
                    acc = acc + mat.entries[i][k].scale(const[k][j])
            row.append(acc)
        out.append(row)
    return JetMatrix(out)


def reciprocal(j):
    """Jet r with j*r = 1 through valid_degree, as a geometric series."""
    c0 = j.eval0()
    if c0 == 0:
        raise NonInvertibleError("reciprocal of a jet with zero constant term")
    u = Jet.constant(j.n, 1, j.valid_degree) - j / c0
    acc = Jet.constant(j.n, 1, j.valid_degree)
    power = Jet.constant(j.n, 1, j.valid_degree)
    for _ in range(j.valid_degree):
        power = power * u
        if power.is_zero():
            break
        acc = acc + power
    return acc / c0


def c_constant_at(psi, P, l, n):
    """(lap_c)^l (|z^P|^2 psi)(0) / (p! P!) for an explicit representative P.

    The jet of |z^P|^2 psi(t) is built directly, truncated at degree 2l
    (higher terms cannot reach the origin value), so representatives with
    p > l give an empty jet and the value 0.
    """
    P = tuple(P)
    p = sum(P)
    coeffs = {}
    for m in range(0, min(psi.order, l - p) + 1):
        a = psi.coeffs[m]
        if a == 0:
            continue
        fm = factorial(m)
        for A in multiindices(n, m):
            key = tuple(x + y for x, y in zip(A, P))
            coeffs[(key, key)] = a * Q(fm, mi_factorial(A))
    jet = Jet(n, coeffs, 2 * l)
    for _ in range(l):
        nxt = Jet.zero(n, jet.valid_degree - 2)
        for i in range(n):
            nxt = nxt + jet.dz(i).dzbar(i)
        jet = nxt
    return jet.eval0() / Q(factorial(p) * mi_factorial(P))


def series_log1p(s):
    """log(1 + s) as the power series sum (-1)^(m+1) s^m / m, full products."""
    if s.eval0() != 0:
        raise JetError("log1p needs a zero constant term")
    acc = Jet.zero(s.n, s.valid_degree)
    power = Jet.constant(s.n, 1, s.valid_degree)
    for m in range(1, s.valid_degree + 1):
        power = power * s
        if power.is_zero():
            break
        acc = acc + power.scale(Q(-1 if m % 2 == 0 else 1, m))
    return acc


def _matrix_potential(entries_w, rows, cols, n, D):
    """log det(I + W^dagger W) for W given as a rows x cols array of jets."""
    size = cols
    s = []
    for a in range(size):
        row = []
        for b in range(size):
            acc = Jet.zero(n, D)
            for r in range(rows):
                w_ra = entries_w[r][a]
                w_rb = entries_w[r][b]
                if w_ra is not None and w_rb is not None:
                    acc = acc + w_ra.conj() * w_rb
            row.append(acc)
        s.append(row)
    gram = JetMatrix(s)
    det = (JetMatrix.identity(n, size, D) + gram).det()
    return series_log1p(det - Jet.constant(n, 1, D))


def direct_potential_jet(desc: SpaceDescriptor, D):
    """The catalog potential built family by family with jet arithmetic:
    radial substitution, log det(I + W^dagger W) from explicit matrices of
    coordinate jets, the quadric log(1 + ...) term by term, and products by
    offsetting the factor exponents."""
    fam = desc.family
    if fam == "flat":
        n = desc.param("n")
        return substitute_radial(named_profile("flat", max(1, (D + 1) // 2)).series, n, D)
    if fam == "cp":
        n = desc.param("n")
        return substitute_radial(
            named_profile("fubini-study", max(1, (D + 1) // 2)).series, n, D
        )
    if fam == "ch":
        n = desc.param("n")
        return substitute_radial(
            named_profile("hyperbolic", max(1, (D + 1) // 2)).series, n, D
        )
    if fam == "grassmannian":
        k, N = desc.param("k"), desc.param("N")
        n = k * (N - k)
        w = [
            [Jet.variable(n, r * k + c, D) for c in range(k)]
            for r in range(N - k)
        ]
        return _matrix_potential(w, N - k, k, n, D)
    if fam == "so2n":
        N = desc.param("N")
        n = N * (N - 1) // 2
        idx = _upper_index(N, strict=True)
        w = [[None] * N for _ in range(N)]
        for i in range(N):
            for j in range(N):
                if i < j:
                    w[i][j] = Jet.variable(n, idx[(i, j)], D)
                elif i > j:
                    w[i][j] = -Jet.variable(n, idx[(j, i)], D)
        return _matrix_potential(w, N, N, n, D).scale(Q(1, 2))
    if fam == "sp":
        N = desc.param("N")
        n = N * (N + 1) // 2
        idx = _upper_index(N, strict=False)
        w = [
            [Jet.variable(n, idx[(min(i, j), max(i, j))], D) for j in range(N)]
            for i in range(N)
        ]
        return _matrix_potential(w, N, N, n, D)
    if fam in ("quadric-even", "quadric-odd"):
        N = desc.param("N")
        nv = N - 1
        n = 2 * nv + (1 if fam == "quadric-odd" else 0)
        v = [Jet.variable(n, i, D) for i in range(nv)]
        vp = [Jet.variable(n, nv + i, D) for i in range(nv)]
        inner = Jet.zero(n, D)
        for jet in v + vp:
            inner = inner + jet * jet.conj()
        cross = Jet.zero(n, D)
        for a, b in zip(v, vp):
            cross = cross + a * b
        if fam == "quadric-odd":
            u = Jet.variable(n, 2 * nv, D)
            inner = inner + u * u.conj()
            cross = cross - (u * u).scale(Q(1, 2))
        inner = inner + (cross * cross.conj()).scale(4)
        return series_log1p(inner)
    if fam == "product":
        jets = [direct_potential_jet(f, D) for f in desc.inner]
        n = sum(j.n for j in jets)
        coeffs = {}
        offset = 0
        for jet in jets:
            for (P, Q_), c in jet.coeffs.items():
                P2 = (0,) * offset + P + (0,) * (n - offset - jet.n)
                Q2 = (0,) * offset + Q_ + (0,) * (n - offset - jet.n)
                coeffs[(P2, Q2)] = coeffs.get((P2, Q2), ZERO) + c
            offset += jet.n
        return Jet(n, coeffs, min(j.valid_degree for j in jets))
    if fam == "dual":
        return dual_potential(direct_potential_jet(desc.inner[0], D))
    raise ValueError(f"unknown family {fam!r}")
