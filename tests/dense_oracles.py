"""Dense reference computations used only as test oracles.

The walks enumerate the whole index space instead of the nonzero support
that the library walks: the complete monomial test set for the polynomial
fit and every (i, j, h, k, l) tuple for the fifth-order check.  The inverse
and the reciprocal sum geometric (Neumann) series with full jet products
instead of solving degree by degree.  The radial C constants are evaluated
from their definition, by applying the Euclidean Laplacian to a jet, instead
of from their closed form.  They are slow on large inputs and exist so that
the library can be compared against the definitions.
"""

from math import factorial

from kahlerlap.fit import (
    FitResult,
    LaplacePolynomial,
    ViolationWitness,
    rescaled_value,
)
from kahlerlap.jets import (
    Jet,
    JetMatrix,
    NonInvertibleError,
    _invert_rational,
    mi_factorial,
    multiindices,
    weight,
)
from kahlerlap.metric import TruncationError, _laplacian_functional
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
