"""Dense reference computations used only as test oracles.

The walks enumerate the whole index space instead of the nonzero support
that the library walks: the complete monomial test set for the polynomial
fit and every (i, j, h, k, l) tuple for the fifth-order check.  The inverse
and the reciprocal sum geometric (Neumann) series with full jet products
instead of solving degree by degree.  The radial C constants are evaluated
from their definition, by applying the Euclidean Laplacian to a jet, instead
of from their closed form, and the radial recursion runs in rationals, one
step at a time, on psi series built by truncated series products and
reciprocals (series_*), where the library builds one integer recursion
matrix from two integer reciprocals.  log(1 + s) sums its power series
with full jet products instead of solving degree by degree, and
direct_potential_jet builds the catalog potentials by hand-written log det
jet algebra (the determinant itself, not the minor and Pfaffian sums the
catalog elaborates), radial substitution over multiindices and duality on
tuple keys.  They are slow on large inputs and exist so that the library
can be compared against the definitions.

ref_elaborate evaluates a potential expression node by node on rational
jets, where dsl.elaborate evaluates its polynomial subtrees as integer
parts over one denominator and hands log arguments to the integer log1p
kernel; ref_tokenize is the character-by-character form of the
tokenizer's one regex.

The jet ring operations (ref_add, ref_mul, ref_conj, ref_dz, ref_dzbar,
ref_truncated) are the tuple-keyed forms of the library's packed, graded
ones: they read .coeffs, build (P, Q) keys exponent by exponent and go back
through the validating constructor; ref_mul pairs terms by degree, so it
forms nothing past the validity.  series_log1p uses them alone, and
ref_substitute_radial and ref_dual_potential are the tuple-keyed forms of
the packed substitute_radial and catalog.dual_potential.  The
lap^k pullback is the tuple-key, rational form of the library's packed
integer kernel, from every key of the support; expand_orbits writes a table
stored one key per S_n-orbit back onto every key, and full_tables gives a
metric whose tables are built that way by the library's own loop, on
naive_index: the pullback index of a whole g_inv, walked entry by entry on
tuple keys, where the library writes it from the closed form's or the
graded solve's upper triangle with each term's mate, dividing by the gcd as
it goes, or from an S_n-fixed column by transpositions.  eager_index
writes an upper or full store whole at build, every degree at once, where
the library indexes it one degree at a time and pairs the top degree that
each lap^k step reads (eager_copy gives a metric whose tables are built on
it), and ref_diagonal_keys walks the diagonal keys of every degree up to a
bound at once, by tails of the exponent vector, where the library walks
one degree at a time by successors.
metric_matrix builds g by differentiating the potential
jet entry by entry, where the library packs the potential and never forms
g, and third_deriv_obstruction_from_g reads the obstruction from that g,
where the library reads it from the potential's degree-(3,2) terms.  The
matrix ring operations, the Euclidean powers, the order-3 expansion of
lap^3 and verify_witness are code that only the tests use, as are the
tuple-keyed reads of the lap^k table (_support_pairs, _raw_value,
rescaled_value, which raises RescaleError), which fit_pk replaced by a walk
over the packed keys.  verify_witness recomputes the value of a witness by
applying laplacian_apply k times for n <= 4, so it does not trust the table.
ref_einstein_constant sums the Einstein test's weighted second derivatives
of g_inv in rationals, entry by entry, where the library decides it on
integers and builds a rational only for lam and a nonzero residual.
fixed_by_permutations proves an S_n-symmetry of g_inv by reading every term
of its integer parts (scanned_orbits, the verdict of a built metric), where
metric_with_inverse reads it off the potential's terms for both builders.
ref_bergman_inverse multiplies out both triangles of the Bergman closed form,
unreduced, where catalog.bergman_inverse multiplies out the upper one, or
column 0 of a permutation-symmetric one, on packed integer blocks; it
builds A = I + W^dagger W and B = I + W W^dagger itself, as jet products
of the coordinates in catalog._matrix_slots's W (catalog._bergman_blocks
is not read), finds the dual's sign by its own walk, flipping ch as
dual(cp), and takes flat's g_inv as I, where the catalog weights by one
curvature sign.
repacked_potential builds a Bergman family's potential at its own degree's
packing and repacks it, where catalog.build_space writes it on the packing
of D from the start.
ref_embedded_test_polys builds the test functions in the jet ring, from
each frame form's variables, where catalog.embedded_test_polys writes
|u|^2 on packed keys and forms each quartic with one product of dicts.
"""

import copy
import itertools
from functools import lru_cache
from math import factorial, gcd, lcm

from kahlerlap.catalog import SpaceDescriptor, TestFunctionPair, _matrix_slots, _upper_index
from kahlerlap.catalog import potential_jet
from kahlerlap.dsl import (
    Add, Conj, Coord, Det, ElaborationError, Lit, Log, ModSq, Mul, PotentialSyntaxError,
    Radial, Sub,
)
from kahlerlap.fit import FitResult, LaplacePolynomial, ViolationWitness, _require_depth
from kahlerlap.jets import (
    DimensionMismatch,
    Jet,
    JetError,
    JetMatrix,
    NonInvertibleError,
    ValidityError,
    _invert_rational,
    log1p,
    packing,
    substitute_radial,
)
from kahlerlap.metric import (
    EinsteinReport,
    GaugeError,
    MetricJet,
    TruncationError,
    _laplacian_functional,
    _table_value,
    delta_power_at0,
    einstein_constant,
    laplacian_apply,
)
from kahlerlap.radial import SeriesError, _slope, c_constant, named_profile, normalize
from kahlerlap.rationals import MAX_DIGITS, Q, ZERO


def variable(n, i, valid_degree):
    """The coordinate z_i (0-based), as a jet."""
    return Jet.monomial(n, [int(a == i) for a in range(n)], (0,) * n, 1, valid_degree)


def mi_factorial(exponents):
    """P! = P_1! ... P_n!."""
    out = 1
    for e in exponents:
        out *= factorial(e)
    return out


def multiindices(n, total):
    """All exponent vectors of length n with entries summing to total."""
    if n < 1:
        raise DimensionMismatch(f"need n >= 1 variables, got {n}")
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in multiindices(n - 1, total - first):
            yield (first,) + rest


def multiindices_upto(n, max_total):
    for total in range(max_total + 1):
        yield from multiindices(n, total)


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
    pairs.sort(key=lambda pq: (sum(pq[0]) + sum(pq[1]), pq[0], pq[1]))
    return pairs


class RescaleError(ValueError):
    """Value-level rescaling would be irrational and the value is nonzero."""


def _support_pairs(m, k):
    """Off-diagonal keys of the lap^k table and every (P, P) with
    1 <= |P| <= k, as (P, Q), in graded lexicographic order (|P|+|Q|, P, Q):
    the monomials that fit_pk visits on a table that holds every key of its
    support (expand_orbits), unpacked and sorted."""
    unpack = m.potential.pk.unpack
    pairs = [PQ for PQ in map(unpack, expand_orbits(m, k)) if PQ[0] != PQ[1]]
    for p in range(1, k + 1):
        pairs.extend((P, P) for P in multiindices(m.n, p))
    pairs.sort(key=lambda pq: (sum(pq[0]) + sum(pq[1]), pq[0], pq[1]))
    return pairs


def _raw_value(m, P, Q_, k):
    """lap^k(z^P zb^Q)(0) via the cached functional table."""
    _require_depth(m, k)
    return _table_value(m, k, P, Q_)


def _rescale(m, P, Q_, v):
    """v times prod d_i^{(P_i+Q_i)/2}; zero needs no rescaling, and a nonzero
    v whose exponents are half-integral over a d_i != 1 raises."""
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


def rescaled_value(m, P, Q_, k):
    """lap^k value on the monomial, rescaled to unit gauge (_rescale)."""
    return _rescale(m, P, Q_, _raw_value(m, P, Q_, k))


def dense_fit_pk(m, k) -> FitResult:
    """fit_pk over the complete monomial test set."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if m.valid_degree < 2 * k:
        raise TruncationError(
            f"potential valid_degree {m.valid_degree} < {2 * k} "
            f"needed for the order-{k} fit",
            required=2 * k,
        )
    candidates = {}
    for P, Q_ in monomial_test_set(m.n, k):
        if P != Q_:
            v = _table_value(m, k, P, Q_)
            if v != 0:
                return FitResult(
                    k=k,
                    witness=ViolationWitness(
                        P=P, Q=Q_, kind="off_diagonal_nonzero", lhs=v,
                        expected=ZERO,
                    ),
                )
            continue
        p = sum(P)
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
    if m.valid_degree < 5:
        raise TruncationError(
            "potential valid_degree must be >= 5", required=5
        )
    n = m.n
    dg3 = [[{} for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for (P, Q_), c in m.g_inv[a][b].coeffs.items():
                if sum(P) == 2 and sum(Q_) == 1:
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


def metric_matrix(potential):
    """g[i][j] = d^2 potential / dz_i dzb_j, a derivative per entry."""
    d = [potential.dz(i) for i in range(potential.n)]
    return JetMatrix(
        [[d[i].dzbar(j) for j in range(potential.n)] for i in range(potential.n)]
    )


def third_deriv_obstruction_from_g(m):
    """max |d^3 g[a][b] / dz_g dzb_d dz_e (0)|, read from the bidegree-(2,1)
    coefficients of every entry of metric_matrix(m.potential)."""
    if not m.cubic_free:
        raise GaugeError("potential has degree-3 monomials")
    if m.potential.valid_degree < 5:
        raise TruncationError(
            "potential valid_degree must be >= 5", required=5
        )
    g = metric_matrix(m.potential)
    best = ZERO
    for i in range(m.n):
        for j in range(m.n):
            for (P, Q_), c in g[i][j].coeffs.items():
                if sum(P) == 2 and sum(Q_) == 1:
                    v = abs(c) * (2 if max(P) == 2 else 1)
                    if v > best:
                        best = v
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
    r = mat_sub(mat_identity(g.n, m, g.valid_degree), b)  # -N, min deg >= 1
    acc = mat_identity(g.n, m, g.valid_degree)
    power = acc
    for _ in range(g.valid_degree):
        power = mat_mul(power, r)
        if all(e.is_zero() for row in power.entries for e in row):
            break
        acc = mat_add(acc, power)
    return _times_const(acc, g0_inv)


def mat_identity(n, size, valid_degree):
    return JetMatrix(
        [
            [Jet.constant(n, 1 if i == j else 0, valid_degree) for j in range(size)]
            for i in range(size)
        ]
    )


def mat_add(a, b):
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionMismatch("shape mismatch in matrix sum")
    return JetMatrix(
        [[a[i][j] + b[i][j] for j in range(a.cols)] for i in range(a.rows)]
    )


def mat_sub(a, b):
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionMismatch("shape mismatch in matrix difference")
    return JetMatrix(
        [[a[i][j] - b[i][j] for j in range(a.cols)] for i in range(a.rows)]
    )


def mat_mul(a, b):
    if a.cols != b.rows:
        raise DimensionMismatch("shape mismatch in matrix product")
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = a[i][0] * b[0][j]
            for k in range(1, a.cols):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return JetMatrix(out)


def mat_conj(a):
    return JetMatrix([[e.conj() for e in row] for row in a.entries])


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
    u = Jet.constant(j.n, 1, j.valid_degree) - j.scale(Q(1) / c0)
    acc = Jet.constant(j.n, 1, j.valid_degree)
    power = Jet.constant(j.n, 1, j.valid_degree)
    for _ in range(j.valid_degree):
        power = power * u
        if power.is_zero():
            break
        acc = acc + power
    return acc.scale(Q(1) / c0)


def c_constant_at(psi, P, l, n):
    """(lap_c)^l (|z^P|^2 psi)(0) / (p! P!) for an explicit representative P.

    The jet of |z^P|^2 psi(t) is built directly, truncated at degree 2l
    (higher terms cannot reach the origin value), so representatives with
    p > l give an empty jet and the value 0.
    """
    P = tuple(P)
    p = sum(P)
    coeffs = {}
    for m in range(0, min(len(psi) - 1, l - p) + 1):
        a = psi[m]
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


# -- the Fraction radial path --------------------------------------------------
# A t-series is its coefficient tuple (c_0, ..., c_order), trusted through
# t^order = t^(len - 1).


def series_add(a, b):
    return tuple(x + y for x, y in zip(a, b))  # through the smaller order


def series_scale(a, c):
    return tuple(c * x for x in a)


def series_mul(a, b):
    """The Cauchy product through the smaller trusted order."""
    order = min(len(a), len(b)) - 1
    out = [ZERO] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += a[i] * b[j]
    return tuple(out)


def series_derivative(a):
    """d/dt; the trusted order drops by one."""
    if len(a) == 1:
        raise SeriesError("series order exhausted by differentiation")
    return tuple(m * a[m] for m in range(1, len(a)))


def series_times_t(a):
    """t * a, trusted to the same order as a."""
    return (ZERO, *a[:-1])


def series_reciprocal(a):
    """b with a * b = 1 through t^order, solved coefficient by coefficient."""
    a0 = a[0]
    if a0 == 0:
        raise SeriesError("cannot invert a series with zero constant term")
    out = [Q(1) / a0]
    for m in range(1, len(a)):
        out.append(-sum(a[i] * out[m - i] for i in range(1, m + 1)) / a0)
    return tuple(out)


def series_truncate(a, order):
    if order >= len(a):
        raise SeriesError("cannot raise the trusted order of a series")
    return a[: order + 1]


def ref_psi_functions(profile):
    """(psi1, psi2) = (1/Phi', Phi''/(Phi'(Phi' + t Phi''))) by rational
    series products and reciprocals, as the definitions read."""
    if _slope(profile) != 1:
        raise JetError("profile must be normalized (Phi'(0) = 1)")
    d1 = series_derivative(profile)
    d2 = series_derivative(d1)
    denom = series_add(series_truncate(d1, len(d2) - 1), series_times_t(d2))
    psi1 = series_reciprocal(d1)
    psi2 = series_mul(
        series_mul(d2, series_truncate(psi1, len(d2) - 1)), series_reciprocal(denom)
    )
    return psi1, psi2


def ref_recursion_step(a_k, psi1, psi2, n):
    """One step k -> k+1 of the radial recursion, coefficient by coefficient
    in rationals, with every C constant taken afresh."""
    k = a_k.k
    if len(psi1) <= k or len(psi2) <= k:
        raise ValidityError(
            f"psi series trusted to t^{min(len(psi1), len(psi2)) - 1}, need t^{k} "
            f"for the step to k={k + 1}"
        )
    new = []
    for p in range(1, k + 2):
        val = a_k.coefficient(p - 1)
        for l in range(p, k + 1):
            val += a_k.coefficient(l) * (
                c_constant(psi1, p - 1, l, n) - p * p * c_constant(psi2, p, l, n)
            )
        new.append(val)
    return LaplacePolynomial(k=k + 1, coeffs=tuple(new))


def ref_radial_pk(profile, n, k_max):
    """p_1..p_kmax by ref_recursion_step from p_1 = x."""
    if k_max < 1:
        raise SeriesError("k_max must be >= 1")
    if n < 1:
        raise SeriesError(f"need n >= 1 variables, got {n}")
    polys = [LaplacePolynomial(k=1, coeffs=(Q(1),))]
    if k_max > 1:
        psi1, psi2 = ref_psi_functions(normalize(profile))
        while len(polys) < k_max:
            polys.append(ref_recursion_step(polys[-1], psi1, psi2, n))
    return polys


def series_log1p(s):
    """log(1 + s) as the power series sum (-1)^(m+1) s^m / m, full products
    by the tuple-keyed reference operations."""
    if s.eval0() != 0:
        raise JetError("log1p needs a zero constant term")
    acc = Jet.zero(s.n, s.valid_degree)
    power = Jet.constant(s.n, 1, s.valid_degree)
    for m in range(1, s.valid_degree + 1):
        power = ref_mul(power, s)
        if power.is_zero():
            break
        w = Q(-1 if m % 2 == 0 else 1, m)
        term = {key: w * c for key, c in power.coeffs.items()}
        acc = ref_add(acc, Jet(s.n, term, power.valid_degree))
    return acc


# -- tuple-keyed reference ring operations -----------------------------------


def _check_same_space(a, b):
    if a.n != b.n:
        raise DimensionMismatch(f"variable counts differ: {a.n} vs {b.n}")


def _degree(key):
    return sum(key[0]) + sum(key[1])


def ref_add(a, b):
    """a + b, truncated to the smaller validity."""
    _check_same_space(a, b)
    D = min(a.valid_degree, b.valid_degree)
    out = {key: c for key, c in a.coeffs.items() if _degree(key) <= D}
    for key, c in b.coeffs.items():
        if _degree(key) > D:
            continue
        s = out.get(key, ZERO) + c
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s
    return Jet(a.n, out, D)


def ref_mul(a, b):
    """a * b, exponent vectors added entry by entry, at the smaller validity."""
    _check_same_space(a, b)
    D = min(a.valid_degree, b.valid_degree)
    # b's terms by degree, so that no pair past the validity is formed
    b_by_degree = [[] for _ in range(D + 1)]
    for key, y in b.coeffs.items():
        if _degree(key) <= D:
            b_by_degree[_degree(key)].append((key, y))
    out = {}
    for (P, Q_), x in a.coeffs.items():
        room = D - _degree((P, Q_))
        for terms in b_by_degree[: max(room + 1, 0)]:
            for (P2, Q2), y in terms:
                key = (
                    tuple(u + v for u, v in zip(P, P2)),
                    tuple(u + v for u, v in zip(Q_, Q2)),
                )
                out[key] = out.get(key, ZERO) + x * y
    return Jet(a.n, out, D)


def ref_conj(a):
    return Jet(a.n, {(Q_, P): c for (P, Q_), c in a.coeffs.items()}, a.valid_degree)


def _ref_derivative(a, i, holomorphic):
    if a.valid_degree == 0:
        raise ValidityError("validity exhausted: cannot differentiate")
    out = {}
    for (P, Q_), c in a.coeffs.items():
        exps = P if holomorphic else Q_
        e = exps[i]
        if e:
            lowered = exps[:i] + (e - 1,) + exps[i + 1 :]
            out[(lowered, Q_) if holomorphic else (P, lowered)] = c * e
    return Jet(a.n, out, a.valid_degree - 1)


def ref_dz(a, i):
    return _ref_derivative(a, i, True)


def ref_dzbar(a, i):
    return _ref_derivative(a, i, False)


def ref_truncated(a, valid_degree):
    if valid_degree > a.valid_degree:
        raise ValidityError("cannot raise validity by truncation")
    out = {key: c for key, c in a.coeffs.items() if _degree(key) <= valid_degree}
    return Jet(a.n, out, valid_degree)


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
    det = mat_add(mat_identity(n, size, D), gram).det()
    return series_log1p(det - Jet.constant(n, 1, D))


def ref_substitute_radial(f, n, valid_degree):
    """f(|z_1|^2 + ... + |z_n|^2) truncated at the given degree: each a_m t^m
    spread over the exponent vectors A with |A| = m with its multinomial
    weight, through the validating tuple-key constructor."""
    need = (valid_degree + 1) // 2
    if len(f) <= need:
        raise ValidityError(
            f"series order {len(f) - 1} insufficient: need t^{need} for degree "
            f"{valid_degree}"
        )
    coeffs = {}
    for m in range(0, min(len(f) - 1, valid_degree // 2) + 1):
        a = f[m]
        if a == 0:
            continue
        fm = factorial(m)
        for A in multiindices(n, m):
            coeffs[(A, A)] = a * Q(fm, mi_factorial(A))
    return Jet(n, coeffs, valid_degree)


def ref_dual_potential(phi):
    """c_{P,Q} -> -(-1)^{|Q|} c_{P,Q} on the tuple-keyed terms."""
    return Jet(
        phi.n,
        {(P, Q_): c if sum(Q_) % 2 else -c for (P, Q_), c in phi.coeffs.items()},
        phi.valid_degree,
    )


def repacked_potential(desc: SpaceDescriptor, D):
    """The potential that catalog.build_space reads for a Bergman family at
    truncation D, by a second path: catalog.potential_jet to min(D, 5), on
    that degree's own packing, then moved key by key onto the packing of D
    (Jet._parts_on), where build_space writes it from the start."""
    phi = potential_jet(desc, min(D, 5))
    pk = packing(phi.n, D)
    return Jet._of(phi.n, pk, phi.den, phi._parts_on(pk, phi.valid_degree))


def direct_potential_jet(desc: SpaceDescriptor, D):
    """The catalog potential built family by family with jet arithmetic:
    radial substitution, log det(I + W^dagger W) from explicit matrices of
    coordinate jets, the quadric log(1 + ...) term by term, and products by
    offsetting the factor exponents."""
    fam = desc.family
    if fam in ("flat", "cp", "ch"):
        name = {"flat": "flat", "cp": "fubini-study", "ch": "hyperbolic"}[fam]
        profile = named_profile(name, max(1, (D + 1) // 2))
        return ref_substitute_radial(profile, desc.param("n"), D)
    if fam == "grassmannian":
        k, N = desc.param("k"), desc.param("N")
        n = k * (N - k)
        w = [
            [variable(n, r * k + c, D) for c in range(k)]
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
                    w[i][j] = variable(n, idx[(i, j)], D)
                elif i > j:
                    w[i][j] = -variable(n, idx[(j, i)], D)
        return _matrix_potential(w, N, N, n, D).scale(Q(1, 2))
    if fam == "sp":
        N = desc.param("N")
        n = N * (N + 1) // 2
        idx = _upper_index(N, strict=False)
        w = [
            [variable(n, idx[(min(i, j), max(i, j))], D) for j in range(N)]
            for i in range(N)
        ]
        return _matrix_potential(w, N, N, n, D)
    if fam in ("quadric-even", "quadric-odd"):
        N = desc.param("N")
        nv = N - 1
        n = 2 * nv + (1 if fam == "quadric-odd" else 0)
        E = max(D, 1)  # a coordinate jet is valid at least to degree 1
        v = [variable(n, i, E) for i in range(nv)]
        vp = [variable(n, nv + i, E) for i in range(nv)]
        inner = Jet.zero(n, E)
        for jet in v + vp:
            inner = inner + jet * jet.conj()
        cross = Jet.zero(n, E)
        for a, b in zip(v, vp):
            cross = cross + a * b
        if fam == "quadric-odd":
            u = variable(n, 2 * nv, E)
            inner = inner + u * u.conj()
            cross = cross - (u * u).scale(Q(1, 2))
        inner = inner + (cross * cross.conj()).scale(4)
        return ref_truncated(series_log1p(inner), D)
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
        return ref_dual_potential(direct_potential_jet(desc.inner[0], D))
    raise ValueError(f"unknown family {fam!r}")


def divisor_pairs(P, Q_):
    """All componentwise-dominated pairs (U, V) <= (P, Q)."""
    return itertools.product(
        itertools.product(*(range(p + 1) for p in P)),
        itertools.product(*(range(q + 1) for q in Q_)),
    )


def fraction_laplacian_functional(m, k):
    """The lap^k table pulled back on tuple keys with rational values, from
    k = 0 and with no cache: each step convolves with the inverse-metric
    coefficients via divisor enumeration and hash lookup."""
    zero_mi = (0,) * m.n
    table = {(zero_mi, zero_mi): Q(1)}
    by_mono = {}
    for i in range(m.n):
        for j in range(m.n):
            for key, c in m.g_inv[i][j].coeffs.items():
                by_mono.setdefault(key, []).append((i, j, c))
    for _ in range(k):
        out = {}
        for (A, B), c in table.items():
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
                    s = out.get(key, ZERO) + c * gcoef * S[j] * T[i]
                    if s == 0:
                        out.pop(key, None)
                    else:
                        out[key] = s
        table = out
    return table


def distinct_orderings(items):
    """Every distinct ordering of items, once each (the permutations of a
    multiset), in lexicographic order."""
    items = sorted(items)
    if not items:
        yield ()
        return
    for i, x in enumerate(items):
        if i == 0 or items[i - 1] != x:
            for rest in distinct_orderings(items[:i] + items[i + 1:]):
                yield (x,) + rest


def expand_orbits(m, k):
    """Table k as packed key -> numerator N_k on every key of its support.

    A metric whose tables hold one key per S_n-orbit (m._orbits) gets each
    representative's value written on every distinct ordering of its pairs
    (P_i, Q_i); any other table is returned as stored, in a new dict."""
    nums = _laplacian_functional(m, k)
    if not m._orbits:
        return dict(nums)
    pk = m.potential.pk
    full = {}
    for rep, c in nums.items():
        P, Q_ = pk.unpack(rep)
        for pairs in distinct_orderings(zip(P, Q_)):
            full[pk.pack(*zip(*pairs))] = c
    return full


def jet_matrix(pk, den, entries):
    """The JetMatrix of the integer graded parts entries[i][j] over den."""
    return JetMatrix([[Jet._of(pk.n, pk, den, e) for e in row] for row in entries])


def column_filled(pk, col):
    """The whole matrix of integer graded parts that every permutation of
    the coordinates fixes, from its column 0, the n x 1 matrix col: entry
    (i, j) is entry (sigma i, 0) with sigma = (0 j) moving the exponents of
    both halves of each key, on tuple keys."""
    n = len(col)

    def moved(K, j):
        return pk.pack(*([E[j if s == 0 else 0 if s == j else s] for s in range(n)]
                         for E in pk.unpack(K)))

    return [[[{moved(K, j): c for K, c in part.items()} for part in
              col[j if i == 0 else 0 if i == j else i][0]] for j in range(n)] for i in range(n)]


def whole_ginv(m):
    """The integer parts of m's g_inv as the whole matrix, each entry over
    Lg = m._pullback[0]: the JetMatrix that MetricJet.g_inv builds from the
    pullback index, in every slot."""
    lg = m._pullback[0]
    assert all(e.den == lg for row in m.g_inv.entries for e in row)
    return [[e.parts for e in row] for row in m.g_inv.entries]


def naive_index(pk, ginv, lo=0):
    """The pullback index of the whole matrix ginv of integer graded parts,
    in the layout of metric._pullback_index, walking every entry (i, j) and
    every nonzero term (U, V) with no exponent of U below slot lo: no
    mates, no column, no gcd."""
    n, bits, units, half = pk.n, pk.bits, pk.units, pk.half
    index = {}
    for i, row in enumerate(ginv):
        for j, entry in enumerate(row):
            t = (bits * j, bits * (n + i), units[j] + units[n + i])
            for part in entry:
                for K, c in part.items():
                    P, Q_ = pk.unpack(K)
                    if c and not any(P[:lo]):
                        U, V = pk.pack(P, (0,) * n), pk.pack(Q_, (0,) * n)
                        index.setdefault(U, {}).setdefault(V, []).extend((c, *t))
    return index


def eager_index(pk, den, stored):
    """(Lg, index) of an upper or full store (None below the diagonal of
    an upper one), written whole: every nonzero term of every entry, and
    of its mate with the halves swapped, over g, the gcd of den and every
    numerator, in the layout of metric._pullback_index."""
    n, bits, units, half = pk.n, pk.bits, pk.units, pk.half
    low, g, index = units[n] - 1, den, {}
    for part in (part for row in stored for e in row if e for part in e):
        g = gcd(g, *part.values())
    for a, row in enumerate(stored):
        for b, entry in enumerate(row):
            t, swap = (bits * b, bits * (n + a), units[b] + units[n + a]), entry is None
            for part in stored[b][a] if swap else entry:
                for K, v in part.items():
                    if v:
                        U, V = (K >> half, K & low) if swap else (K & low, K >> half)
                        index.setdefault(U, {}).setdefault(V, []).extend((v // g, *t))
    return den // g, index


def eager_copy(m):
    """A copy of m, a metric that no permutation of the coordinates fixes,
    with its store not yet read, with no table but table 0 and its index
    written whole at build (eager_index): the library's own loop then
    builds every table on it, no degree paired.  It is constructed, not
    copied: copy.copy reads every slot, g_inv too, which completes m's
    index."""
    return MetricJet(m.n, m.potential, m.valid_degree, m.origin_diag, m.cubic_free, None,
                     (*eager_index(m.potential.pk, *m._ginv), 0), {0: {0: 1}})


def ref_diagonal_keys(pk, top):
    """The diagonal monomials z^P zb^P with |P| <= top on packing pk, one
    list per p = |P| of (packed key, P!), in lexicographic order of P
    (first slot ascending, then the next): tails[t] lists the exponents of
    slots s..n-1 with sum t, grown one slot at a time from the last."""
    tails = [[(0, 1)]] + [[] for _ in range(top)]
    for u in reversed(pk.units[: pk.n]):
        tails = [[(e * u + K, factorial(e) * f) for e in range(t + 1) for K, f in tails[t - e]]
                 for t in range(top + 1)]
    return [[(K + (K << pk.half), f) for K, f in tail] for tail in tails]


def sorted_hits(index):
    """A pullback index with the hits of each (U, V), four ints each, as a
    sorted list of tuples: the index up to the order of its hits, which no
    table depends on."""
    assert all(len(hits) % 4 == 0 for halves in index.values() for hits in halves.values())
    return {U: {V: sorted(zip(*[iter(hits)] * 4)) for V, hits in halves.items()}
            for U, halves in index.items()}


def full_tables(m):
    """The same metric with no table cached beyond table 0 and every table
    built on every key of its support, by the pullback loop that a metric
    without the permutation symmetry takes, on the index of the whole
    g_inv (whole_ginv, naive_index) in every slot."""
    full = copy.copy(m)
    full._functionals, full._einstein, full._orbits = {0: m._functionals[0]}, None, False
    full._ginv = None
    full._pullback = m._pullback[0], naive_index(m.potential.pk, whole_ginv(m)), 0
    return full


def fixed_by_permutations(pk, ginv):
    """Whether every permutation sigma of the coordinates fixes the integer
    parts ginv[i][j] (entry (sigma i, sigma j) at sigma K is entry (i, j) at
    K) and ginv is Hermitian off its diagonal.  The swap of slots 0 and 1
    and the cyclic shift of all n slots generate S_n, and the permutations
    that fix ginv form a group, so it tests those two on the upper triangle
    i <= j, both halves of a key at once; a term that the swap fixes by
    itself (slots 0 and 1 equal in both halves, i, j >= 2) needs no lookup.
    For i < j, each term of (i, j) is looked up, halves swapped, in (j, i),
    whose parts have the same sizes: the lower triangle is the conjugate of
    the upper.  An entry None there is that conjugate by definition: no
    test, and a lookup in it is one in its mate, halves swapped.  sigma acts
    on both halves alike, so it maps a lower term conj t to conj sigma t,
    where sigma t is an upper or lower term off the diagonal: a term too.
    So sigma maps the terms into themselves, one to one with the same
    integers, which is onto.  The first mismatch ends it.  The library
    reads this verdict off the potential instead."""
    n, bits, units = pk.n, pk.bits, pk.units
    half, low = pk.half, (1 << pk.half) - 1
    first = pk.mask * (units[0] + units[n])  # slots 0 and n
    rest = (1 << 2 * half) - 1 - first
    top = bits * (n - 1)
    swap, shift = [1, 0, *range(2, n)], [*range(1, n), 0]

    def entry(a, b):  # (parts, s): entry (a, b) at K is parts at K >> s | (K & low) << s
        return (ginv[b][a], half) if ginv[a][b] is None else (ginv[a][b], 0)

    for i, row in enumerate(ginv):
        for j in range(i, n):
            (a, sa), (b, sb) = entry(swap[i], swap[j]), entry(shift[i], shift[j])
            h = ginv[j][i] if i < j else None  # an explicit lower entry, to test
            for part, pa, pb, ph in zip(row[j], a, b, h or row[j]):
                if h and len(ph) != len(part):
                    return False
                for K, c in part.items():
                    x = (K ^ K >> bits) & first  # slot 0 ^ slot 1, in both halves
                    ka, kb = K ^ x ^ x << bits, K << bits & rest | K >> top & first
                    if ((x or i < 2) and pa.get(ka >> sa | (ka & low) << sa) != c
                            or pb.get(kb >> sb | (kb & low) << sb) != c
                            or h and ph.get(K >> half | (K & low) << half) != c):
                        return False
    return True


def scanned_orbits(m):
    """The S_n verdict of a built metric, by the scan of its g_inv parts:
    n > 1, the d_i all equal and fixed_by_permutations."""
    d = m.origin_diag
    return m.n > 1 and d.count(d[0]) == m.n and fixed_by_permutations(m.potential.pk,
                                                                        whole_ginv(m))


def verify_witness(m, k, w: ViolationWitness) -> bool:
    """Re-evaluate a witness: the stated lhs must reproduce and still differ
    from the stated expectation.  For n <= 4 the value comes from applying
    laplacian_apply k times to the witness monomial, so the check does not
    trust the lap^k table that produced the witness; for larger n it is
    read from the table."""
    if m.n <= 4:
        phi = Jet.monomial(m.n, w.P, w.Q, 1, 2 * k)
        for _ in range(k):
            phi = laplacian_apply(m, phi)
        lhs = phi.eval0()
    else:
        lhs = _raw_value(m, w.P, w.Q, k)
    if w.kind != "off_diagonal_nonzero":
        lhs = _rescale(m, w.P, w.Q, lhs)
    return lhs == w.lhs and lhs != w.expected


def euclidean_power_at0(phi, l: int):
    """(lap_c)^l phi at the origin, lap_c = sum_i d^2/dz_i dzb_i.

    phi may be a jet or a multi-index pair (P, Q); for the pair the value is
    l! * P! when P == Q and |P| == l, else 0.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if isinstance(phi, tuple):
        P, Q_ = phi
        if tuple(P) != tuple(Q_) or sum(P) != l:
            return ZERO
        return Q(factorial(l) * mi_factorial(P))
    return _weighted_euclidean_at0(phi, l, None)


def _weighted_euclidean_at0(phi, l: int, diag):
    """(sum_i (1/d_i) d^2/dz_i dzb_i)^l phi at 0; diag None means d = 1."""
    if l == 0:
        return phi.eval0()
    fl = factorial(l)
    acc = ZERO
    for (P, Q_), c in phi.coeffs.items():
        if P != Q_ or sum(P) != l:
            continue
        term = c * fl * mi_factorial(P)
        if diag is not None:
            for i, e in enumerate(P):
                if e:
                    term /= diag[i] ** e
        acc += term
    return acc


def check_k2_identity(m, phi):
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


@lru_cache(maxsize=4)
def _laplcube_functional(m, lam) -> dict:
    """Coefficient table of the order-3 expansion of lap^3 phi(0):

        (lap_d^3 + 3 lam lap_d^2 + lam^2 lap_d) phi(0)
        + 2 sum w_lh d_{l hb} ginv[i][j] d^4 phi/dz_j dz_h dzb_l dzb_i
        +   sum w_lh d_{l h}  ginv[i][j] d^4 phi/dz_j dzb_h dzb_l dzb_i
        +   sum w_lh d_{lb hb} ginv[i][j] d^4 phi/dz_j dz_h dz_l dzb_i
        +   sum w_lh d_{l h lb hb} ginv[i][j] d^2 phi/dz_j dzb_i

    with w_lh = 1/(d_l d_h); all derivatives at the origin.  Cached for the
    few metrics a test loops over.
    """
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
    return table


def laplcube_expansion(m, phi):
    """Evaluate the order-3 origin expansion term by term from the stored jets.

    For an Einstein metric in a cubic-free diagonal gauge this must equal
    delta_power_at0(m, phi, 3).
    """
    rep = einstein_constant(m)
    if rep.lam is None:
        raise GaugeError("metric is not Einstein at the origin")
    if m.valid_degree < 6:
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


def ref_einstein_constant(m):
    """The report of metric.einstein_constant, from the rational sums
    s_ij = sum_h (1/d_h) c_h / den over the z_h zb_h terms of g_inv[i][j]."""
    n, d, units = m.n, m.origin_diag, m.potential.pk.units
    weight = {units[h] + units[n + h]: d[h] for h in range(n)}
    s = [
        [sum((c / weight[K] for K, c in e.parts[2].items() if K in weight), ZERO) / e.den
         for e in row]
        for row in m.g_inv.entries
    ]
    lam = d[0] * s[0][0]
    residual = max(abs(d[i] * s[i][j] - (lam if i == j else 0))
                   for i in range(n) for j in range(n))
    if residual != 0:
        return EinsteinReport(lam=None, residual=residual)
    return EinsteinReport(lam=lam, residual=ZERO)


def ref_tokenize(text, line):
    """The tokens of dsl._tokenize, one character at a time."""
    tokens = []
    col = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: int() would read other digits too
            start = i
            while i < len(text) and "0" <= text[i] <= "9":
                i += 1
            if i - start > MAX_DIGITS:
                raise PotentialSyntaxError(
                    f"integer of more than {MAX_DIGITS} digits", line, col
                )
            tokens.append(("int", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha():
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i], line, col))
            col += i - start
            continue
        if ch in "+-*/(),;[]":
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise PotentialSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", "", line, col))
    return tokens


def ref_elaborate(node, n, valid_degree) -> Jet:
    """The potential jet of an expression tree, evaluated node by node on
    rational jets."""
    if isinstance(node, Lit):
        return Jet.constant(n, node.value, valid_degree)
    if isinstance(node, Coord):
        if not 1 <= node.index <= n:
            raise ElaborationError(
                f"coordinate z({node.index}) out of range for dimension {n}"
            )
        return variable(n, node.index - 1, valid_degree)
    if isinstance(node, Conj):
        return ref_elaborate(node.arg, n, valid_degree).conj()
    if isinstance(node, ModSq):
        inner = ref_elaborate(node.arg, n, valid_degree)
        return inner * inner.conj()
    if isinstance(node, (Add, Sub)):
        spine = []  # a long sum is a deep left spine: walk it, not recurse
        while isinstance(node, (Add, Sub)):
            spine.append(node)
            node = node.left
        acc = ref_elaborate(node, n, valid_degree)
        for op in reversed(spine):
            term = ref_elaborate(op.right, n, valid_degree)
            acc = acc + term if isinstance(op, Add) else acc - term
        return acc
    if isinstance(node, Mul):
        return ref_elaborate(node.left, n, valid_degree) * ref_elaborate(
            node.right, n, valid_degree
        )
    if isinstance(node, Log):
        inner = ref_elaborate(node.arg, n, valid_degree)
        c = inner.eval0()
        if c <= 0:
            raise ElaborationError(
                f"log needs a positive rational constant term, got {c}"
            )
        # log(c + s) = log c + log(1 + s/c); the additive constant is dropped
        s = inner - Jet.constant(n, c, valid_degree)
        return log1p(s if c == 1 else s.scale(Q(1) / c))
    if isinstance(node, Det):
        rows = [
            [ref_elaborate(e, n, valid_degree) for e in row] for row in node.rows
        ]
        if any(len(row) != len(rows) for row in rows):
            raise ElaborationError("det needs a square matrix")
        return JetMatrix(rows).det()
    if isinstance(node, Radial):
        pad = (ZERO,) * ((valid_degree + 1) // 2 + 1 - len(node.coeffs))
        return substitute_radial(node.coeffs + pad, n, valid_degree)
    raise TypeError(f"not an expression node: {node!r}")


def ref_bergman_inverse(desc, potential, D):
    """catalog.bergman_inverse with every entry (a, b) multiplied out, both
    triangles, from A = I + W^dagger W and B = I + W W^dagger built here in
    the jet ring from catalog._matrix_slots's W, and each row's weight
    applied after the product."""
    flip = False
    while desc.family == "dual":
        desc, flip = desc.inner[0], not flip
    flip ^= desc.family == "ch"
    n, pk, D = potential.n, potential.pk, D - 2
    if desc.family == "flat":  # g = I, so g_inv = I, whatever the duals
        return 1, [[[{0: 1} if a == b else {}] + [{} for _ in range(D)] for b in range(n)]
                   for a in range(n)]
    rows, cols, W, scale = _matrix_slots(desc)
    top = max(D, 2)  # A and B are quadratic: built to degree 2 at least, then cut to D
    zero, one = Jet.zero(n, top), Jet.constant(n, 1, top)
    w = [[variable(n, W[r, c][0], top).scale(W[r, c][1]) if (r, c) in W else zero
          for c in range(cols)] for r in range(rows)]
    A = [[sum((w[r][a].conj() * w[r][b] for r in range(rows)), one if a == b else zero)
          for b in range(cols)] for a in range(cols)]
    B = [[sum((w[r][a] * w[r2][a].conj() for a in range(cols)), one if r == r2 else zero)
          for r2 in range(rows)] for r in range(rows)]
    slots = [[(r, c, s) for (r, c), (v, s) in W.items() if v == var] for var in range(n)]
    den = lcm(*(scale.numerator * len(s) for s in slots))
    entries = []
    for a in range(n):
        mul = scale.denominator * den // (scale.numerator * len(slots[a]))
        ws = [mul * (-1) ** (flip * d // 2) for d in range(D + 1)]
        row = []
        for b in range(n):
            k, l, _ = slots[b][0]
            e = sum((B[k][i] * A[j][l] * sign for i, j, sign in slots[a]), zero)
            assert e.den == 1
            row.append([{K: c * w for K, c in p.items()} for p, w in zip(e._parts_on(pk, D), ws)])
        entries.append(row)
    return den, entries


def ref_modsq_of_form(form, n, D):
    """|u|^2 of the integer linear form u = sum c z_var, in the jet ring."""
    u = Jet.zero(n, D)
    for var, c in form:
        u = u + variable(n, var, D).scale(c)
    return u * u.conj()


def ref_embedded_test_polys(space):
    """catalog.embedded_test_polys as jet products of the |u|^2 of the first
    two frame forms, divided by their squared norms."""
    n, D = space.metric.n, space.truncation
    u1, u2 = space.frame[:2]
    m1, m2 = ref_modsq_of_form(u1.form, n, D), ref_modsq_of_form(u2.form, n, D)
    return TestFunctionPair(f1=(m1 * m1).scale(Q(1) / (u1.nu * u1.nu)),
                            f2=(m1 * m2).scale(Q(1) / (u1.nu * u2.nu)))
