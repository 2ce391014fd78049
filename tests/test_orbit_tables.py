"""lap^k tables stored one key per S_n-orbit.

A metric whose g_inv every permutation of the coordinates fixes stores
each lap^k table on the orbit representatives alone (metric._orbits).
The verdict is compared with a direct test of every transposition on the
rational coefficients of g_inv, on random symmetric and asymmetric .pot
bodies and on symmetric ones plus an asymmetric pluriharmonic term (which
leaves g alone), and check reports with the orbit tables forced off must
be the shipped ones.  The verdict also needs g_inv Hermitian: symmetrized
bodies that are not real keep the full tables, and their reports are the
same with the orbit tables forced off or on.  The orbit representatives of
the diagonal are walked once per packing and degree.  metric_with_inverse
proves the verdict on the potential's terms, never on g_inv: for
metric_from_potential it must be the verdict of
dense_oracles.fixed_by_permutations on the Neumann series of g,
for every label of the acceptance set and its dual, products, radial
profiles and the .pot bodies of the tests.  The same verdict serves the
Bergman closed forms, read off the potential to min(D, 5) alone (a
permutation that fixes its parts of degree 2 and 4 is a Jordan triple
automorphism, Loos 1977): it must be the scan's on the oracle's g_inv
(dense_oracles.ref_bergman_inverse, both triangles) for every Bergman label
of the acceptance set, the rank-1 Grassmannians, so2n and sp, and their
duals, at D = 2, 3, 4 and 6.  so2n:N=3 and its dual, cp:n=3 in a skew chart,
take the orbit tables and the column build with the g_inv and the reports
of the full build.
metric._orbit is compared with every permutation of random keys (the least
member and the orbit's size), and an orbit sum that the orbit's size does
not divide raises JetError.  Its memo lives on the shared packing
(_Packing.orbits): flat, cp and ch at n <= 6 and the symmetric .pot bodies,
built in random orders, must fill it with least members and orbit sizes,
and build the same tables after it is cleared.  The tables are written
back onto every key (dense_oracles.expand_orbits) and compared with the
rational tuple-key pullback, and the fits and witnesses with those of the
same metric built on every key (dense_oracles.full_tables): on random symmetric .pot bodies with
n = 2 and 3, and on potentials whose symmetry one extra term breaks, which
keep the full tables.  The structural guard pins how many representatives
cp:n=10 stores and that sp:N=3 keeps its full tables; no timing is
asserted.  The pullback index of an orbit metric holds only the terms in
its last D // 2 - 1 slots (157 of the 1,200 of cp:n=10 at D = 8, all of
them once the full tables widen it), and a table past that window widens it
and still equals the full tables, the dual command at D = 4 included.  Such
a g_inv is stored as its column 0, and the index built from the column must
hold the hits of the filled upper triangle in every window, on flat, cp,
ch, so2n:N=3 and the rank-1 Grassmannians, their duals and the symmetric
.pot bodies of the benchmark; iterated laplacian_apply, which reads the
filled g_inv, must give the orbit tables' values.  The
genus test reads lambda and the x coefficient of the fitted p_2 of every
irreducible family, which both equal the genus (Loos 1977), from orbit
tables for cp and ch and from full tables for the matrix families; the
quadrics fail it until their metric is mended (ROADMAP item 1).
"""

import contextlib
from itertools import combinations, permutations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from kahlerlap import catalog, metric
from kahlerlap.dsl import elaborate, parse, parse_potential_file
from kahlerlap.fit import _sorted_diagonal, check_delta_property, fit_pk
from kahlerlap.jets import Jet, JetError, _reduced, diagonal_keys, packing
from kahlerlap.metric import _laplacian_functional, _orbit, _orbit_sums, einstein_constant
from kahlerlap.metric import _pullback_index, delta_power_at0, laplacian_apply
from kahlerlap.metric import metric_from_potential
from kahlerlap.radial import named_profile, profile_from_coeffs
from kahlerlap.radial import potential_jet as radial_potential
from kahlerlap.rationals import Q

from dense_oracles import (
    column_filled,
    distinct_orderings,
    expand_orbits,
    fixed_by_permutations,
    fraction_laplacian_functional,
    full_tables,
    metric_matrix,
    multiindices,
    naive_index,
    neumann_inverse,
    ref_bergman_inverse,
    sorted_hits,
    verify_witness,
    whole_ginv,
)
from test_acceptance import ALL_LABELS
from test_integer_handoffs import POLYNOMIAL_BODIES
from test_packed_kernels import SCALED_POTS
from test_radial import CORPUS
from test_radial_inverse import HERMITIAN_TEXTS, run

DEGREE = 6
KMAX = 3


@contextlib.contextmanager
def orbits_forced(verdict):
    """The S_n verdict of metric_with_inverse, which both builders take, is
    verdict: _potential_symmetry keeps its own reality verdict (so a
    potential that is not real is still solved whole), and a true verdict
    on a real one also picks the column build."""
    proof = metric._potential_symmetry
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metric, "_potential_symmetry", lambda phi: (proof(phi)[0], verdict))
        yield


def pot_metric(text, degree=DEGREE):
    n, node = parse_potential_file(text)
    return metric_from_potential(elaborate(node, n, degree))


def rational(q):
    return f"{q.numerator}" if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def polynomial(terms, sigma):
    """The polynomial sum c z^E with its variables renamed by sigma, as text,
    negated if its first c is negative (the language has no unary minus,
    and only |p|^2 is read)."""
    flip = -1 if terms[0][0] < 0 else 1
    text = ""
    for c, E in terms:
        factors = "*".join(f"z({sigma[i] + 1})" for i, e in enumerate(E) for _ in range(e))
        sign = (" - " if flip * c < 0 else " + ") if text else ""
        text += f"{sign}{rational(abs(c))}*{factors}"
    return text


def symmetrized(terms, n, weight):
    """sum over sigma in S_n of weight |p o sigma|^2, as text."""
    return " + ".join(
        f"{rational(weight)}*modsq({polynomial(terms, sigma)})" for sigma in permutations(range(n))
    )


def assert_orbit_tables_match(m):
    assert m._orbits
    full = full_tables(m)
    pk = m.potential.pk
    for k in range(1, KMAX + 1):
        stored = _laplacian_functional(m, k)
        assert all(_orbit(pk, key)[0] == key for key in stored)
        expanded = expand_orbits(m, k)
        assert sum(_orbit(pk, key)[1] for key in stored) == len(expanded)
        assert expanded == _laplacian_functional(full, k)
        den = m._pullback[0] ** k
        assert {pk.unpack(K): Q(c, den) for K, c in expanded.items()} == (
            fraction_laplacian_functional(m, k)
        )
        assert fit_pk(m, k) == fit_pk(full, k)
    assert check_delta_property(m, KMAX) == check_delta_property(full_tables(m), KMAX)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(st.integers(min_value=0, max_value=3), min_size=2 * n, max_size=2 * n)
    ),
    st.sampled_from([6, 8, 12]),
)
def test_orbit_is_the_least_member_and_the_orbit_size(exponents, degree):
    n = len(exponents) // 2
    pk = packing(n, degree)
    pairs = list(zip(exponents[:n], exponents[n:]))
    # every member has the same degree, so graded lexicographic order is (P, Q)
    members = {tuple(zip(*sigma)) for sigma in permutations(pairs)}
    rep, size = _orbit(pk, pk.pack(exponents[:n], exponents[n:]))
    assert pk.unpack(rep) == min(members)
    assert size == len(members)


def test_an_orbit_sum_off_a_multiple_of_the_orbit_size_is_an_engine_fault():
    pk = packing(2, 6)
    key = pk.pack((1, 0), (1, 0))
    assert _orbit(pk, key) == (pk.pack((0, 1), (0, 1)), 2)
    assert _orbit_sums(pk, {key: 4, pk.pack((0, 1), (0, 1)): -2}) == {_orbit(pk, key)[0]: 1}
    message = r"^lap\^k orbit sum at \(\(0, 1\), \(0, 1\)\) is not a multiple of 2$"
    with pytest.raises(JetError, match=message):
        _orbit_sums(pk, {key: 3})


small = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(lambda q: q != 0)
positive = st.sampled_from([Q(1), Q(1, 2), Q(1, 3), Q(2)])


@st.composite
def symmetric_bodies(draw):
    """.pot text of d sum |z_i|^2 + sum_sigma a |p o sigma|^2, maybe plus
    log(1 + sum |z_i|^2 + sum_sigma b |q o sigma|^2), with p and q random
    polynomials whose monomials have degree 2 or 3; every term has bidegree
    (a, b) with a, b >= 2 beyond the quadratic ones, so g(0) = d I."""
    n = draw(st.sampled_from([2, 3]))
    monomials = [E for degree in (2, 3) for E in multiindices(n, degree)]

    def poly():
        count = draw(st.integers(min_value=1, max_value=3))
        return [(Q(draw(small)), draw(st.sampled_from(monomials))) for _ in range(count)]

    d = draw(positive)
    units = " + ".join(f"{rational(d)}*modsq(z({i + 1}))" for i in range(n))
    body = f"{units} + {symmetrized(poly(), n, draw(positive))}"
    if draw(st.booleans()):
        plain = " + ".join(f"modsq(z({i + 1}))" for i in range(n))
        body += f" + log(1 + {plain} + {symmetrized(poly(), n, draw(positive))})"
    return f"dim {n}\n{body}\n"


@settings(max_examples=25, deadline=None, derandomize=True)
@given(symmetric_bodies())
def test_random_symmetric_potentials(text):
    assert_orbit_tables_match(pot_metric(text))


# n = 3: the sum over S_3 of |z1 z2 + z1 z1 z3|^2 and |z1 z2 z3|^2
SYMMETRIC = "dim 3\nmodsq(z(1)) + modsq(z(2)) + modsq(z(3)) + " + " + ".join(
    f"1/2*modsq(z({a})*z({b}) + z({a})*z({a})*z({c}))" for a, b, c in permutations((1, 2, 3))
) + " + 1/3*modsq(z(1)*z(2)*z(3))"


def test_symmetric_potential_with_an_off_diagonal_witness():
    m = pot_metric(SYMMETRIC)
    assert_orbit_tables_match(m)
    kinds = {r.witness.kind for r in check_delta_property(m, KMAX) if not r.fitted}
    assert kinds == {"off_diagonal_nonzero"}


# terms that break the symmetry of SYMMETRIC
BREAKERS = [
    "1/5*modsq(z(1))",  # changes d_1 alone
    "1/5*modsq(z(1)*z(1))",  # one coordinate
    "1/5*modsq(z(1)*z(2))",  # fixed by the swap of z1 and z2, not by the cycle
    "1/5*modsq(z(2)*z(3))",  # fixed by the swap of z2 and z3 alone
    # fixed by the cycle z1 -> z2 -> z3 -> z1, not by the swap of z1 and z2
    "1/5*modsq(z(1)*z(2)*z(2)) + 1/5*modsq(z(2)*z(3)*z(3)) + 1/5*modsq(z(3)*z(1)*z(1))",
]


@pytest.mark.parametrize("extra", BREAKERS)
def test_a_broken_symmetry_keeps_the_full_tables(extra):
    m = pot_metric(f"{SYMMETRIC} + {extra}\n")
    assert not m._orbits
    symmetric = pot_metric(SYMMETRIC)
    for k in range(1, KMAX + 1):
        nums = _laplacian_functional(m, k)
        assert len(nums) > len(_laplacian_functional(symmetric, k))
        assert nums == _laplacian_functional(full_tables(m), k)
        den = m._pullback[0] ** k
        assert {m.potential.pk.unpack(K): Q(c, den) for K, c in nums.items()} == (
            fraction_laplacian_functional(m, k)
        )


def test_cp10_stores_one_key_per_orbit(spaces):
    m = spaces("cp:n=10", 12).metric
    assert m._orbits
    # table k: the diagonal z^P zb^P with 1 <= |P| <= k, one per partition of |P|
    assert [len(_laplacian_functional(m, k)) for k in range(1, 7)] == [1, 3, 6, 11, 18, 29]
    assert [len(expand_orbits(m, k)) for k in range(1, 7)] == [10, 65, 285, 1000, 3002, 8007]


def index_hits(m):
    """How many g_inv terms the pullback index holds."""
    return sum(len(hits) // 4 for halves in m._pullback[1].values() for hits in halves.values())


def test_cp10_indexes_only_the_slots_its_representatives_reach():
    # D = 8 allows k <= 4, and table 3's representatives put their
    # holomorphic halves, and every divisor of them, in the last 3 slots
    m = catalog.build_space(catalog.parse_space("cp:n=10"), 8).metric
    below = m.potential.pk.units[7] - 1
    assert m._orbits and m._pullback[2] == 7
    assert index_hits(m) == 157 and not any(KU & below for KU in m._pullback[1])
    for k in range(1, 5):
        _laplacian_functional(m, k)
    assert index_hits(m) == 157
    full = full_tables(m)
    _laplacian_functional(full, 1)
    assert full._pullback[2] == 0 and index_hits(full) == 1200
    assert sum(len(part) for row in m.g_inv.entries for e in row for part in e.parts) == 1200
    assert index_hits(m) == 157


# the symmetric templates of perfbench/workloads.py, at a = 2/3 and b = 3/5
SYMMETRIC_POTS = [
    "log(1 + modsq(z(1)) + modsq(z(2)) + 2/3 * modsq(z(1) * z(2)))",
    "log(det([1 + modsq(z(1)), 2/3 * z(1) * conj(z(2));"
    " 2/3 * z(2) * conj(z(1)), 1 + modsq(z(2))]))",
    "radial(0, 1, 2/3, 3/5) + 3/5 * modsq(z(1) * z(2))",
]
SPACE_FORMS = [f"{family}:n={n}" for family in ("flat", "cp", "ch") for n in range(2, 11)]
COLUMN_LABELS = (SPACE_FORMS + ["so2n:N=3"]
                 + [f"dual({label})" for label in SPACE_FORMS + ["so2n:N=3"]]
                 + [f"grassmannian:k={k},N={n + 1}" for n in range(2, 11) for k in (1, n)])


@pytest.mark.parametrize("source", COLUMN_LABELS + SYMMETRIC_POTS)
def test_the_column_index_is_that_of_the_filled_triangle(source):
    """An S_n-fixed g_inv is stored as its column 0, and the pullback index
    is built from the column: at D = 2..10 and in every window that a table
    can widen it to, it holds the hits of the whole matrix filled from the
    column (dense_oracles.column_filled), indexed entry by entry in that window
    (dense_oracles.naive_index), the hits of each (U, V) as a multiset.
    The closed forms take the Bergman column, the .pot bodies the graded
    column solve."""
    for D in range(2, 11):
        m = (metric_from_potential(elaborate(parse(source), 2, D)) if source in SYMMETRIC_POTS
             else catalog.build_space(catalog.parse_space(source), D).metric)
        n, pk, (lg, index, top) = m.n, m.potential.pk, m._pullback
        den, column = m._ginv  # as the kernel gave it, unreduced
        assert m._orbits and [len(row) for row in column] == [1] * n
        assert top == max(n - D // 2 + 1, 0)
        ref_lg, whole = _reduced(den, column_filled(pk, column))
        assert lg == ref_lg
        for lo in range(top, -1, -1):
            built = index if lo == top else _pullback_index(pk, *m._ginv, lo)[1]
            assert sorted_hits(built) == sorted_hits(naive_index(pk, whole, lo)), (D, lo)


# flat, cp and ch at n <= 6 and the symmetric .pot bodies, each at D = 6
# and 7: the metrics of one n share one packing, so one orbit memo
MEMO_SOURCES = [(source, D) for source in [f"{family}:n={n}" for family in ("flat", "cp", "ch")
                                           for n in range(2, 7)] + SYMMETRIC_POTS + [SYMMETRIC]
                for D in (6, 7)]


def memo_metric(source, D):
    if source in SYMMETRIC_POTS:
        return metric_from_potential(elaborate(parse(source), 2, D))
    if source == SYMMETRIC:
        return pot_metric(source, D)
    return catalog.build_space(catalog.parse_space(source), D).metric


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.permutations(MEMO_SOURCES))
def test_the_orbit_memo_of_a_shared_packing(order):
    """The metrics of one packing share its orbit memo (pk.orbits), here
    filled by tables 1..3 of each, built in a random order: every table
    equals the one built after the memo is cleared, every memoized key's
    representative is the least member of its orbit and its size the
    orbit's (every distinct ordering of its pairs), and the sizes over a
    table's representatives, read from the memo, sum to the count of its
    expanded keys."""
    memos = {n: packing(n, 6).orbits for n in range(2, 7)}  # D = 6 and 7 alike
    for memo in memos.values():
        memo.clear()
    metrics = [memo_metric(source, D) for source, D in order]
    tables = [[_laplacian_functional(m, k) for k in range(1, KMAX + 1)] for m in metrics]
    for n, memo in memos.items():
        pk = packing(n, 6)
        assert memo
        for key, (rep, size) in memo.items():
            members = [tuple(zip(*o)) for o in distinct_orderings(zip(*pk.unpack(key)))]
            assert (pk.unpack(rep), size) == (min(members), len(members))
    for m, built in zip(metrics, tables):
        memo = m.potential.pk.orbits
        assert m._orbits and memo is memos[m.n]
        for k, table in enumerate(built, 1):
            assert sum(memo[rep][1] for rep in table) == len(expand_orbits(m, k))
    for m, (source, D), built in zip(metrics, order, tables):
        memos[m.n].clear()
        fresh = memo_metric(source, D)
        assert [_laplacian_functional(fresh, k) for k in range(1, KMAX + 1)] == built


@pytest.mark.parametrize("text", SYMMETRIC_POTS)
def test_iterated_laplacian_apply_is_the_table_on_a_column_metric(text):
    """laplacian_apply reads MetricJet.g_inv, which an orbit metric fills
    from its column on first read: iterated k times on the k = 3 witness of
    a symmetric .pot body and on monomials that S_2 moves, it gives what
    delta_power_at0 reads off the orbit tables."""
    m = metric_from_potential(elaborate(parse(text), 2, 6))
    w = check_delta_property(m, 3)[-1].witness
    assert m._orbits and w is not None and verify_witness(m, 3, w)
    for P, Q_ in [(w.P, w.Q), ((2, 1), (1, 2)), ((3, 0), (1, 2)), ((2, 0), (1, 1))]:
        phi = Jet.monomial(2, P, Q_, 1, 6)
        applied = phi
        for k in range(1, 4):
            applied = laplacian_apply(m, applied)
            assert applied.eval0() == delta_power_at0(m, phi, k), (P, Q_, k)


@pytest.mark.parametrize("label,degree", [("cp:n=3", 4), ("ch:n=3", 5), ("cp:n=4", 6),
                                          ("ch:n=5", 8)])
def test_a_table_past_the_window_widens_it(label, degree):
    m = catalog.build_space(catalog.parse_space(label), degree).metric
    n, w = m.n, degree // 2 - 1
    assert m._orbits and m._pullback[2] == n - w
    full = full_tables(m)
    for k in range(1, w + 3):
        assert expand_orbits(m, k) == _laplacian_functional(full, k)
        assert m._pullback[2] == n - max(w, k - 1)


@pytest.mark.parametrize("label", ["cp:n=3", "ch:n=2"])
def test_dual_at_degree_4_reads_what_the_full_tables_read(label):
    # table 3 at D = 4 needs 2 slots of the index, where D // 2 - 1 = 1
    argv = ["dual", label, "--degree", "4", "--json"]
    shipped = run(argv)
    assert shipped[0] == 0
    with orbits_forced(False):
        assert run(argv) == shipped


def test_sp3_keeps_its_full_tables(spaces):
    m = spaces("sp:N=3", 8).metric
    assert not m._orbits
    assert [len(_laplacian_functional(m, k)) for k in range(1, 4)] == [6, 27, 95]


# label -> genus p (Loos 1977): lambda = p and p_2 = x^2 + p x; duals give -p
GENUS = {
    "cp:n=2": 3, "cp:n=3": 4, "cp:n=4": 5, "cp:n=7": 8,
    "ch:n=2": -3, "ch:n=3": -4, "dual(cp:n=4)": -5,
    "grassmannian:k=2,N=4": 4, "grassmannian:k=2,N=5": 5, "grassmannian:k=2,N=6": 6,
    "grassmannian:k=3,N=6": 6, "dual(grassmannian:k=2,N=5)": -5,
    "sp:N=2": 3, "sp:N=3": 4, "sp:N=4": 5, "dual(sp:N=3)": -4,
    "so2n:N=4": 6, "so2n:N=5": 8, "so2n:N=6": 10, "dual(so2n:N=5)": -8,
}
ORBIT_FAMILIES = ("cp", "ch")


def genus_values(m):
    fit = fit_pk(m, 2)
    assert fit.fitted
    return einstein_constant(m).lam, fit.polynomial.coefficient(1)


@pytest.mark.parametrize("label", GENUS)
def test_lambda_and_p2_read_the_genus(spaces, label):
    m = spaces(label, 4).metric
    inner = catalog.parse_space(label)
    family = (inner.inner[0] if inner.family == "dual" else inner).family
    assert m._orbits == (family in ORBIT_FAMILIES)
    assert genus_values(m) == (GENUS[label], GENUS[label])
    if m._orbits:
        assert fit_pk(full_tables(m), 2) == fit_pk(m, 2)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the quadric families carry the coefficient-4 metric, "
    "whose lambda is not the genus",
)
@pytest.mark.parametrize(
    "label", ["quadric-even:N=4", "quadric-odd:N=4", "quadric-even:N=5", "quadric-odd:N=5"]
)
def test_quadric_lambda_and_p2_read_the_genus(spaces, label):
    m = spaces(label, 4).metric
    # the genus of the quadric Q_m is its dimension m
    assert genus_values(m) == (m.n, m.n)


def transposed(t, E):
    """The multi-index E with the slots that the transposition t swaps swapped."""
    return tuple(E[s] for s in t)


def transpositions(n):
    for a, b in combinations(range(n), 2):
        t = list(range(n))
        t[a], t[b] = b, a
        yield t


def fixes_every_transposition(matrix):
    """Whether each transposition t moves entry (i, j)'s term at (P, Q) to
    entry (t i, t j) at (t P, t Q) with the same coefficient, for a square
    matrix of tuple-keyed coefficient maps."""
    n = len(matrix)
    return all(
        matrix[t[i]][t[j]].get((transposed(t, P), transposed(t, Q_))) == c
        for t in transpositions(n) for i in range(n) for j in range(n)
        for (P, Q_), c in matrix[i][j].items()
    )


def assert_verdict_is_the_symmetry_of_g_inv(text, tmp):
    """_orbits holds exactly when the d_i are equal and every transposition
    fixes g_inv, and check prints the same with the orbit tables forced off."""
    m = pot_metric(text)
    entries = [[e.coeffs for e in row] for row in m.g_inv.entries]
    assert m._orbits == (len(set(m.origin_diag)) == 1 and fixes_every_transposition(entries))
    pot = tmp / "case.pot"
    pot.write_text(text)
    argv = ["check", str(pot), "--json"]
    shipped = run(argv)
    with orbits_forced(False):
        assert run(argv) == shipped
    return m


@st.composite
def asymmetric_bodies(draw):
    """.pot text of sum |z_i|^2 + a |p|^2 + b |q|^2, p and q random
    polynomials as in symmetric_bodies, not symmetrized."""
    n = draw(st.sampled_from([2, 3]))
    monomials = [E for degree in (2, 3) for E in multiindices(n, degree)]
    units = " + ".join(f"modsq(z({i + 1}))" for i in range(n))
    body = units
    for _ in range(2):
        count = draw(st.integers(min_value=1, max_value=3))
        terms = [(Q(draw(small)), draw(st.sampled_from(monomials))) for _ in range(count)]
        body += f" + {rational(draw(positive))}*modsq({polynomial(terms, range(n))})"
    return f"dim {n}\n{body}\n"


@st.composite
def pluriharmonic_bodies(draw):
    """A symmetric body plus p + conj(p), p a random holomorphic polynomial
    whose monomials have degree 2 to 4: the potential loses its symmetry, g
    and g_inv keep it."""
    text = draw(symmetric_bodies())
    n = int(text.split()[1])
    monomials = [E for degree in (2, 3, 4) for E in multiindices(n, degree)]
    count = draw(st.integers(min_value=1, max_value=2))
    p = polynomial([(Q(draw(small)), draw(st.sampled_from(monomials))) for _ in range(count)],
                   range(n))
    return f"{text.rstrip()} + {p} + conj({p})\n"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(symmetric_bodies(), asymmetric_bodies(), pluriharmonic_bodies()))
def test_the_verdict_is_the_symmetry_of_g_inv(tmp_path_factory, text):
    assert_verdict_is_the_symmetry_of_g_inv(text, tmp_path_factory.mktemp("pot"))


# symmetric potentials plus a pluriharmonic term that no transposition fixes
PLURIHARMONIC = [
    "dim 2\nmodsq(z(1)) + modsq(z(2)) + 1/3*modsq(z(1))*modsq(z(2)) + 1/5*modsq(z(1)*z(1))"
    " + 1/5*modsq(z(2)*z(2)) + z(1)*z(1)*z(1)*z(1) + conj(z(1)*z(1)*z(1)*z(1))\n",
    "dim 3\nlog(1 + modsq(z(1)) + modsq(z(2)) + modsq(z(3))) + z(1)*z(1)*z(2)"
    " + conj(z(1)*z(1)*z(2))\n",
]


@pytest.mark.parametrize("text", PLURIHARMONIC)
def test_a_pluriharmonic_term_keeps_the_orbit_tables(tmp_path, text):
    m = assert_verdict_is_the_symmetry_of_g_inv(text, tmp_path)
    assert m._orbits
    pot = m.potential.coeffs
    assert not any(
        all(pot.get((transposed(t, P), transposed(t, Q_))) == c for (P, Q_), c in pot.items())
        for t in transpositions(m.n)
    )


def non_real(n, factors):
    """.pot text of sum |z_i|^2 plus the sum, over ordered pairs i != j, of
    the monomial that factors builds from (i, j); it has no conjugate term."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    units = " + ".join(f"modsq(z({i}))" for i in range(1, n + 1))
    return f"dim {n}\n{units} + " + " + ".join(
        "1/3*" + factors.format(i=i, j=j) for i, j in pairs) + "\n"


# S_n fixes these potentials, g and g_inv, but g_inv is not Hermitian; the
# bidegrees are (2, 2) and (3, 3), so check reads them (Bochner form)
NON_REAL = [
    non_real(n, factors) for n in (2, 3) for factors in (
        "z({i})*z({i})*conj(z({i}))*conj(z({j}))",
        "z({i})*z({i})*z({i})*conj(z({i})*z({j})*z({j}))",
    )
]


@pytest.mark.parametrize("text", NON_REAL)
def test_a_non_hermitian_g_inv_keeps_the_full_tables(tmp_path, text):
    # the symmetry proof also proves g_inv Hermitian, so it declines here;
    # check prints the same with the orbit tables forced off or on, since
    # every permutation fixes g_inv all the same
    m = pot_metric(text)
    entries = [[e.coeffs for e in row] for row in m.g_inv.entries]
    assert len(set(m.origin_diag)) == 1 and fixes_every_transposition(entries)
    assert any(entries[i][j] != {(Q_, P): c for (P, Q_), c in entries[j][i].items()}
               for i in range(m.n) for j in range(m.n))
    assert not m._orbits
    pot = tmp_path / "case.pot"
    pot.write_text(text)
    argv = ["check", str(pot), "--json"]
    shipped = run(argv)
    for forced in (False, True):
        with orbits_forced(forced):
            assert run(argv) == shipped


def test_a_lower_term_without_an_upper_partner_is_refused():
    # the proof reads the upper triangle and finds each term's conjugate in
    # the lower one; equal part sizes leave no room for a lower term of its own
    pk = packing(2, 4)
    one, none = [{0: 1}, {}, {}], [{}, {}, {}]
    lower = [{}, {}, {pk.pack((1, 0), (0, 1)): 1}]
    assert not fixed_by_permutations(pk, [[one, none], [lower, one]])
    upper = [{}, {}, {pk.pack((0, 1), (1, 0)): 1}]
    assert fixed_by_permutations(pk, [[one, upper], [lower, one]])


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_the_sorted_diagonal_is_walked_once_per_degree(n):
    # each degree through 8, asked twice: the same list, equal to a fresh
    # walk and to diagonal_keys of degree p with P non-decreasing
    pk = packing(n, 16)
    for p in (3, 1, 8, 5, 0, 8, 2, 4, 6, 7):
        cached = _sorted_diagonal(pk, p)
        assert _sorted_diagonal(pk, p) is cached
        assert cached == _sorted_diagonal.__wrapped__(pk, p) == [
            (K, f) for K, f in diagonal_keys(pk, p)
            if list(pk.unpack(K)[0]) == sorted(pk.unpack(K)[0])
        ]


def verdict_on_the_whole_inverse(phi):
    """_orbits as the proof on g_inv decides it: n > 1, the d_i equal and
    fixed_by_permutations on the Neumann series of g, both triangles."""
    pk, n, D = phi.pk, phi.n, phi.valid_degree - 2
    g = neumann_inverse(metric_matrix(phi))
    den = lcm(*(e.den for row in g.entries for e in row))
    ginv = [[[{K: c * (den // e.den) for K, c in part.items()} for part in e._parts_on(pk, D)]
             for e in row] for row in g.entries]
    diag = {phi.parts[2].get(pk.units[i] + pk.units[n + i]) for i in range(n)}
    return n > 1 and len(diag) == 1 and fixed_by_permutations(pk, ginv)


def decision_inputs():
    """(name, D, metric, the scan's verdict on the oracle's g_inv) of every
    catalog label of the acceptance set and its dual, products, the radial
    profiles and the .pot bodies of the tests, whose metrics
    metric_from_potential builds, and of the Bergman closed forms: every
    Bergman label of the acceptance set, the rank-1 Grassmannians, so2n and
    sp, and their duals, built by catalog.build_space at D = 2, 3, 4 and 6
    from the potential to min(D, 5)."""
    labels = ALL_LABELS + [f"dual({label})" for label in ALL_LABELS] + [
        "product(cp:n=1;cp:n=1)", "product(cp:n=1;quadric-even:N=4)",
        "product(cp:n=2;cp:n=2)", "product(cp:n=1;ch:n=1)"]
    potentials = [(label, D, catalog.potential_jet(catalog.parse_space(label), D))
                  for label in labels for D in (4, 6)]
    for name, coeffs in CORPUS:
        profile = named_profile(name, 5) if name else profile_from_coeffs(coeffs, order=5)
        potentials += [(f"radial({name or coeffs}, n={n})", D, radial_potential(profile, n, D))
                       for n in (1, 2, 3) for D in (4, 8)]
    bodies = (NON_REAL + PLURIHARMONIC + SCALED_POTS
              + [f"dim 2\n{text}\n" for text in HERMITIAN_TEXTS]
              + [f"dim 3\n{text}\n" for text in POLYNOMIAL_BODIES])
    for text in bodies:
        n, node = parse_potential_file(text)
        potentials += [(text, D, elaborate(node, n, D)) for D in (4, 6)]
    for name, D, phi in potentials:
        try:
            m = metric_from_potential(phi)
        except metric.GaugeError:
            continue
        yield name, D, m, verdict_on_the_whole_inverse(phi)
    bergman = [label for label in ALL_LABELS if not label.startswith("quadric")] + [
        "grassmannian:k=1,N=4", "grassmannian:k=3,N=4"] + [
        f"{family}:N={N}" for family, Ns in (("so2n", (3, 4, 5)), ("sp", (1, 2, 3)))
        for N in Ns]
    for label in bergman + [f"dual({label})" for label in bergman]:
        desc = catalog.parse_space(label)
        for D in (2, 3, 4, 6):
            m = catalog.build_space(desc, D).metric
            d, (_, ginv) = m.origin_diag, ref_bergman_inverse(desc, m.potential, D)
            yield label, D, m, (m.n > 1 and d.count(d[0]) == m.n
                                and fixed_by_permutations(m.potential.pk, ginv))


def test_the_potential_decides_the_orbits_as_g_inv_does():
    decided = 0
    for name, D, m, verdict in decision_inputs():
        assert m._orbits == metric._potential_symmetry(m.potential)[1] == verdict, (name, D)
        decided += verdict
    assert decided >= 120


@pytest.mark.parametrize("label", ["so2n:N=3", "dual(so2n:N=3)"])
def test_so2n_3_takes_the_orbit_tables_and_the_column_build(label):
    """so2n:N=3 is cp:n=3 in a skew 3 x 3 chart: its potential shows S_3,
    so it builds g_inv from column 0 and stores orbit tables, with the
    g_inv and the report of the build with the verdict forced off."""
    desc, argv = catalog.parse_space(label), ["check", label, "--degree", "8", "--json"]
    m, shipped = catalog.build_space(desc, 8).metric, run(argv)
    with orbits_forced(False):
        full = catalog.build_space(desc, 8).metric
        assert run(argv) == shipped
    assert m._orbits and not full._orbits
    assert (m._pullback[0], whole_ginv(m)) == (full._pullback[0], whole_ginv(full))
