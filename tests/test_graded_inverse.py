"""The graded inverse agrees with the Neumann series of
tests/dense_oracles.py, coefficient for coefficient and in valid_degree:
the g_inv that metric_from_potential builds from the packed potential
against the series of g differentiated entry by entry (metric_matrix), and
JetMatrix.inverse on random matrices.  metric_from_potential solves column 0
of an S_n-fixed real potential's g_inv, the upper triangle of a real one and
every entry otherwise: on random potentials of each kind, every solve that a
potential admits stores the same g_inv, and it is the series of g."""

from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from kahlerlap import catalog
from kahlerlap.jets import Jet, JetMatrix, _reduced
from kahlerlap.metric import (
    _complete_index, _hessian_inverse, _potential_symmetry, _pullback_index,
    metric_from_potential,
)
from kahlerlap.rationals import Q

from dense_oracles import (
    column_filled,
    mat_identity,
    mat_mul,
    metric_matrix,
    multiindices_upto,
    naive_index,
    neumann_inverse,
    sorted_hits,
    whole_ginv,
)
from test_acceptance import ALL_LABELS

LABELS = ALL_LABELS + ["product(cp:n=1;cp:n=1)", "dual(grassmannian:k=2,N=4)"]


@pytest.mark.parametrize("label", LABELS)
def test_catalog_matches_neumann_series(spaces, label):
    m = spaces(label, 8).metric
    assert m.g_inv.valid_degree == 6
    potential = catalog.potential_jet(catalog.parse_space(label), 8)
    assert m.g_inv == neumann_inverse(metric_matrix(potential))


small_q = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
).map(lambda f: Q(f.numerator, f.denominator))
nonzero_q = small_q.filter(lambda c: c != 0)


@st.composite
def invertible_matrices(draw):
    """Square jet matrices whose constant part is invertible and, from size
    2 on, neither diagonal nor symmetric, so G_0^{-1} mixes rows.  With one
    variable D goes up to 8, and pure z^D and zb^D terms put exponents at
    the top of a packed slot (7 in 3 bits, 8 in 4)."""
    size = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=2))
    D = draw(st.integers(min_value=0, max_value=8 if n == 1 else 5))
    g0 = [[draw(small_q) for _ in range(size)] for _ in range(size)]
    if size >= 2:
        g0[0][1] = draw(nonzero_q)
        g0[1][0] = g0[0][1] + draw(nonzero_q)
    keys = [
        (P, Q_)
        for P in multiindices_upto(n, D)
        for Q_ in multiindices_upto(n, D)
        if 1 <= sum(P) + sum(Q_) <= D
    ]
    zero_mi = (0,) * n
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            coeffs = {(zero_mi, zero_mi): g0[i][j]}
            if keys:
                for _ in range(draw(st.integers(min_value=0, max_value=3))):
                    coeffs[draw(st.sampled_from(keys))] = draw(small_q)
            if n == 1 and D and draw(st.booleans()):
                coeffs[(D,), (0,)] = draw(nonzero_q)
                coeffs[(0,), (D,)] = draw(nonzero_q)
            row.append(Jet(n, coeffs, D))
        rows.append(row)
    return JetMatrix(rows)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(invertible_matrices())
def test_random_matrices_match_neumann_series(g):
    assume(g.det().eval0() != 0)
    inv = g.inverse()
    assert inv == neumann_inverse(g)
    ident = mat_identity(g.n, g.rows, g.valid_degree)
    assert mat_mul(g, inv) == ident
    assert mat_mul(inv, g) == ident


def stored(phi, solve):
    """(lg, pullback index) of the given solve, the hits of each (U, V)
    sorted: the index that the upper and full solves write, and for the
    column the oracle's index of the whole matrix that it fills."""
    den, stored = _hessian_inverse(phi, solve)
    if solve == "column":
        lg, whole = _reduced(den, column_filled(phi.pk, stored))
        return lg, sorted_hits(naive_index(phi.pk, whole))
    lg, index = _pullback_index(phi.pk, den, stored, 0)
    return lg, sorted_hits(index)


@st.composite
def potentials(draw):
    """(kind, jet) of a potential with g(0) = diag(d_i), n <= 3 and D <= 8:
    a sum over S_n of real terms (kind "symmetric"), maybe plus one real term
    that breaks the symmetry ("breaker"), or with unequal d_i ("unequal"),
    or plus a term that reaches g without its conjugate ("non-real"), or a
    holomorphic one, which does not reach g ("pluriharmonic")."""
    n = draw(st.sampled_from([1, 2, 2, 3, 3]))
    D = draw(st.integers(min_value=2, max_value=8))
    kind = draw(st.sampled_from(["symmetric", "breaker", "unequal", "non-real", "pluriharmonic"]))
    zero_mi = (0,) * n
    pairs = [(P, Q_) for P in multiindices_upto(n, D) for Q_ in multiindices_upto(n, D)
             if sum(P) and sum(Q_) and 3 <= sum(P) + sum(Q_) <= D]
    d = [draw(st.sampled_from([Q(1), Q(1, 2), Q(3)]))] * n
    if kind == "unequal" and n > 1:
        d[-1] += draw(st.sampled_from([Q(1), Q(2, 3)]))
    coeffs = {}

    def add(P, Q_, c):  # c z^P zb^Q and its conjugate
        for key in {(P, Q_), (Q_, P)}:
            coeffs[key] = coeffs.get(key, 0) + c

    for i in range(n):
        add(tuple(int(a == i) for a in range(n)), tuple(int(a == i) for a in range(n)), d[i])
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if pairs else 0):
        (P, Q_), c = draw(st.sampled_from(pairs)), draw(nonzero_q)
        for sigma in set(permutations(range(n))):
            add(tuple(P[s] for s in sigma), tuple(Q_[s] for s in sigma), c)
    if kind == "breaker" and pairs:
        add(*draw(st.sampled_from(pairs)), draw(nonzero_q))
    if kind == "non-real" and pairs:
        P, Q_ = draw(st.sampled_from([pq for pq in pairs if pq[0] != pq[1]] or pairs))
        coeffs[P, Q_] = coeffs.get((P, Q_), 0) + draw(nonzero_q)
    if kind == "pluriharmonic":
        P = draw(st.sampled_from([P for P in multiindices_upto(n, D) if sum(P) >= 2]))
        coeffs[P, zero_mi] = draw(nonzero_q)
    return kind, Jet(n, coeffs, D)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(potentials())
def test_every_solve_gives_the_same_inverse(case):
    """The column, upper-triangle and full solves of every potential that
    admits them give the same lg and pullback index, which
    metric_from_potential stores (the index, completed from the store it
    keeps, or the column), and the whole g_inv read back from it is the
    Neumann series of g, whose index (dense_oracles.naive_index) is that
    index."""
    kind, phi = case
    real, fixed = _potential_symmetry(phi)
    reach = {(P, Q_): c for (P, Q_), c in phi.coeffs.items() if sum(P) and sum(Q_)}
    assert real == all(reach.get((Q_, P)) == c for (P, Q_), c in reach.items())
    assert fixed == (real and phi.n > 1 and all(
        reach.get((tuple(P[s] for s in t), tuple(Q_[s] for s in t))) == c
        for t in permutations(range(phi.n)) for (P, Q_), c in reach.items()))
    solves = ["full"] + ["upper"] * real + ["column"] * (real and fixed)
    m = metric_from_potential(phi)
    assert m._orbits == fixed and m._ginv is not None
    ref = stored(phi, "full")
    assert all(stored(phi, solve) == ref for solve in solves)
    if not fixed:
        _complete_index(m)
        assert (m._pullback[0], sorted_hits(m._pullback[1])) == ref
    assert (m._pullback[0], sorted_hits(naive_index(phi.pk, whole_ginv(m)))) == ref
    assert m.g_inv == neumann_inverse(metric_matrix(phi))
