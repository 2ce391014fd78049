"""The graded inverse agrees with the Neumann series of
tests/dense_oracles.py, coefficient for coefficient and in valid_degree:
the g_inv that metric_from_potential builds from the packed potential
against the series of g differentiated entry by entry (metric_matrix), and
JetMatrix.inverse on random matrices."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from kahlerlap import catalog
from kahlerlap.jets import Jet, JetMatrix
from kahlerlap.rationals import Q

from dense_oracles import (
    mat_identity,
    mat_mul,
    metric_matrix,
    multiindices_upto,
    neumann_inverse,
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
