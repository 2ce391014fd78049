"""The support-only walks of fit_pk and fifth_order_check agree with the
dense walks over the whole index space (tests/dense_oracles.py), and the
monomials the fit skips read zero."""

import pytest
from hypothesis import given, settings, strategies as st

from kahlerlap.fit import fit_pk
from kahlerlap.jets import Jet
from kahlerlap.metric import fifth_order_check, metric_from_potential
from kahlerlap.rationals import Q

from dense_oracles import (
    _raw_value,
    _support_pairs,
    dense_fifth_order_check,
    dense_fit_pk,
    monomial_test_set,
    multiindices,
    multiindices_upto,
    rescaled_value,
)
from test_acceptance import ALL_LABELS

LABELS = ALL_LABELS + ["product(cp:n=1;cp:n=1)", "dual(grassmannian:k=2,N=4)"]


@pytest.mark.parametrize("label", LABELS)
def test_catalog_matches_dense_walks(spaces, label):
    m = spaces(label).metric
    for k in (1, 2, 3):
        assert fit_pk(m, k) == dense_fit_pk(m, k)
    assert fifth_order_check(m) == dense_fifth_order_check(m)


small_q = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
).map(lambda f: Q(f.numerator, f.denominator))


@st.composite
def diagonal_gauge_potentials(draw):
    """Real potentials sum d_i |z_i|^2 + higher terms, with at least one
    bidegree (3,2)/(2,3) pair so the fifth-order sum is reached."""
    n = draw(st.integers(min_value=1, max_value=3))
    D = 6
    coeffs = {}
    for i in range(n):
        e = tuple(1 if a == i else 0 for a in range(n))
        coeffs[(e, e)] = draw(st.sampled_from([Q(1), Q(2), Q(1, 2), Q(3)]))

    def add(P, Q_, c):
        coeffs[(P, Q_)] = coeffs.get((P, Q_), Q(0)) + c
        if P != Q_:
            coeffs[(Q_, P)] = coeffs.get((Q_, P), Q(0)) + c

    nonzero = small_q.filter(lambda c: c != 0)
    add(
        draw(st.sampled_from(list(multiindices(n, 3)))),
        draw(st.sampled_from(list(multiindices(n, 2)))),
        draw(nonzero),
    )
    higher = [
        (P, Q_)
        for P in multiindices_upto(n, D)
        for Q_ in multiindices_upto(n, D)
        if sum(P) >= 1 and sum(Q_) >= 1 and 3 <= sum(P) + sum(Q_) <= D
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        P, Q_ = draw(st.sampled_from(higher))
        add(P, Q_, draw(nonzero))
    return Jet(n, {key: c for key, c in coeffs.items() if c != 0}, D)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(diagonal_gauge_potentials())
def test_random_potentials_match_dense_walks(phi):
    m = metric_from_potential(phi)
    for k in (1, 2, 3):
        assert fit_pk(m, k) == dense_fit_pk(m, k)
    assert fifth_order_check(m) == dense_fifth_order_check(m)


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
UNIT = {(e, e): Q(1) for e in (E1, E2, E3)}


def test_off_diagonal_key_before_a_failing_diagonal_of_its_degree():
    # at k = 2 the diagonals z2 zb2 and z3 zb3 disagree, but the nonzero
    # off-diagonal z3 zb2 comes first in the degree-2 order
    phi = Jet(3, {**UNIT, ((0, 0, 2), (0, 0, 2)): Q(2), ((0, 2, 0), (0, 1, 1)): Q(2)}, 4)
    m = metric_from_potential(phi)
    assert rescaled_value(m, E2, E2, 2) != rescaled_value(m, E3, E3, 2)
    r = fit_pk(m, 2)
    assert r == dense_fit_pk(m, 2)
    assert (r.witness.P, r.witness.Q, r.witness.kind) == (E3, E2, "off_diagonal_nonzero")


def test_failing_diagonal_before_an_off_diagonal_key_of_its_degree():
    # at k = 2 the diagonal z2 zb2 fails before the nonzero off-diagonal z1 zb2
    phi = Jet(3, {**UNIT, ((0, 1, 1), (1, 0, 1)): Q(-1), ((1, 1, 0), (1, 1, 0)): Q(2)}, 4)
    m = metric_from_potential(phi)
    assert _raw_value(m, E1, E2, 2) != 0
    r = fit_pk(m, 2)
    assert r == dense_fit_pk(m, 2)
    assert (r.witness.P, r.witness.Q, r.witness.kind) == (E2, E2, "diagonal_inconsistent")


@pytest.mark.parametrize("label", ["cp:n=2", "sp:N=2", "grassmannian:k=2,N=4"])
def test_monomials_off_the_support_read_zero(spaces, label):
    # every monomial that fit_pk skips has a zero table value and is not a
    # diagonal the polynomial reads, and the visited ones come in test-set order
    m = spaces(label).metric
    for k in (1, 2, 3):
        support = _support_pairs(m, k)
        visited = set(support)
        test_set = monomial_test_set(m.n, k)
        assert [pq for pq in test_set if pq in visited] == support
        for P, Q_ in test_set:
            if (P, Q_) not in visited:
                assert _raw_value(m, P, Q_, k) == 0
                assert P != Q_ or sum(P) == 0
