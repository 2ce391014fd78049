"""The support-only walks of fit_pk and fifth_order_check agree with the
dense walks over the whole index space (tests/dense_oracles.py)."""

import pytest
from hypothesis import given, settings, strategies as st

from kahlerlap.fit import fit_pk
from kahlerlap.jets import Jet, multiindices
from kahlerlap.metric import fifth_order_check, metric_from_potential
from kahlerlap.rationals import Q

from dense_oracles import (
    dense_fifth_order_check,
    dense_fit_pk,
    multiindices_upto,
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
