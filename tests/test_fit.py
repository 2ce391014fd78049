import random
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from kahlerlap.fit import (
    FitResult,
    LaplacePolynomial,
    check_delta_property,
    fit_pk,
)
from kahlerlap.jets import Jet, substitute_radial
from kahlerlap.metric import (
    TruncationError,
    delta_power_at0,
    laplacian_apply,
    metric_from_potential,
)
from kahlerlap.radial import named_profile
from kahlerlap.rationals import Q

from dense_oracles import (
    RescaleError,
    _raw_value,
    _weighted_euclidean_at0,
    euclidean_power_at0,
    mi_factorial,
    monomial_test_set,
    multiindices,
    multiindices_upto,
    rescaled_value,
    series_scale,
    verify_witness,
)


def radial_metric(name, n, D):
    prof = named_profile(name, (D + 1) // 2)
    return metric_from_potential(substitute_radial(prof, n, D))


class TestTestSet:
    def test_n1_k1_enumeration(self):
        got = monomial_test_set(1, 1)
        assert set(got) == {
            ((0,), (0,)), ((1,), (0,)), ((0,), (1,)), ((1,), (1,)),
            ((2,), (0,)), ((0,), (2,)),
        }
        degrees = [sum(P) + sum(Q_) for P, Q_ in got]
        assert degrees == sorted(degrees)

    def test_n2_k1_count(self):
        assert len(monomial_test_set(2, 1)) == 15

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            monomial_test_set(1, 0)

    def test_graded_lex_deterministic(self):
        assert monomial_test_set(2, 2) == monomial_test_set(2, 2)


class TestRescaledValue:
    def test_unit_gauge_identity(self):
        m = radial_metric("fubini-study", 1, 6)
        assert rescaled_value(m, (2,), (2,), 3) == delta_power_at0(
            m, Jet.monomial(1, (2,), (2,), 1, 6), 3
        )

    def test_doubled_fubini_study(self):
        # potential 2 log(1+t): origin diagonal 2, rescaled first value is 1
        prof = named_profile("fubini-study", 3)
        m = metric_from_potential(
            substitute_radial(series_scale(prof, 2), 1, 6)
        )
        assert m.origin_diag == (2,)
        assert rescaled_value(m, (1,), (1,), 1) == 1

    def test_scaled_flat(self):
        phi = substitute_radial((0, 4, 0, 0), 1, 6)
        m = metric_from_potential(phi)
        raw = delta_power_at0(m, Jet.monomial(1, (1,), (1,), 1, 6), 1)
        assert raw == Q(1, 4)
        assert rescaled_value(m, (1,), (1,), 1) == 4 * raw == 1

    def test_irrational_rescale_raises_only_when_nonzero(self):
        # doubled flat line with a cubic term: lap^2(z^2 zb)(0) = -1/2 != 0,
        # and the (3,0) exponent sum over d = 2 has no rational rescale
        phi = substitute_radial((0, 2, 0, 0), 1, 6) + Jet.monomial(
            1, (2,), (1,), 1, 6
        ) + Jet.monomial(1, (1,), (2,), 1, 6)
        m = metric_from_potential(phi)
        assert rescaled_value(m, (1,), (0,), 1) == 0
        assert _raw_value(m, (2,), (1,), 2) == Q(-1, 2)
        with pytest.raises(RescaleError):
            rescaled_value(m, (2,), (1,), 2)


class TestFit:
    def test_flat_c2_is_pure_power(self):
        m = radial_metric("flat", 2, 6)
        r = fit_pk(m, 3)
        assert r.fitted
        assert r.polynomial == LaplacePolynomial(3, (Q(0), Q(0), Q(1)))

    def test_fs_quadratic(self):
        m = radial_metric("fubini-study", 1, 6)
        r = fit_pk(m, 2)
        assert r.fitted and r.polynomial == LaplacePolynomial(2, (Q(2), Q(1)))

    def test_fitted_polynomials_monic_zero_constant(self):
        m = radial_metric("hyperbolic", 2, 8)
        for r in check_delta_property(m, 4):
            assert r.fitted
            assert r.polynomial.coefficient(r.k) == 1
            assert r.polynomial.coefficient(0) == 0

    def test_truncation_guard(self):
        m = radial_metric("fubini-study", 1, 4)
        with pytest.raises(TruncationError):
            fit_pk(m, 3)

    def test_fit_result_exactly_one_variant(self):
        with pytest.raises(ValueError):
            FitResult(k=1)


class TestKnownPolynomials:
    def test_cp1_sequence(self):
        m = radial_metric("fubini-study", 1, 6)
        res = check_delta_property(m, 3)
        assert [str(r.polynomial) for r in res] == [
            "x", "x^2 + 2*x", "x^3 + 10*x^2 + 8*x",
        ]

    def test_cp2_sequence(self):
        m = radial_metric("fubini-study", 2, 6)
        res = check_delta_property(m, 3)
        assert str(res[1].polynomial) == "x^2 + 3*x"
        assert str(res[2].polynomial) == "x^3 + 13*x^2 + 15*x"

    def test_ch1_sequence(self):
        m = radial_metric("hyperbolic", 1, 6)
        res = check_delta_property(m, 3)
        assert [str(r.polynomial) for r in res] == [
            "x", "x^2 - 2*x", "x^3 - 10*x^2 + 8*x",
        ]


class TestViolations:
    def test_grassmannian_24(self, spaces):
        m = spaces("grassmannian:k=2,N=4").metric
        res = check_delta_property(m, 3)
        assert [r.fitted for r in res] == [True, True, False]
        w = res[2].witness
        assert w.kind == "diagonal_inconsistent"
        # the two unitary orbits of degree-4 diagonal monomials disagree:
        # single-entry directions give 64 = 12 lam + 16, transversal pairs 24 = 6 lam
        assert w.P == w.Q == (0, 1, 1, 0)
        assert w.lhs == 24 and w.expected == 32
        assert verify_witness(m, 3, w)

    def test_cp1xcp1_product_fails_k3(self, spaces):
        m = spaces("product(cp:n=1;cp:n=1)").metric
        res = check_delta_property(m, 3)
        assert [r.fitted for r in res] == [True, True, False]
        w = res[2].witness
        assert w.P == w.Q == (1, 1) and w.lhs == 12 and w.expected == 20
        assert verify_witness(m, 3, w)

    def test_sp2_passes_k2_fails_k3(self, spaces):
        m = spaces("sp:N=2").metric
        res = check_delta_property(m, 3)
        assert [r.fitted for r in res] == [True, True, False]
        assert str(res[1].polynomial) == "x^2 + 3*x"
        assert verify_witness(m, 3, res[2].witness)

    def test_stops_after_first_violation(self, spaces):
        m = spaces("grassmannian:k=2,N=4").metric
        res = check_delta_property(m, 3)
        assert len(res) == 3 and not res[-1].fitted

    def test_determinism(self, spaces):
        m = spaces("grassmannian:k=2,N=4").metric
        assert fit_pk(m, 3) == fit_pk(m, 3)


class TestRandomPolynomialIdentity:
    def _random_jet(self, rng, n, deg, D):
        keys = [
            (P, Q_)
            for P in multiindices_upto(n, deg)
            for Q_ in multiindices_upto(n, deg)
            if sum(P) + sum(Q_) <= deg
        ]
        coeffs = {}
        for key in rng.sample(keys, k=min(8, len(keys))):
            coeffs[key] = Q(rng.randint(-9, 9), rng.randint(1, 5))
        return Jet(n, coeffs, D)

    def test_fitted_polynomial_holds_for_random_functions(self):
        rng = random.Random(20260810)
        m = radial_metric("fubini-study", 2, 6)
        fits = {r.k: r.polynomial for r in check_delta_property(m, 3)}
        for _ in range(200):
            phi = self._random_jet(rng, 2, 6, 6)
            for k in (1, 2, 3):
                lhs = delta_power_at0(m, phi, k)
                rhs = sum(
                    fits[k].coefficient(l) * euclidean_power_at0(phi, l)
                    for l in range(1, k + 1)
                )
                assert lhs == rhs

    def test_weighted_identity_on_rescaled_gauge(self, spaces):
        # mixed origin diagonal: the identity holds with 1/d-weighted
        # Euclidean powers
        rng = random.Random(4)
        m = spaces("sp:N=2").metric
        fits = {r.k: r.polynomial for r in check_delta_property(m, 2)}
        for _ in range(50):
            phi = self._random_jet(rng, 3, 4, 6)
            for k in (1, 2):
                lhs = delta_power_at0(m, phi, k)
                rhs = sum(
                    fits[k].coefficient(l)
                    * _weighted_euclidean_at0(phi, l, m.origin_diag)
                    for l in range(1, k + 1)
                )
                assert lhs == rhs


# -- a third path for lap^k: iterated laplacian_apply, no functional table --

small_q = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
).map(lambda f: Q(f.numerator, f.denominator))


@st.composite
def unit_gauge_potentials(draw):
    """sum |z_i|^2 plus up to four real terms of degree 4..6: cubic-free,
    with g(0) = I; no extra term gives flat space, which fits every k."""
    n = draw(st.integers(min_value=1, max_value=2))
    D = 6
    coeffs = {}
    for i in range(n):
        e = tuple(1 if a == i else 0 for a in range(n))
        coeffs[(e, e)] = Q(1)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        degree = draw(st.integers(min_value=4, max_value=D))
        P, Q_ = draw(st.sampled_from([
            (P, Q_)
            for p in range(1, degree)
            for P in multiindices(n, p)
            for Q_ in multiindices(n, degree - p)
        ]))
        c = draw(small_q)
        coeffs[(P, Q_)] = coeffs.get((P, Q_), Q(0)) + c
        if P != Q_:
            coeffs[(Q_, P)] = coeffs.get((Q_, P), Q(0)) + c
    return Jet(n, coeffs, D)


def iterated_value(m, P, Q_, k):
    """lap^k(z^P zb^Q)(0) by applying the Laplacian k times to the jet."""
    phi = Jet.monomial(m.n, P, Q_, 1, 2 * k)
    for _ in range(k):
        phi = laplacian_apply(m, phi)
    return phi.eval0()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(unit_gauge_potentials())
def test_fit_matches_iterated_laplacian(phi):
    m = metric_from_potential(phi)
    assert m.cubic_free and set(m.origin_diag) == {1}
    for k in (1, 2, 3):
        result = fit_pk(m, k)
        if not result.fitted:
            w = result.witness
            assert iterated_value(m, w.P, w.Q, k) == w.lhs
            continue
        poly = result.polynomial
        for p in range(1, k + 1):
            for P in multiindices(m.n, p):
                expected = poly.coefficient(p) * factorial(p) * mi_factorial(P)
                assert iterated_value(m, P, P, k) == expected
