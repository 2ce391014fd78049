import itertools
import random

import pytest
from dense_oracles import (
    _raw_value,
    c_constant_at,
    ref_psi_functions,
    ref_radial_pk,
    ref_recursion_step,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerlap import radial
from kahlerlap.fit import LaplacePolynomial, check_delta_property
from kahlerlap.jets import ValidityError
from kahlerlap.metric import metric_from_potential
from kahlerlap.radial import (
    SeriesError,
    c_constant,
    named_profile,
    normalize,
    potential_jet,
    profile_from_coeffs,
    psi_functions,
    radial_pk,
    recursion_step,
)
from kahlerlap.rationals import Q


class TestProfiles:
    def test_normalize_scales_argument(self):
        p = profile_from_coeffs([0, 2], order=4)
        q = normalize(p)
        assert q[1] == 1

    def test_normalize_fixed_point(self):
        p = named_profile("fubini-study", 4)
        assert normalize(p) is p

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            profile_from_coeffs([0, -1])

    def test_normalize_keeps_rationality(self):
        p = profile_from_coeffs([0, 3, 1], order=3)
        q = normalize(p)
        assert q[2] == Q(1, 9)

    @pytest.mark.parametrize("slope", [0, -1])
    def test_normalize_refuses_a_bare_series_without_positive_slope(self, slope):
        with pytest.raises(ValueError, match="must be positive"):
            normalize((0, slope, 1))

    def test_a_profile_is_the_series_of_phi(self):
        assert named_profile("hyperbolic", 3) == (0, 1, Q(1, 2), Q(1, 3))
        assert profile_from_coeffs([0, 1], order=2) == (0, 1, 0)


class TestPsiFunctions:
    def test_fubini_study(self):
        psi1, psi2 = psi_functions(named_profile("fubini-study", 5))
        # 1/Phi' = 1 + t, psi2 = -(1 + t)
        assert psi1[:3] == (1, 1, 0)
        assert psi2[:3] == (-1, -1, 0)

    def test_hyperbolic(self):
        psi1, psi2 = psi_functions(named_profile("hyperbolic", 5))
        assert psi1[:3] == (1, -1, 0)
        assert psi2[:3] == (1, -1, 0)

    def test_flat(self):
        psi1, psi2 = psi_functions(named_profile("flat", 5))
        assert all(c == 0 for c in psi2)
        assert psi1[0] == 1 and all(c == 0 for c in psi1[1:])

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            psi_functions(profile_from_coeffs([0, 2], order=4))


class TestCConstants:
    def test_vanishing_triangle(self):
        rng = random.Random(11)
        for _ in range(5):
            psi = tuple(Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5))
            for l in range(0, 5):
                for p in range(l + 1, 5):
                    for n in (1, 2):
                        assert c_constant(psi, p, l, n) == 0

    def test_fs_examples(self):
        psi1, psi2 = psi_functions(named_profile("fubini-study", 6))
        assert c_constant(psi2, 1, 1, 1) == -1
        assert c_constant(psi1, 1, 2, 1) == 4
        assert c_constant(psi1, 0, 1, 1) == 1

    def test_unit_diagonal(self):
        for name in ("fubini-study", "hyperbolic", "flat"):
            psi1, _ = psi_functions(named_profile(name, 6))
            for h in range(1, 5):
                assert c_constant(psi1, h, h, 3) == 1

    def test_depends_on_dimension(self):
        psi = (0, 1, 0, 0, 0)  # psi = t
        assert c_constant(psi, 1, 2, 1) != c_constant(psi, 1, 2, 2)

    def test_p_independence(self):
        reps = {
            1: [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            2: [(2, 0, 0), (1, 1, 0), (0, 1, 1)],
            3: [(3, 0, 0), (2, 1, 0), (1, 1, 1)],
            4: [(4, 0, 0), (2, 2, 0), (2, 1, 1)],
        }
        rng = random.Random(7)
        series = [
            psi_functions(named_profile("fubini-study", 6))[0],
            psi_functions(named_profile("hyperbolic", 6))[1],
            tuple(Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(5)),
        ]
        for psi in series:
            for p, plist in reps.items():
                for l in range(p, 5):
                    values = {c_constant_at(psi, P, l, 3) for P in plist}
                    assert len(values) == 1

    def test_insufficient_order(self):
        with pytest.raises(ValidityError):
            c_constant((1, 1), 1, 3, 1)

    def test_negative_indices_rejected(self):
        psi = (1, 1, 1)
        for p, l in ((-1, 1), (1, -1)):
            with pytest.raises(ValueError, match=">= 0"):
                c_constant(psi, p, l, 2)

    def test_closed_form_matches_jet_oracle(self):
        # psi1 and psi2 of the three space forms and of the seed-0 benchmark
        # profile, plus four seeded random series; p = 0 and p > l included
        rng = random.Random(4)
        profiles = [named_profile(name, 8) for name in ("fubini-study", "hyperbolic", "flat")]
        profiles.append(
            profile_from_coeffs([0, 1, Q(1, 2), Q(1, 3), Q(1, 5), Q(1, 7)], order=8)
        )
        corpus = [psi for prof in profiles for psi in psi_functions(prof)]
        corpus += [
            tuple(Q(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(7))
            for _ in range(4)
        ]
        for psi in corpus:
            for n in range(1, 5):
                for l in range(0, 7):
                    for p in range(0, 8):
                        P = (p,) + (0,) * (n - 1)
                        assert c_constant(psi, p, l, n) == c_constant_at(psi, P, l, n)


class TestRecursion:
    def test_flat_shifts(self):
        psi1, psi2 = psi_functions(named_profile("flat", 6))
        p2 = recursion_step(LaplacePolynomial(1, (Q(1),)), psi1, psi2, 2)
        assert p2 == LaplacePolynomial(2, (Q(0), Q(1)))

    def test_fs_quadratic_step(self):
        psi1, psi2 = psi_functions(named_profile("fubini-study", 6))
        p2 = recursion_step(LaplacePolynomial(1, (Q(1),)), psi1, psi2, 1)
        assert p2 == LaplacePolynomial(2, (Q(2), Q(1)))

    def test_fs_cubic(self):
        polys = radial_pk(named_profile("fubini-study", 6), 1, 3)
        assert str(polys[2]) == "x^3 + 10*x^2 + 8*x"

    def test_hyperbolic_quadratic(self):
        polys = radial_pk(named_profile("hyperbolic", 6), 1, 2)
        assert str(polys[1]) == "x^2 - 2*x"

    def test_monic_preserved(self):
        polys = radial_pk(profile_from_coeffs([0, 1, Q(1, 2)], order=8), 2, 4)
        for p in polys:
            assert p.coefficient(p.k) == 1

    def test_order_guard(self):
        with pytest.raises(ValidityError):
            radial_pk(profile_from_coeffs([0, 1], order=2), 1, 4)

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_dimension_rejected(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            radial_pk(named_profile("fubini-study", 6), n, 3)


CORPUS = [
    ("fubini-study", None),
    ("hyperbolic", None),
    ("flat", None),
    (None, [0, 1, Q(1, 2)]),
    (None, [0, 1, 0, Q(-1, 6)]),
]


class TestOracleEquivalence:
    @pytest.mark.parametrize("name,coeffs", CORPUS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_recursion_matches_direct_fit(self, name, coeffs, n):
        k_max = 4
        order = 6
        profile = (
            named_profile(name, order)
            if name
            else profile_from_coeffs(coeffs, order=order)
        )
        polys = radial_pk(profile, n, k_max)
        metric = metric_from_potential(potential_jet(profile, n, 2 * k_max))
        fits = check_delta_property(metric, k_max)
        assert len(fits) == k_max
        for fit, poly in zip(fits, polys):
            assert fit.fitted, f"radial fit must succeed at k={fit.k}"
            assert fit.polynomial == poly

    def test_off_diagonal_annihilation(self):
        prof = profile_from_coeffs([0, 1, Q(1, 2)], order=4)
        m = metric_from_potential(potential_jet(prof, 2, 8))
        for P, Q_ in [((1, 0), (0, 1)), ((2, 0), (1, 1)), ((2, 1), (1, 0)),
                      ((3, 1), (2, 0))]:
            for k in range(1, 5):
                assert _raw_value(m, P, Q_, k) == 0


# -- the integer path against the rational one in tests/dense_oracles.py -----

rationals = st.builds(Q, st.integers(-6, 6), st.integers(1, 6))
# bare series: any order from 0, any slope, so the refusals are compared too
bare_series = st.lists(rationals, min_size=1, max_size=10).map(tuple)
# series long enough for every step that monic (below) can ask of them
long_series = st.lists(rationals, min_size=8, max_size=10).map(tuple)
# profiles of every order from 1 (too short for psi2) on, Phi'(0) > 0
profiles = st.builds(
    lambda c0, c1, tail: (c0, c1, *tail),
    rationals,
    st.builds(Q, st.integers(1, 6), st.integers(1, 6)),
    st.lists(rationals, max_size=9),
)
monic = st.lists(rationals, max_size=6).map(
    lambda cs: LaplacePolynomial(k=len(cs) + 1, coeffs=(*cs, Q(1)))
)


def outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(bare_series, profiles))
def test_psi_functions_match_the_rational_series(profile):
    # the same coefficients and trusted orders, or the same refusal
    assert outcome(psi_functions, profile) == outcome(ref_psi_functions, profile)
    try:
        normal = normalize(profile)
    except ValueError:
        return
    assert outcome(psi_functions, normal) == outcome(ref_psi_functions, normal)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    monic,
    st.one_of(long_series, bare_series),
    st.one_of(long_series, bare_series),
    st.integers(1, 4),
)
def test_recursion_step_matches_the_rational_step(a_k, psi1, psi2, n):
    assert outcome(recursion_step, a_k, psi1, psi2, n) == outcome(
        ref_recursion_step, a_k, psi1, psi2, n
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(profiles, bare_series), st.integers(1, 4), st.integers(1, 8))
def test_radial_pk_matches_the_stepwise_recursion(profile, n, k_max):
    assert outcome(radial_pk, profile, n, k_max) == outcome(
        ref_radial_pk, profile, n, k_max
    )


def test_an_order_one_profile_is_too_short_for_psi2():
    profile = profile_from_coeffs([0, 1])
    exhausted = "^series order exhausted by differentiation$"
    for fn in (psi_functions, ref_psi_functions):
        with pytest.raises(SeriesError, match=exhausted):
            fn(profile)
    with pytest.raises(SeriesError, match=exhausted):
        radial_pk(profile, 2, 2)
    assert radial_pk(profile, 2, 1) == [LaplacePolynomial(1, (Q(1),))]


def test_psi_orders_follow_the_profile():
    for order in range(2, 8):
        psi1, psi2 = psi_functions(named_profile("hyperbolic", order))
        assert (len(psi1) - 1, len(psi2) - 1) == (order - 1, order - 2)


# -- the benchmark's rung: radial_pk at n = 3, kmax = 12 on 0,1,+-1/2,+-1/3,+-1/5,+-1/7

RUNG_TAIL = (Q(1, 2), Q(1, 3), Q(1, 5), Q(1, 7))


def rung_profile(signs):
    return profile_from_coeffs([0, 1, *(s * c for s, c in zip(signs, RUNG_TAIL))], order=14)


@pytest.mark.parametrize("signs", list(itertools.product((1, -1), repeat=4)))
def test_radial_pk_matches_the_stepwise_recursion_at_the_rung(signs):
    profile = rung_profile(signs)
    assert radial_pk(profile, 3, 12) == ref_radial_pk(profile, 3, 12)


@pytest.mark.parametrize("name", ["flat", "fubini-study", "hyperbolic", None])
@pytest.mark.parametrize("n", [1, 3, 10])
def test_space_forms_match_the_stepwise_recursion_at_kmax_20(name, n):
    # the rung's profiles and the space forms all have L = 1; the last
    # profile has a common denominator L > 1 that grows as L^(k-1)
    if name:
        profile = named_profile(name, 22)
    else:
        profile = profile_from_coeffs([0, 2, 3, Q(-5, 7), Q(1, 9)], order=22)
    assert radial_pk(profile, n, 20) == ref_radial_pk(profile, n, 20)


def test_radial_pk_builds_a_fraction_only_for_its_output(monkeypatch):
    # Q once per coefficient of p_1..p_12 (1 + 2 + ... + 12 = 78); the
    # 12 * 11 C constants of M are taken once each, all on integers
    q_calls, constants = [], []

    def counting_q(*args):
        q_calls.append(args)
        return Q(*args)

    def recording_c_constant(*args):
        constants.append(c_constant(*args))
        return constants[-1]

    monkeypatch.setattr(radial, "Q", counting_q)
    monkeypatch.setattr(radial, "c_constant", recording_c_constant)
    polys = radial_pk(rung_profile((1, 1, 1, 1)), 3, 12)
    assert len(q_calls) == sum(len(p.coeffs) for p in polys) == 78
    assert len(constants) == 132
    assert all(type(c) is int for c in constants)
