"""Acceptance suite: one test per criterion, every comparison exact.

Randomized cases use fixed seeds so reruns are bit-identical.  Each test
prints a single pass line (visible with pytest -s); a failure shows up as an
ordinary pytest failure for that criterion.
"""

import random

import pytest
from dense_oracles import (
    c_constant_at,
    laplcube_expansion,
    mat_identity,
    mat_mul,
    metric_matrix,
    multiindices_upto,
    verify_witness,
)

from kahlerlap import catalog
from kahlerlap.fit import LaplacePolynomial, check_delta_property
from kahlerlap.jets import Jet
from kahlerlap.metric import (
    delta_power_at0,
    einstein_constant,
    fifth_order_check,
    metric_from_potential,
    third_deriv_obstruction,
)
from kahlerlap.radial import (
    c_constant,
    named_profile,
    potential_jet,
    psi_functions,
    radial_pk,
)
from kahlerlap.rationals import Q

ALL_LABELS = [
    "flat:n=2", "cp:n=1", "cp:n=2", "cp:n=3", "ch:n=1", "ch:n=2",
    "grassmannian:k=2,N=4", "grassmannian:k=2,N=5", "sp:N=2", "so2n:N=4",
    "quadric-even:N=4", "quadric-odd:N=4",
]
RANK2_LABELS = [
    "sp:N=2", "so2n:N=4", "quadric-even:N=4", "quadric-odd:N=4",
]


def _passed(n, text):
    print(f"criterion {n:2d}: PASS - {text}")


def test_criterion_01_flat_pure_powers(spaces):
    for n in (1, 2, 3):
        m = spaces(f"flat:n={n}", 8).metric
        results = check_delta_property(m, 4)
        for r in results:
            assert r.fitted
            expected = LaplacePolynomial(
                r.k, tuple(Q(1 if l == r.k else 0) for l in range(1, r.k + 1))
            )
            assert r.polynomial == expected
    _passed(1, "flat space fits p_k = x^k exactly for n = 1, 2, 3, k <= 4")


def test_criterion_02_projective_line(spaces):
    m = spaces("cp:n=1").metric
    fits = check_delta_property(m, 3)
    assert str(fits[1].polynomial) == "x^2 + 2*x"
    assert str(fits[2].polynomial) == "x^3 + 10*x^2 + 8*x"
    recursion = radial_pk(named_profile("fubini-study", 5), 1, 3)
    assert [r.polynomial for r in fits] == recursion
    lam = einstein_constant(m).lam
    assert lam == 2
    value = delta_power_at0(m, Jet.monomial(1, (2,), (2,), 1, 6), 3)
    assert value == 40 == 12 * lam + 16
    _passed(2, "projective line: p_2, p_3 from both paths; order-3 value 40")


def test_criterion_03_space_forms(spaces):
    for n in (2, 3):
        m = spaces(f"cp:n={n}").metric
        assert einstein_constant(m).lam == n + 1
        fits = check_delta_property(m, 3)
        assert fits[1].polynomial.coefficient(1) == n + 1
        assert [r.polynomial for r in fits] == radial_pk(
            named_profile("fubini-study", 5), n, 3
        )
    for n in (1, 2):
        m = spaces(f"ch:n={n}").metric
        assert einstein_constant(m).lam == -(n + 1)
        fits = check_delta_property(m, 3)
        assert fits[1].polynomial.coefficient(1) == -(n + 1)
        assert [r.polynomial for r in fits] == radial_pk(
            named_profile("hyperbolic", 5), n, 3
        )
    _passed(3, "space forms: lambda = +-(n+1), p_2 = x^2 +- (n+1) x, paths agree")


def test_criterion_04_grassmannian_two_four(spaces):
    space = spaces("grassmannian:k=2,N=4")
    rep = einstein_constant(space.metric)
    assert rep.residual == 0
    ob = catalog.obstruction_report(space)
    assert ob.val1 == 12 * rep.lam + 16
    assert ob.val2 == 6 * rep.lam
    assert ob.delta_requirement == 16 != 0
    results = check_delta_property(space.metric, 3)
    assert [r.fitted for r in results] == [True, True, False]
    w = results[2].witness
    assert w.kind == "diagonal_inconsistent"
    assert verify_witness(space.metric, 3, w)
    assert check_delta_property(space.metric, 3)[2].witness == w
    _passed(4, "Grassmannian(2,4): val1 = 64, val2 = 24, reproducible k=3 witness")


@pytest.mark.parametrize("label", RANK2_LABELS)
def test_criterion_05_other_rank_two_spaces(spaces, label):
    space = spaces(label)
    rep = einstein_constant(space.metric)
    assert rep.residual == 0
    results = check_delta_property(space.metric, 3)
    assert [r.fitted for r in results] == [True, True, False]
    assert verify_witness(space.metric, 3, results[2].witness)
    ob = catalog.obstruction_report(space)
    assert ob.val1 == 12 * rep.lam + 16
    assert ob.val2 == 6 * rep.lam
    _passed(5, f"{label}: passes k=1,2; fails k=3; values 12*lam+16 and 6*lam")


def test_criterion_06_duality():
    for label in ("cp:n=1", "cp:n=2", "grassmannian:k=2,N=4"):
        rows = catalog.dual_compare(catalog.parse_space(label), 6)
        assert rows
        for _, compact, noncompact in rows:
            assert compact + noncompact == 0
    _passed(6, "order-3 values negate between compact spaces and their duals")


def test_criterion_07_parallel_curvature(spaces):
    for label in ALL_LABELS:
        m = spaces(label).metric
        assert third_deriv_obstruction(m) == 0
        assert fifth_order_check(m) == 0
    perturbed = metric_from_potential(
        Jet.monomial(1, (1,), (1,), 1, 6)
        + Jet.monomial(1, (3,), (2,), Q(1, 12), 6)
        + Jet.monomial(1, (2,), (3,), Q(1, 12), 6)
    )
    assert third_deriv_obstruction(perturbed) == 1
    assert fifth_order_check(perturbed) == 6
    _passed(7, "third/fifth-order sums vanish on the catalog, not on the perturbation")


def test_criterion_08_radial_constants():
    rng = random.Random(20260810)
    psi_corpus = [
        psi_functions(named_profile("fubini-study", 6))[0],
        psi_functions(named_profile("fubini-study", 6))[1],
        psi_functions(named_profile("hyperbolic", 6))[1],
        tuple(Q(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(5)),
        tuple(Q(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(5)),
    ]
    for psi in psi_corpus:
        for l in range(0, 5):
            for p in range(l + 1, 5):
                assert c_constant(psi, p, l, 2) == 0
    for name in ("fubini-study", "hyperbolic", "flat"):
        psi1, _ = psi_functions(named_profile(name, 6))
        for h in range(1, 5):
            assert c_constant(psi1, h, h, 3) == 1
    reps = {
        1: [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        2: [(2, 0, 0), (1, 1, 0), (0, 1, 1)],
        3: [(3, 0, 0), (2, 1, 0), (1, 1, 1)],
        4: [(4, 0, 0), (2, 2, 0), (2, 1, 1)],
    }
    for psi in psi_corpus[:3]:
        for p, plist in reps.items():
            for l in range(p, 5):
                assert len({c_constant_at(psi, P, l, 3) for P in plist}) == 1
    _passed(8, "C constants: vanishing triangle, unit diagonal, P-independence")


def test_criterion_09_property_suites(spaces):
    rng = random.Random(20260810)

    # jet ring axioms and derivative commutation on seeded random jets
    def random_jet(n, D):
        keys = [
            (P, Q_)
            for P in multiindices_upto(n, 2)
            for Q_ in multiindices_upto(n, 2)
            if sum(P) + sum(Q_) <= D
        ]
        coeffs = {}
        for key in rng.sample(keys, k=min(6, len(keys))):
            coeffs[key] = Q(rng.randint(-6, 6), rng.randint(1, 4))
        return Jet(n, coeffs, D)

    for _ in range(40):
        a, b, c = (random_jet(2, 4) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a.dz(0).dzbar(1) == a.dzbar(1).dz(0)

    # inverse-metric contract on every catalog space
    for label in ALL_LABELS:
        m = spaces(label).metric
        g = metric_matrix(catalog.potential_jet(catalog.parse_space(label), 6))
        assert mat_mul(g, m.g_inv) == mat_identity(m.n, m.n, g.valid_degree)

    # truncation stability: identical pipeline outputs at D = 6 and D = 8
    for label in ("cp:n=2", "ch:n=1", "grassmannian:k=2,N=4", "sp:N=2"):
        shallow, deep = spaces(label), spaces(label, 8)
        assert check_delta_property(shallow.metric, 3) == check_delta_property(
            deep.metric, 3
        )
        assert einstein_constant(shallow.metric) == einstein_constant(deep.metric)
        assert third_deriv_obstruction(shallow.metric) == third_deriv_obstruction(
            deep.metric
        )
        assert fifth_order_check(shallow.metric) == fifth_order_check(deep.metric)
    prof = named_profile("fubini-study", 6)
    assert radial_pk(prof, 2, 4) == radial_pk(named_profile("fubini-study", 9), 2, 4)

    # order-3 expansion equals the direct power on all monomials through
    # degree 6, for every Einstein catalog metric
    for label in ALL_LABELS:
        m = spaces(label).metric
        for P in multiindices_upto(m.n, 3):
            for Q_ in multiindices_upto(m.n, 3):
                if sum(P) + sum(Q_) > 6:
                    continue
                phi = Jet.monomial(m.n, P, Q_, 1, 6)
                assert laplcube_expansion(m, phi) == delta_power_at0(m, phi, 3)

    # reality and permutation equivariance of the origin values
    m = spaces("cp:n=3").metric
    for P, Q_ in [((2, 1, 0), (1, 0, 1)), ((3, 0, 0), (1, 1, 1))]:
        for k in (1, 2, 3):
            assert delta_power_at0(
                m, Jet.monomial(3, P, Q_, 1, 6), k
            ) == delta_power_at0(m, Jet.monomial(3, Q_, P, 1, 6), k)
            sigma = lambda t: (t[1], t[2], t[0])
            assert delta_power_at0(
                m, Jet.monomial(3, P, Q_, 1, 6), k
            ) == delta_power_at0(m, Jet.monomial(3, sigma(P), sigma(Q_), 1, 6), k)
    gr = spaces("grassmannian:k=2,N=4").metric
    swap_rows = lambda t: (t[2], t[3], t[0], t[1])  # fixes the potential
    for P, Q_ in [((2, 0, 0, 0), (2, 0, 0, 0)), ((1, 1, 0, 0), (1, 0, 0, 1))]:
        for k in (1, 2, 3):
            assert delta_power_at0(
                gr, Jet.monomial(4, P, Q_, 1, 6), k
            ) == delta_power_at0(
                gr, Jet.monomial(4, swap_rows(P), swap_rows(Q_), 1, 6), k
            )
    _passed(9, "ring axioms, inverse contract, truncation stability, expansions")


def test_criterion_10_product_of_lines_fails(spaces):
    m = spaces("product(cp:n=1;cp:n=1)").metric
    results = check_delta_property(m, 3)
    assert [r.fitted for r in results] == [True, True, False]
    w = results[2].witness
    assert w.kind == "diagonal_inconsistent"
    assert verify_witness(m, 3, w)
    _passed(10, "product of two projective lines fails exactly at k=3")
