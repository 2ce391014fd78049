import importlib.util
import json
import tracemalloc
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from kahlerlap import catalog, cli
from kahlerlap.dsl import elaborate, parse, parse_potential_file
from kahlerlap.jets import Jet, ValidityError, substitute_radial
from kahlerlap.metric import (
    GaugeError,
    TruncationError,
    _laplacian_functional,
    delta_power_at0,
    einstein_constant,
    fifth_order_check,
    laplacian_apply,
    metric_from_potential,
    third_deriv_obstruction,
)
from kahlerlap.radial import named_profile
from kahlerlap.rationals import Q

from dense_oracles import (
    variable,
    check_k2_identity,
    dense_fifth_order_check,
    euclidean_power_at0,
    laplcube_expansion,
    mat_identity,
    mat_mul,
    metric_matrix,
    multiindices,
    multiindices_upto,
    ref_einstein_constant,
    ref_truncated,
)
from test_acceptance import ALL_LABELS


def fs_metric(n, D):
    """Fubini-Study metric from log(1 + |z|^2)."""
    prof = named_profile("fubini-study", (D + 1) // 2)
    return metric_from_potential(substitute_radial(prof, n, D))


def hyp_metric(n, D):
    prof = named_profile("hyperbolic", (D + 1) // 2)
    return metric_from_potential(substitute_radial(prof, n, D))


def flat_metric(n, D):
    prof = named_profile("flat", (D + 1) // 2)
    return metric_from_potential(substitute_radial(prof, n, D))


def perturbed_metric(D=6):
    """Flat line plus a degree-5 perturbation that breaks parallel curvature."""
    phi = (
        Jet.monomial(1, (1,), (1,), 1, D)
        + Jet.monomial(1, (3,), (2,), Q(1, 12), D)
        + Jet.monomial(1, (2,), (3,), Q(1, 12), D)
    )
    return metric_from_potential(phi)


def sympy_delta_at0(potential, phis, n, k):
    """Independent oracle: Wirtinger calculus in sympy.

    Treats holomorphic z_i and antiholomorphic w_i as independent symbols,
    builds g[i][j] = d^2 potential / dz_i dw_j, inverts the matrix, and
    applies sum ginv[i][j] d^2/dz_j dw_i k times before substituting 0.
    """
    zs = sympy.symbols(f"z0:{n}")
    ws = sympy.symbols(f"w0:{n}")
    g = sympy.Matrix(n, n, lambda i, j: sympy.diff(potential, zs[i], ws[j]))
    ginv = g.inv()
    out = []
    for phi in phis:
        cur = phi
        for _ in range(k):
            cur = sympy.cancel(
                sum(
                    ginv[i, j] * sympy.diff(cur, zs[j], ws[i])
                    for i in range(n)
                    for j in range(n)
                )
            )
        out.append(cur.subs({s: 0 for s in (*zs, *ws)}))
    return out


class TestMetricFromPotential:
    def test_flat_line(self):
        m = flat_metric(1, 4)
        assert metric_matrix(m.potential)[0][0] == Jet.constant(1, 1, 2)
        assert m.g_inv[0][0] == Jet.constant(1, 1, 2)
        assert m.cubic_free and set(m.origin_diag) == {1}

    def test_fubini_study_inverse_closed_form(self):
        # hand differentiation: ginv = (1 + |z|^2)^2
        m = fs_metric(1, 6)
        expected = (
            Jet.constant(1, 1, 4)
            + Jet.monomial(1, (1,), (1,), 2, 4)
            + Jet.monomial(1, (2,), (2,), 1, 4)
        )
        assert m.g_inv[0][0] == expected

    def test_inverse_contract_all(self):
        for m in (fs_metric(2, 6), hyp_metric(2, 6), perturbed_metric()):
            prod = mat_mul(metric_matrix(m.potential), m.g_inv)
            assert prod == mat_identity(m.n, m.n, prod.valid_degree)

    def test_rejects_nondiagonal_origin(self):
        phi = Jet.monomial(2, (1, 0), (0, 1), 1, 4) + Jet.monomial(
            2, (0, 1), (1, 0), 1, 4
        ) + substitute_radial((0, 1, 0), 2, 4)
        with pytest.raises(GaugeError):
            metric_from_potential(phi)

    def test_rejects_nonpositive_origin(self):
        phi = Jet.monomial(1, (1,), (1,), -1, 4)
        with pytest.raises(GaugeError):
            metric_from_potential(phi)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("modsq(z(1)) + z(1)*conj(z(3)) + z(3)*conj(z(1)) - modsq(z(2)) + modsq(z(3))",
             "g(0) is not diagonal: entry (0,2) = 1"),
            ("modsq(z(1)) - modsq(z(2)) + z(2)*conj(z(1)) + modsq(z(3))",
             "g(0) is not diagonal: entry (1,0) = 1"),
            ("modsq(z(1)) + 0*modsq(z(2)) + 2*z(3)*conj(z(2)) + z(3)*z(2)",
             "g(1,1)(0) = 0 is not positive"),
            ("modsq(z(1)) + modsq(z(2)) + 1/2*z(3)*conj(z(2)) + modsq(z(3))",
             "g(0) is not diagonal: entry (2,1) = 1/2"),
        ],
    )
    def test_refuses_the_first_bad_entry_in_row_major_order(self, text, message):
        phi = elaborate(parse(text), 3, 4)
        with pytest.raises(GaugeError) as exc:
            metric_from_potential(phi)
        assert str(exc.value) == message

    def test_gauge_is_refused_before_g_is_built(self):
        # g's integer parts are n^2 (D - 1) dicts: about 55 MB at this n
        phi = elaborate(parse("modsq(z(1))"), 400, 6)
        tracemalloc.start()
        try:
            with pytest.raises(GaugeError, match=r"^g\(1,1\)\(0\) = 0 is not positive$"):
                metric_from_potential(phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_requires_degree_two(self):
        with pytest.raises(TruncationError):
            metric_from_potential(Jet.constant(1, 1, 1))

    def test_cubic_terms_drop_normal_gauge(self):
        phi = substitute_radial((0, 1, 0), 1, 4) + Jet.monomial(
            1, (2,), (1,), 1, 4
        ) + Jet.monomial(1, (1,), (2,), 1, 4)
        m = metric_from_potential(phi)
        assert not m.cubic_free


class TestLaplacian:
    def test_flat_modsq(self):
        m = flat_metric(1, 4)
        out = laplacian_apply(m, Jet.monomial(1, (1,), (1,), 1, 4))
        assert out == Jet.constant(1, 1, 2)

    def test_fs_modsq_gives_inverse_metric(self):
        m = fs_metric(1, 6)
        out = laplacian_apply(m, Jet.monomial(1, (1,), (1,), 1, 6))
        assert out == m.g_inv[0][0]

    def test_holomorphic_in_kernel(self):
        m = fs_metric(1, 6)
        assert laplacian_apply(m, variable(1, 0, 6)).is_zero()

    def test_off_diagonal_pairing(self):
        # FS on two variables: lap(z1 zb2) = (1 + |z|^2) z1 zb2
        m = fs_metric(2, 6)
        phi = Jet.monomial(2, (1, 0), (0, 1), 1, 6)
        t = substitute_radial((1, 1, 0), 2, 4)
        assert laplacian_apply(m, phi) == t * ref_truncated(phi, 4)

    def test_functional_matches_iterated_apply(self):
        m = fs_metric(2, 6)
        for P, Q_ in [((1, 1), (1, 1)), ((2, 0), (2, 0)), ((1, 2), (2, 1)),
                      ((3, 0), (1, 2))]:
            phi = Jet.monomial(2, P, Q_, 1, 6)
            iterated = laplacian_apply(
                m, laplacian_apply(m, laplacian_apply(m, phi))
            ).eval0()
            assert delta_power_at0(m, phi, 3) == iterated


class TestDeltaPower:
    def test_flat_double(self):
        m = flat_metric(1, 4)
        assert delta_power_at0(m, Jet.monomial(1, (2,), (2,), 1, 4), 2) == 4

    def test_fs_cube_modsq(self):
        m = fs_metric(1, 6)
        assert delta_power_at0(m, Jet.monomial(1, (1,), (1,), 1, 6), 3) == 8

    def test_fs_cube_fourth_power(self):
        m = fs_metric(1, 6)
        assert delta_power_at0(m, Jet.monomial(1, (2,), (2,), 1, 6), 3) == 40

    def test_truncation_error_reports_requirement(self):
        m = fs_metric(1, 4)
        with pytest.raises(TruncationError) as exc:
            delta_power_at0(m, Jet.monomial(1, (1,), (1,), 1, 6), 3)
        assert exc.value.required == 6

    def test_phi_validity_checked(self):
        m = fs_metric(1, 6)
        with pytest.raises(ValidityError):
            delta_power_at0(m, Jet.monomial(1, (1,), (1,), 1, 4), 3)

    def test_against_sympy_oracle(self):
        z0, z1 = sympy.symbols("z0 z1")
        w0, w1 = sympy.symbols("w0 w1")
        pot = sympy.log(1 + z0 * w0 + z1 * w1)
        phis = [
            z0 * w0,
            z0**2 * w0**2,
            z0 * z1 * w0 * w1,
            z0**2 * w0 * w1,
        ]
        m = fs_metric(2, 6)
        jets = [
            Jet.monomial(2, (1, 0), (1, 0), 1, 6),
            Jet.monomial(2, (2, 0), (2, 0), 1, 6),
            Jet.monomial(2, (1, 1), (1, 1), 1, 6),
            Jet.monomial(2, (2, 0), (1, 1), 1, 6),
        ]
        for k in (1, 2, 3):
            oracle = sympy_delta_at0(pot, phis, 2, k)
            for val, jet in zip(oracle, jets):
                got = delta_power_at0(m, jet, k)
                assert sympy.Integer(got.numerator) / sympy.Integer(
                    got.denominator
                ) == val


class TestEuclidean:
    def test_pair_form(self):
        assert euclidean_power_at0(((2,), (2,)), 2) == 4
        assert euclidean_power_at0(((1, 1), (1, 1)), 2) == 2
        assert euclidean_power_at0(((1,), (2,)), 1) == 0
        assert euclidean_power_at0(((2,), (2,)), 3) == 0

    def test_jet_form_matches_derivatives(self):
        phi = Jet.monomial(2, (1, 1), (1, 1), 5, 4)
        lap = phi.dz(0).dzbar(0) + phi.dz(1).dzbar(1)
        lap2 = lap.dz(0).dzbar(0) + lap.dz(1).dzbar(1)
        assert euclidean_power_at0(phi, 2) == lap2.eval0() == 10


class TestEinstein:
    def test_fubini_study(self):
        rep = einstein_constant(fs_metric(2, 6))
        assert rep.lam == 3 and rep.residual == 0

    def test_flat(self):
        rep = einstein_constant(flat_metric(3, 4))
        assert rep.lam == 0

    def test_hyperbolic(self):
        rep = einstein_constant(hyp_metric(2, 6))
        assert rep.lam == -3

    def test_gauge_violation(self):
        phi = substitute_radial((0, 1, 0), 1, 4) + Jet.monomial(
            1, (2,), (1,), 1, 4
        ) + Jet.monomial(1, (1,), (2,), 1, 4)
        with pytest.raises(GaugeError):
            einstein_constant(metric_from_potential(phi))

    def test_non_einstein_reports_residual(self):
        # lap^2-level anisotropy: different curvature along the two lines
        phi = substitute_radial((0, 1, -1), 1, 4)
        phi2 = substitute_radial((0, 1, -3), 1, 4)
        coeffs = {}
        for (P, Q_), c in phi.coeffs.items():
            coeffs[(P + (0,), Q_ + (0,))] = c
        for (P, Q_), c in phi2.coeffs.items():
            key = ((0,) + P, (0,) + Q_)
            coeffs[key] = coeffs.get(key, Q(0)) + c
        m = metric_from_potential(Jet(2, coeffs, 4))
        rep = einstein_constant(m)
        assert rep.lam is None and rep.residual == 8


# every golden label and its dual (with non-unit origin_diag: sp, so2n; with
# negative lam: the duals), and sp and so2n at more sizes, along the
# truncation ladder; a product, and the larger spaces the benchmark checks
EINSTEIN_SPACES = [
    (label, D) for label in dict.fromkeys(
        [x for base in ALL_LABELS for x in (base, f"dual({base})")]
        + [f"so2n:N={N}" for N in (3, 4, 5)] + [f"sp:N={N}" for N in (1, 2, 3)])
    for D in range(4, 9)
] + [("product(cp:n=1;cp:n=2)", 6), ("cp:n=10", 8)]


@pytest.mark.parametrize("label,degree", EINSTEIN_SPACES)
def test_einstein_matches_the_rational_sums_on_the_catalog(spaces, label, degree):
    m = spaces(label, degree).metric
    assert einstein_constant(m) == ref_einstein_constant(m)


# the .pot templates of perfbench/workloads.py, written out at two draws of
# (a, b); two potentials whose g_inv is not Hermitian, so that the test at
# (i, j) must read z_j zb_i and not z_i zb_j; and an S_3-fixed one whose
# residual is off the diagonal
EINSTEIN_POTS = [
    (2, template.format(a=a, b=b)) for template in (
        "log(1 + modsq(z(1)) + modsq(z(2)) + {a} * modsq(z(1) * z(2)))",
        "modsq(z(1)) + modsq(z(2)) + {a} * modsq(z(1) * z(1)) + {b} * modsq(z(1)) * modsq(z(2))",
        "log(det([1 + modsq(z(1)), {a} * z(1) * conj(z(2));"
        " {a} * z(2) * conj(z(1)), 1 + modsq(z(2))]))",
        "radial(0, 1, {a}, {b}) + {b} * modsq(z(1) * z(2))",
    ) for a, b in (("2/3", "3/5"), ("5", "1/7"))
] + [
    (2, "3*modsq(z(1)) + modsq(z(2)) + z(1)*z(2)*conj(z(2)*z(2))"),
    (3, "2*modsq(z(1)) + 1/3*modsq(z(2)) + modsq(z(3)) + z(1)*z(3)*conj(z(2)*z(3))"
        " - 2*z(2)*z(2)*conj(z(1)*z(2))"),
    (3, "log(1 + modsq(z(1)) + modsq(z(2)) + modsq(z(3))"
        " + 2/3 * modsq(z(1)*z(2) + z(2)*z(3) + z(1)*z(3)))"),
]


@pytest.mark.parametrize("n,text", EINSTEIN_POTS)
@pytest.mark.parametrize("degree", [4, 6, 8])
def test_einstein_matches_the_rational_sums_on_pot_texts(n, text, degree):
    m = metric_from_potential(elaborate(parse(text), n, degree))
    assert einstein_constant(m) == ref_einstein_constant(m)


def test_einstein_matches_the_rational_sums_on_the_seeded_pot_files():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for seed in range(8):
        for text in workloads.pot_texts(seed):
            n, expr = parse_potential_file(text)
            m = metric_from_potential(elaborate(expr, n, workloads.POT_DEGREE))
            assert einstein_constant(m) == ref_einstein_constant(m)


positive_q = st.builds(Q, st.integers(1, 9), st.integers(1, 9))


@st.composite
def diagonal_gauge_potentials(draw, diag=positive_q):
    """g(0) a diagonal drawn from diag, plus one to four real terms of
    bidegree (2, 2) or (3, 2): cubic-free, and Einstein only by accident."""
    n = draw(st.integers(min_value=2, max_value=3))
    coeffs = {}
    for i in range(n):
        e = tuple(1 if a == i else 0 for a in range(n))
        coeffs[(e, e)] = draw(diag)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        # bidegree (2, 2) reaches the degree-2 part of g_inv; (3, 2) does not
        P = draw(st.sampled_from(list(multiindices(n, draw(st.integers(2, 3))))))
        Q_ = draw(st.sampled_from(list(multiindices(n, 2))))
        c = draw(st.builds(Q, st.integers(-9, 9), st.integers(1, 9)))
        for key in {(P, Q_), (Q_, P)}:
            coeffs[key] = coeffs.get(key, Q(0)) + c
    return Jet(n, coeffs, 6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(diagonal_gauge_potentials())
def test_einstein_matches_the_rational_sums_off_the_catalog(phi):
    m = metric_from_potential(phi)
    assert einstein_constant(m) == ref_einstein_constant(m)


class TestSecondOrderIdentity:
    def test_fs_modsq(self):
        m = fs_metric(1, 6)
        ok, disc = check_k2_identity(m, Jet.monomial(1, (1,), (1,), 1, 6))
        assert ok and disc == 0
        assert delta_power_at0(m, Jet.monomial(1, (1,), (1,), 1, 6), 2) == 2

    def test_flat_fourth(self):
        m = flat_metric(1, 6)
        ok, _ = check_k2_identity(m, Jet.monomial(1, (2,), (2,), 1, 6))
        assert ok

    def test_fs2_cross(self):
        m = fs_metric(2, 6)
        phi = Jet.monomial(2, (1, 1), (1, 1), 1, 6)
        assert delta_power_at0(m, phi, 2) == 2
        ok, _ = check_k2_identity(m, phi)
        assert ok


class TestParallelCurvature:
    def test_flat_zero(self):
        m = flat_metric(2, 6)
        assert third_deriv_obstruction(m) == 0
        assert fifth_order_check(m) == 0

    def test_perturbed_third(self):
        assert third_deriv_obstruction(perturbed_metric()) == 1

    def test_perturbed_fifth(self):
        assert fifth_order_check(perturbed_metric()) == 6

    def test_fs_zero(self):
        m = fs_metric(2, 6)
        assert third_deriv_obstruction(m) == 0
        assert fifth_order_check(m) == 0

    def test_validity_requirement(self):
        with pytest.raises(TruncationError):
            third_deriv_obstruction(flat_metric(1, 4))

    def test_non_unit_gauge_weights(self):
        # d = (3, 1/2, 1) and one real (3, 2) pair, at z1 z2 z3 zb1 zb3: its
        # fifth derivative 1 is weighted by (1/3 + 2 + 1)(1/3 + 1) = 40/9
        n, expr = parse_potential_file(WEIGHTED_POT)
        m = metric_from_potential(elaborate(expr, n, 6))
        assert m.origin_diag == (3, Q(1, 2), 1)
        assert third_deriv_obstruction(m) == 1
        assert fifth_order_check(m) == Q(40, 9) == dense_fifth_order_check(m)

    def test_a_cubic_term_is_refused(self):
        phi = (Jet.monomial(1, (1,), (1,), 1, 6) + Jet.monomial(1, (2,), (1,), 1, 6)
               + Jet.monomial(1, (1,), (2,), 1, 6))
        m = metric_from_potential(phi)
        for check in (third_deriv_obstruction, fifth_order_check):
            with pytest.raises(GaugeError):
                check(m)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(diagonal_gauge_potentials(st.just(Q(1))))
def test_fifth_is_six_thirds_in_unit_gauge(phi):
    # each of the six terms is the fifth derivative; a (3, 2) term with a
    # repeated index, or with none, weighs the same
    m = metric_from_potential(phi)
    assert fifth_order_check(m) == 6 * third_deriv_obstruction(m)


# d = (3, 1/2, 1), one real pair of bidegree (3, 2) and (2, 3), and a (2, 2) term
WEIGHTED_POT = (
    "dim 3\n3*modsq(z(1)) + 1/2*modsq(z(2)) + modsq(z(3))"
    " + z(1)*z(2)*z(3)*conj(z(1)*z(3)) + conj(z(1)*z(2)*z(3))*z(1)*z(3)"
    " + 2*modsq(z(1)*z(2))\n"
)
BENCH_GOLDEN = json.loads(
    (Path(__file__).parent.parent / "perfbench" / "golden.json").read_text(encoding="utf-8")
)


class _Refused:
    """A g_inv store that refuses every read."""

    def _refuse(self, *args):
        raise AssertionError("g_inv store read")

    __getitem__ = __iter__ = __len__ = __bool__ = __getattr__ = _refuse


def test_the_origin_checks_never_read_the_ginv_store(tmp_path):
    """Once table 2 is built, the Einstein test (which reads it), the
    parallel checks (which read the potential) and the obstruction report
    give their golden values with MetricJet._ginv refused: on the metrics
    of check cp:n=10 (an orbit metric) and sp:N=3 at D = 8, and of a .pot
    file with g(0) not unit and a (3, 2) term."""
    pot = tmp_path / "weighted.pot"
    pot.write_text(WEIGHTED_POT, encoding="utf-8")
    cases = [
        ("cp:n=10", 8, BENCH_GOLDEN["check cp:n=10 --degree 8 --kmax 4 --json"]["stdout"]),
        ("sp:N=3", 8, BENCH_GOLDEN["check sp:N=3 --degree 8 --kmax 3 --json"]["stdout"]),
        (str(pot), 6, json.dumps({"einstein": {"lambda": None, "residual": "4/3"},
                                  "parallel": {"third": "1", "fifth": "40/9"}})),
    ]
    obstructions = []
    for target, D, golden in cases:
        want = json.loads(golden)
        _, _, m, space = cli._load_check_target(target, D)
        _laplacian_functional(m, 2)
        m._ginv = _Refused()
        rep = einstein_constant(m)
        lam = None if rep.lam is None else str(rep.lam)
        got = {"einstein": {"lambda": lam, "residual": str(rep.residual)},
               "parallel": {"third": str(third_deriv_obstruction(m)),
                            "fifth": str(fifth_order_check(m))}}
        if "obstruction" in want:
            ob = catalog.obstruction_report(space)
            got["obstruction"] = {"lambda": str(ob.lam), "mu": [str(x) for x in ob.mu],
                                  "val1": str(ob.val1), "val2": str(ob.val2),
                                  "requirement": str(ob.delta_requirement)}
            obstructions.append(target)
        assert got == {key: want[key] for key in got}
    assert obstructions == ["sp:N=3"]


class TestLaplcube:
    def test_fs_fourth_power(self):
        m = fs_metric(1, 6)
        phi = Jet.monomial(1, (2,), (2,), 1, 6)
        assert laplcube_expansion(m, phi) == 40 == delta_power_at0(m, phi, 3)

    def test_flat_sixth_power(self):
        m = flat_metric(1, 6)
        phi = Jet.monomial(1, (3,), (3,), 1, 6)
        assert laplcube_expansion(m, phi) == 36 == delta_power_at0(m, phi, 3)

    def test_full_basis_fs2(self):
        m = fs_metric(2, 6)
        for P in multiindices_upto(2, 3):
            for Q_ in multiindices_upto(2, 3):
                if sum(P) + sum(Q_) > 6:
                    continue
                phi = Jet.monomial(2, P, Q_, 1, 6)
                assert laplcube_expansion(m, phi) == delta_power_at0(m, phi, 3)

    def test_requires_einstein(self):
        phi = substitute_radial((0, 1, -1, 0), 1, 6)
        phi2 = substitute_radial((0, 1, -3, 0), 1, 6)
        coeffs = {(P + (0,), Q_ + (0,)): c for (P, Q_), c in phi.coeffs.items()}
        for (P, Q_), c in phi2.coeffs.items():
            key = ((0,) + P, (0,) + Q_)
            coeffs[key] = coeffs.get(key, Q(0)) + c
        m = metric_from_potential(Jet(2, coeffs, 6))
        with pytest.raises(GaugeError):
            laplcube_expansion(m, Jet.monomial(2, (1, 0), (1, 0), 1, 6))


class TestReality:
    def test_conjugate_pairs_agree(self):
        m = fs_metric(2, 6)
        for P, Q_ in [((2, 0), (1, 1)), ((2, 1), (0, 1)), ((3, 0), (1, 0))]:
            a = Jet.monomial(2, P, Q_, 1, 6)
            b = Jet.monomial(2, Q_, P, 1, 6)
            for k in (1, 2, 3):
                assert delta_power_at0(m, a, k) == delta_power_at0(m, b, k)

    def test_permutation_equivariance_radial(self):
        m = fs_metric(3, 6)
        P, Q_ = (2, 1, 0), (1, 1, 1)
        sigma = lambda t: (t[2], t[0], t[1])
        a = Jet.monomial(3, P, Q_, 1, 6)
        b = Jet.monomial(3, sigma(P), sigma(Q_), 1, 6)
        for k in (1, 2, 3):
            assert delta_power_at0(m, a, k) == delta_power_at0(m, b, k)


class TestTruncationStability:
    def test_fs_values_stable(self):
        m6 = fs_metric(2, 6)
        m8 = fs_metric(2, 8)
        for P, Q_ in [((1, 0), (1, 0)), ((2, 0), (2, 0)), ((1, 1), (1, 1)),
                      ((2, 1), (1, 2))]:
            for k in (1, 2, 3):
                a = delta_power_at0(m6, Jet.monomial(2, P, Q_, 1, 6), k)
                b = delta_power_at0(m8, Jet.monomial(2, P, Q_, 1, 8), k)
                assert a == b
        assert einstein_constant(m6) == einstein_constant(m8)
        assert third_deriv_obstruction(m6) == third_deriv_obstruction(m8)
        assert fifth_order_check(m6) == fifth_order_check(m8)
