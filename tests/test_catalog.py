import json
from math import gcd
from pathlib import Path

import pytest
from dense_oracles import (
    column_filled,
    variable,
    direct_potential_jet,
    mat_identity,
    mat_sub,
    metric_matrix,
    ref_bergman_inverse,
    ref_dual_potential,
    ref_embedded_test_polys,
    ref_truncated,
    naive_index,
    repacked_potential,
    sorted_hits,
)

from kahlerlap import catalog, cli, dsl
from kahlerlap.fit import check_delta_property
from kahlerlap.jets import Jet, JetMatrix, _reduced, log1p, packing
from kahlerlap.metric import (
    einstein_constant,
    fifth_order_check,
    _laplacian_functional,
    _pullback_index,
    laplacian_apply,
    metric_from_potential,
    metric_with_inverse,
    third_deriv_obstruction,
)
from kahlerlap.radial import named_profile, radial_pk
from kahlerlap.rationals import Q
ALL_LABELS = [
    "flat:n=2",
    "cp:n=1",
    "cp:n=2",
    "cp:n=3",
    "ch:n=1",
    "ch:n=2",
    "grassmannian:k=2,N=4",
    "grassmannian:k=2,N=5",
    "sp:N=2",
    "so2n:N=4",
    "quadric-even:N=4",
    "quadric-odd:N=4",
]

MATRIX_LABELS = [
    label for label in ALL_LABELS if label.startswith(("grassmannian", "sp", "so2n"))
]
# the Bergman families, whose g_inv is in closed form, and a dual of one
BERGMAN_LABELS = [label for label in ALL_LABELS if not label.startswith("quadric")] + [
    "dual(grassmannian:k=2,N=4)"
]

# engine-derived Einstein constants, frozen as regression goldens
LAMBDA_GOLDEN = {
    "flat:n=2": 0,
    "cp:n=1": 2,
    "cp:n=2": 3,
    "cp:n=3": 4,
    "ch:n=1": -2,
    "ch:n=2": -3,
    "grassmannian:k=2,N=4": 4,
    "grassmannian:k=2,N=5": 5,
    "sp:N=2": 3,
    "so2n:N=4": 6,
    "quadric-even:N=4": 3,
    "quadric-odd:N=4": 4,
}

GOLDEN_LABELS = list(
    json.loads(
        (Path(__file__).parent / "golden_check_reports.json").read_text(encoding="utf-8")
    )
)

RANK2_LABELS = [
    "grassmannian:k=2,N=4",
    "grassmannian:k=2,N=5",
    "sp:N=2",
    "so2n:N=4",
    "quadric-even:N=4",
    "quadric-odd:N=4",
]


# every family at its smallest parameters and at a larger value, and two compounds
DIMENSION_LABELS = [
    "flat:n=1",
    "flat:n=3",
    "cp:n=1",
    "cp:n=4",
    "ch:n=1",
    "ch:n=3",
    "grassmannian:k=1,N=2",
    "grassmannian:k=2,N=5",
    "so2n:N=2",
    "so2n:N=5",
    "sp:N=1",
    "sp:N=3",
    "quadric-even:N=4",
    "quadric-even:N=6",
    "quadric-odd:N=4",
    "quadric-odd:N=5",
    "product(cp:n=2;grassmannian:k=2,N=4)",
    "dual(so2n:N=4)",
]


class TestDescriptors:
    def test_dimensions_and_ranks(self):
        space = catalog.parse_space
        d = space("grassmannian:k=2,N=5")
        assert d.complex_dim == 6 and d.rank == 2
        assert space("so2n:N=4").complex_dim == 6 and space("so2n:N=4").rank == 2
        assert space("sp:N=2").complex_dim == 3 and space("sp:N=2").rank == 2
        assert space("quadric-even:N=4").complex_dim == 6
        assert space("quadric-odd:N=4").complex_dim == 7
        assert catalog.product(space("cp:n=1"), space("cp:n=2")).complex_dim == 3
        assert catalog.dual(space("grassmannian:k=2,N=4")).rank == 2

    def test_dimension_labels_cover_every_family(self):
        families = {catalog.parse_space(label).family for label in DIMENSION_LABELS}
        assert families >= set(catalog.all_family_names())

    @pytest.mark.parametrize("label", DIMENSION_LABELS)
    def test_dimension_counts_the_modsq_terms_of_the_potential(self, label):
        """The table's dimension formula against a second path: the |z_i|^2
        terms of the potential, which is written from _matrix_slots, the
        quadric's q or the radial profile, not from the formula."""
        desc = catalog.parse_space(label)
        phi = catalog.potential_jet(desc, 2)
        modsq = [P for P, Q_ in map(phi.pk.unpack, phi.parts[2]) if P == Q_]
        assert desc.complex_dim == len(modsq)

    def test_parse_round_trip(self):
        for label in ALL_LABELS + [
            "dual(grassmannian:k=2,N=4)",
            "product(cp:n=1;cp:n=1)",
            "product(cp:n=1;dual(cp:n=2))",
        ]:
            assert catalog.parse_space(label).label() == label

    def test_parameter_validation(self):
        with pytest.raises(catalog.CatalogError):
            catalog.parse_space("grassmannian:k=4,N=4")
        with pytest.raises(catalog.CatalogError):
            catalog.parse_space("quadric-even:N=3")
        with pytest.raises(catalog.CatalogError):
            catalog.parse_space("missing:x=1")


class TestBuild:
    def test_cp_potential_is_radial(self, spaces):
        from kahlerlap.radial import named_profile, potential_jet

        pot = catalog.potential_jet(catalog.parse_space("cp:n=2"), 6)
        assert pot == potential_jet(named_profile("fubini-study", 3), 2, 6)

    def test_grassmannian_origin_identity(self, spaces):
        m = spaces("grassmannian:k=2,N=4").metric
        assert m.n == 4
        assert m.origin_diag == (1, 1, 1, 1)
        assert m.cubic_free and set(m.origin_diag) == {1}

    def test_grassmannian_quadratic_part_is_flat(self, spaces):
        # log det(I + W^dagger W) = sum |w_ij|^2 + higher order
        pot = spaces("grassmannian:k=2,N=4").metric.potential
        deg2 = {k: c for k, c in pot.coeffs.items() if sum(k[0]) + sum(k[1]) == 2}
        expected = {}
        for i in range(4):
            e = tuple(1 if a == i else 0 for a in range(4))
            expected[(e, e)] = 1
        assert deg2 == expected

    def test_sp2_doubled_off_diagonal(self, spaces):
        m = spaces("sp:N=2").metric
        assert m.origin_diag == (1, 2, 1)
        assert m.cubic_free and set(m.origin_diag) != {1}

    def test_so2n_unit_after_halving(self, spaces):
        m = spaces("so2n:N=4").metric
        assert m.origin_diag == tuple([1] * 6)

    def test_degree_guard(self):
        with pytest.raises(catalog.CatalogError):
            catalog.build_space(catalog.parse_space("cp:n=1"), 1)


def ginv_top_degree(m):
    return max(
        sum(P) + sum(Q_)
        for row in m.g_inv.entries
        for e in row
        for P, Q_ in e.coeffs
    )


def merged(entries):
    """Each entry's parts merged into one dict of its nonzero terms."""
    return [[{K: c for part in e for K, c in part.items() if c} for e in row] for row in entries]


class TestBergmanInverse:
    """For the Hermitian symmetric families in Harish-Chandra coordinates,
    g_inv is the Bergman operator of the Jordan triple: a polynomial of
    degree 4, whatever the truncation."""

    @pytest.mark.parametrize(
        "label, degree",
        [
            ("cp:n=3", 10),
            ("ch:n=2", 10),
            ("grassmannian:k=2,N=4", 10),
            ("sp:N=2", 10),
            ("product(cp:n=1;cp:n=1)", 10),
            ("dual(grassmannian:k=2,N=4)", 10),
            ("so2n:N=4", 8),
        ],
    )
    def test_inverse_metric_is_quartic(self, spaces, label, degree):
        m = spaces(label, degree).metric
        assert m.g_inv.valid_degree == degree - 2
        assert ginv_top_degree(m) == 4

    @pytest.mark.parametrize("D", [6, 8, 10])
    @pytest.mark.parametrize("label", BERGMAN_LABELS)
    def test_upper_triangle_gives_both(self, label, D):
        # only the upper triangle is multiplied out, and each term is
        # written into the pullback index for its entry and for its mate,
        # halves swapped, reduced; the oracle multiplies out every entry of
        # both triangles, unreduced, and indexes each entry on its own
        for desc in (catalog.parse_space(label), catalog.dual(catalog.parse_space(label))):
            on = Jet.zero(desc.complex_dim, D)  # only its packing is read
            n, (ref_den, ref) = on.n, _reduced(*ref_bergman_inverse(desc, on, D))
            for solve in ("upper", "full"):
                den, stored = catalog.bergman_inverse(*catalog._bergman(desc), on, D, solve)
                assert all(stored[a][b] is None for a in range(n) for b in range(a))
                lg, index = _pullback_index(on.pk, den, stored, 0)
                assert (lg, sorted_hits(index)) == (ref_den, sorted_hits(naive_index(on.pk, ref)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_a_rank_1_column_fills_both_triangles(self, n):
        # W one column or one row: only column 0 is multiplied out and
        # returned, and the fill by coordinate transpositions gives the
        # oracle's whole g_inv
        labels = [f"{family}:n={n}" for family in ("flat", "cp", "ch")] + [
            f"grassmannian:k={k},N={n + 1}" for k in (1, n)]
        for desc in map(catalog.parse_space, labels + [f"dual({label})" for label in labels]):
            for D in range(2, 11):
                on = Jet.zero(n, D)
                ref = _reduced(*ref_bergman_inverse(desc, on, D))
                if n > 1:
                    den, col = catalog.bergman_inverse(*catalog._bergman(desc), on, D, "column")
                    assert len(col) == n and all(len(row) == 1 for row in col)
                    lg, whole = _reduced(den, column_filled(on.pk, col))
                    assert (lg, merged(whole)) == (ref[0], merged(ref[1]))
                else:  # the 1 x 1 upper triangle, written into its index
                    lg, index = _pullback_index(
                        on.pk, *catalog.bergman_inverse(*catalog._bergman(desc), on, D, "upper"), 0)
                    assert (lg, sorted_hits(index)) == (
                        ref[0], sorted_hits(naive_index(on.pk, ref[1])))

    def test_quadric_coordinates_are_not_bergman(self, spaces):
        # the catalog's quadric chart is not Harish-Chandra: g_inv has terms
        # up to its validity
        m = spaces("quadric-even:N=4", 8).metric
        assert ginv_top_degree(m) > 4

    def test_a_build_makes_the_blocks_once(self, monkeypatch):
        # the potential, g_inv and frame of one Bergman build share one
        # _bergman_blocks, and so one _matrix_slots, at every degree
        calls = []
        for name in ("_bergman_blocks", "_matrix_slots"):
            def counted(*args, name=name, orig=getattr(catalog, name)):
                calls.append(name)
                return orig(*args)

            monkeypatch.setattr(catalog, name, counted)
        labels = [label for label in ALL_LABELS if catalog._bergman(catalog.parse_space(label))]
        for label in labels + [f"dual({label})" for label in labels]:
            desc = catalog.parse_space(label)
            for D in (2, 5, 6, 8):
                calls.clear()
                space = catalog.build_space(desc, D)
                assert sorted(calls) == ["_bergman_blocks", "_matrix_slots"], (label, D)
                assert space.frame == catalog._frame(desc)

    @pytest.mark.parametrize("label", [label for label in ALL_LABELS
                                       if catalog._bergman(catalog.parse_space(label))])
    def test_a_closed_form_arrives_reduced(self, label):
        # row a weighs 1 / (scale |S_a|), reduced, and den is the lcm of
        # their denominators: 1 on so2n (scale 1/2, |S_a| = 2) and on every
        # family but sp, whose diagonal coordinates weigh 1 and the others
        # 1/2; the gcd of den and every numerator is 1
        for desc in (catalog.parse_space(label), catalog.dual(catalog.parse_space(label))):
            for D in range(2, 11):
                solve = "column" if catalog.build_space(desc, D).metric._orbits else "upper"
                den, stored = catalog.bergman_inverse(
                    *catalog._bergman(desc), Jet.zero(desc.complex_dim, D), D, solve)
                parts = [part for row in stored for e in row if e for part in e if part]
                assert den == (2 if label.startswith("sp") and desc.complex_dim > 1 else 1)
                assert gcd(den, *(c for part in parts for c in part.values())) == 1


class TestEinsteinGoldens:
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_lambda(self, spaces, label):
        rep = einstein_constant(spaces(label).metric)
        assert rep.residual == 0
        assert rep.lam == LAMBDA_GOLDEN[label]


class TestParallelCurvature:
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_zero_on_catalog(self, spaces, label):
        m = spaces(label).metric
        assert third_deriv_obstruction(m) == 0
        assert fifth_order_check(m) == 0


class TestDualPotential:
    def test_fubini_study_to_hyperbolic(self, spaces):
        from kahlerlap.radial import named_profile, potential_jet

        pot = catalog.potential_jet(catalog.parse_space("cp:n=2"), 6)
        assert catalog.dual_potential(pot) == potential_jet(
            named_profile("hyperbolic", 3), 2, 6
        )

    def test_involution(self, spaces):
        pot = spaces("quadric-odd:N=4").metric.potential
        assert catalog.dual_potential(catalog.dual_potential(pot)) == pot

    @pytest.mark.parametrize("label", ["sp:N=2", "so2n:N=4", "product(cp:n=1;ch:n=1)"])
    def test_matches_tuple_reference(self, spaces, label):
        pot = spaces(label).metric.potential
        assert catalog.dual_potential(pot) == ref_dual_potential(pot)

    def test_sign_when_q_degree_fills_a_slot(self):
        # at D = 3 a slot holds 0..3, so |Q| = 3 equals the slot mask, where
        # a degree read as key % mask would give 0 and the wrong sign
        odd = Jet.monomial(2, (0, 0), (2, 1), 1, 3)
        even = Jet.monomial(2, (1, 0), (1, 1), 1, 3)
        assert odd.pk.mask == 3
        assert catalog.dual_potential(odd + even) == odd - even
        assert ref_dual_potential(odd + even) == odd - even

    def test_grassmannian_dual_closed_form(self, spaces):
        # dual of log det(I + S) must equal -log det(I - S) coefficientwise
        D = 6
        n = 4
        w = [[variable(n, r * 2 + c, D) for c in range(2)] for r in range(2)]
        s = [
            [
                sum(
                    (w[r][a].conj() * w[r][b] for r in range(2)),
                    Jet.zero(n, D),
                )
                for b in range(2)
            ]
            for a in range(2)
        ]
        gram = JetMatrix(s)
        det = mat_sub(mat_identity(n, 2, D), gram).det()
        direct = -log1p(det - Jet.constant(n, 1, D))
        pot = catalog.potential_jet(catalog.parse_space("grassmannian:k=2,N=4"), D)
        assert catalog.dual_potential(pot) == direct

    @pytest.mark.parametrize(
        "label", [label for label in ALL_LABELS if catalog._bergman(catalog.parse_space(label))])
    def test_a_bergman_dual_is_its_family_at_minus_s(self, monkeypatch, label):
        # potential_jet and build_space build a Bergman family and its dual
        # from (family, s) alone; dual_potential, the coefficientwise pass,
        # is the second path and is refused while they run
        desc = catalog.parse_space(label)
        ref = {D: catalog.dual_potential(catalog.potential_jet(desc, D)) for D in range(2, 11)}

        def refuse(phi):
            raise AssertionError("dual_potential called")

        monkeypatch.setattr(catalog, "dual_potential", refuse)
        for D in range(2, 11):
            if D <= 5:  # build_space reads the potential to min(D, 5)
                for space in (desc, catalog.dual(desc)):
                    catalog.build_space(space, D)
            assert catalog.potential_jet(catalog.dual(desc), D) == ref[D]


class TestProducts:
    def test_flat_times_flat_is_flat(self, spaces):
        m = spaces("product(flat:n=1;flat:n=1)").metric
        assert m.potential == catalog.potential_jet(catalog.parse_space("flat:n=2"), 6)

    def test_cp1_squared_einstein(self, spaces):
        rep = einstein_constant(spaces("product(cp:n=1;cp:n=1)").metric)
        assert rep.lam == 2

    def test_mixed_product_not_einstein(self, spaces):
        rep = einstein_constant(spaces("product(cp:n=1;cp:n=2)").metric)
        assert rep.lam is None and rep.residual == 1

    def test_block_metric(self, spaces):
        m = spaces("product(cp:n=1;cp:n=2)").metric
        g = metric_matrix(m.potential)
        assert g[0][1].is_zero() and g[1][0].is_zero()


class TestEmbeddedPolys:
    def test_grassmannian_axes(self, spaces):
        pair = catalog.embedded_test_polys(spaces("grassmannian:k=2,N=4"))
        assert pair.f1 == Jet.monomial(4, (2, 0, 0, 0), (2, 0, 0, 0), 1, 6)
        assert pair.f2 == Jet.monomial(4, (1, 0, 0, 1), (1, 0, 0, 1), 1, 6)

    def test_sp2_axes(self, spaces):
        pair = catalog.embedded_test_polys(spaces("sp:N=2"))
        assert pair.f1 == Jet.monomial(3, (2, 0, 0), (2, 0, 0), 1, 6)
        assert pair.f2 == Jet.monomial(3, (1, 0, 1), (1, 0, 1), 1, 6)

    def test_quadric_combination_is_rational(self, spaces):
        pair = catalog.embedded_test_polys(spaces("quadric-even:N=4"))
        # ((v2 + v'3)(vb2 + vb'3) / 2)^2 expanded
        m1 = (
            variable(6, 0, 6) + variable(6, 4, 6)
        ) * (variable(6, 0, 6) + variable(6, 4, 6)).conj()
        assert pair.f1 == (m1 * m1).scale(Q(1, 4))

    @pytest.mark.parametrize("D", [2, 3, 4, 6, 8])
    @pytest.mark.parametrize(
        "label",
        [label for label in GOLDEN_LABELS if catalog.parse_space(label).rank >= 2],
    )
    def test_packed_keys_match_the_jet_ring(self, spaces, label, D):
        # the quadrics' paired frame has nu = 2; products and duals take
        # their factors' frames
        space = spaces(label, D)
        pair = catalog.embedded_test_polys(space)
        assert pair == ref_embedded_test_polys(space)
        assert pair.f1.pk is pair.f2.pk is space.metric.potential.pk

    def test_rank1_rejected(self, spaces):
        with pytest.raises(catalog.CatalogError):
            catalog.embedded_test_polys(spaces("cp:n=3"))
        with pytest.raises(catalog.CatalogError):
            catalog.embedded_test_polys(spaces("flat:n=2"))


class TestObstruction:
    @pytest.mark.parametrize("label", RANK2_LABELS + [f"dual({label})" for label in RANK2_LABELS])
    def test_values_match_embedded_line_prediction(self, spaces, label):
        """(12 lam + 16 s, 6 lam), s = 1 on a compact space and -1 on its dual."""
        ob, s = catalog.obstruction_report(spaces(label)), -1 if label.startswith("dual") else 1
        assert ob.lam * s > 0
        assert ob.val1 == ob.val1_expected == 12 * ob.lam + 16 * s
        assert ob.val2 == ob.val2_expected == 6 * ob.lam
        assert ob.delta_requirement == 16 * s

    @pytest.mark.parametrize(
        "label",
        [label for label in GOLDEN_LABELS if catalog.parse_space(label).rank >= 2],
    )
    def test_values_by_iterated_laplacian(self, spaces, label):
        """val1 and val2 again, from lap applied three times to f1 and f2
        (laplacian_apply) instead of the lap^3 functional table."""
        space = spaces(label)
        pair = catalog.embedded_test_polys(space)

        def lap3_at0(f):
            for _ in range(3):
                f = laplacian_apply(space.metric, f)
            return f.eval0()

        d = space.metric.origin_diag
        mu1, mu2 = (
            sum(c * c * d[var] for var, c in fd.form) / fd.nu for fd in space.frame[:2]
        )
        ob = catalog.obstruction_report(space)
        assert (ob.val1, ob.val2) == (
            lap3_at0(pair.f1) * mu1 * mu1, lap3_at0(pair.f2) * mu1 * mu2
        )

    def test_cp1_squared_obstruction(self, spaces):
        ob = catalog.obstruction_report(spaces("product(cp:n=1;cp:n=1)"))
        assert (ob.val1, ob.val2, ob.delta_requirement) == (40, 12, 16)

    def test_non_einstein_rejected(self, spaces):
        with pytest.raises(catalog.CatalogError):
            catalog.obstruction_report(spaces("product(cp:n=1;cp:n=2)"))


class TestDualCompare:
    @pytest.mark.parametrize(
        "label", ["cp:n=1", "cp:n=2", "grassmannian:k=2,N=4"]
    )
    def test_pairs_sum_to_zero(self, label):
        rows = catalog.dual_compare(catalog.parse_space(label), 6)
        assert rows
        for _, compact, noncompact in rows:
            assert compact + noncompact == 0

    def test_cp1_values(self):
        rows = catalog.dual_compare(catalog.parse_space("cp:n=1"), 6)
        assert rows == [((2,), 40, -40)]

    def test_flat_all_zero(self):
        rows = catalog.dual_compare(catalog.parse_space("flat:n=2"), 6)
        for _, compact, noncompact in rows:
            assert compact == 0 and noncompact == 0


class TestFailureAtOrderThree:
    @pytest.mark.parametrize("label", RANK2_LABELS)
    def test_rank2_fails_exactly_at_k3(self, spaces, label):
        res = check_delta_property(spaces(label).metric, 3)
        assert [r.fitted for r in res] == [True, True, False]

    @pytest.mark.parametrize("label", ["cp:n=2", "ch:n=2", "flat:n=2"])
    def test_rank1_passes(self, spaces, label):
        res = check_delta_property(spaces(label, 8).metric, 4)
        assert all(r.fitted for r in res)


# Surface expressions for the families that the catalog builds by radial
# substitution and by offsetting factors, so they reach their jets through
# the elaborator instead.
SURFACE_TEXT = {
    "flat:n=2": "modsq(z(1)) + modsq(z(2))",
    "cp:n=2": "log(1 + modsq(z(1)) + modsq(z(2)))",
    "ch:n=2": "0 - log(1 - modsq(z(1)) - modsq(z(2)))",
    "product(cp:n=1;ch:n=1)": "log(1 + modsq(z(1))) - log(1 - modsq(z(2)))",
}


# the quadrics, and the labels that build them as a dual or a factor
QUADRICS = ["quadric-even:N=4", "quadric-even:N=5", "quadric-even:N=6", "quadric-odd:N=4",
            "quadric-odd:N=5"]
QUADRIC_BUILDS = QUADRICS + [f"dual({label})" for label in QUADRICS] + [
    "product(cp:n=1;quadric-even:N=4)"
]


class TestDslCrossPath:
    """Each catalog potential equals a jet built on a path that shares no
    code with the catalog's: the elaborated surface expression above for
    radial families and products, and the hand-built jets of
    direct_potential_jet for the matrix families and the quadrics."""

    @pytest.mark.parametrize(
        "label",
        [
            "flat:n=2",
            "cp:n=2",
            "ch:n=2",
            "grassmannian:k=2,N=4",
            "sp:N=2",
            "so2n:N=4",
            "quadric-even:N=4",
            "quadric-odd:N=4",
            "product(cp:n=1;ch:n=1)",
        ],
    )
    def test_surface_expression_elaborates_to_same_jet(self, spaces, label):
        space = spaces(label)
        if label in SURFACE_TEXT:
            expr = dsl.parse(SURFACE_TEXT[label])
            other = dsl.elaborate(expr, space.metric.n, space.truncation)
        else:
            other = direct_potential_jet(space.descriptor, space.truncation)
        assert other == catalog.potential_jet(space.descriptor, space.truncation)

    @pytest.mark.parametrize(
        "label, degree",
        [(label, 6) for label in ALL_LABELS]
        + [
            ("product(cp:n=1;cp:n=1)", 6),
            ("dual(grassmannian:k=2,N=4)", 6),
            ("sp:N=3", 8),
            ("cp:n=10", 8),
            ("grassmannian:k=3,N=6", 6),
            ("sp:N=4", 8),
            ("so2n:N=5", 6),
        ]
        # low degrees, where the minors and Pfaffians past D are cut
        + [(label, degree) for label in MATRIX_LABELS for degree in range(2, 6)]
        # the quadrics' log(1 + q), q on packed keys, at every degree to 10
        + [(label, degree) for label in QUADRIC_BUILDS for degree in range(11)
           if not (label in ALL_LABELS and degree == 6)],
    )
    def test_potential_matches_direct_jets(self, label, degree):
        desc = catalog.parse_space(label)
        assert catalog.potential_jet(desc, degree) == direct_potential_jet(desc, degree)

    @pytest.mark.parametrize(
        "label", ALL_LABELS + ["product(cp:n=1;so2n:N=3)", "dual(sp:N=2)"]
    )
    def test_catalog_never_takes_a_determinant(self, monkeypatch, label):
        def refuse(self):
            raise AssertionError("JetMatrix.det called")

        monkeypatch.setattr(JetMatrix, "det", refuse)
        catalog.build_space(catalog.parse_space(label), 6)


# every matrix family at its smallest parameters and at larger ones
TRACE_LABELS = MATRIX_LABELS + [
    "grassmannian:k=1,N=2",
    "grassmannian:k=3,N=6",
    "sp:N=1",
    "sp:N=3",
    "so2n:N=2",
    "so2n:N=3",
    "so2n:N=5",
]


class TestTraceSeries:
    """The matrix families' potentials, built as the trace series of
    log det(I + W^dagger W), against the hand-built log det jets."""

    @pytest.mark.parametrize("D", range(2, 9))
    @pytest.mark.parametrize("label", TRACE_LABELS)
    def test_matches_direct_jets(self, label, D):
        desc = catalog.parse_space(label)
        assert catalog.potential_jet(desc, D) == direct_potential_jet(desc, D)

    @pytest.mark.parametrize("D", [6, 8])
    @pytest.mark.parametrize("label", ["dual(sp:N=2)", "product(cp:n=1;so2n:N=3)"])
    def test_duals_and_products_wrap_it(self, label, D):
        desc = catalog.parse_space(label)
        assert catalog.potential_jet(desc, D) == direct_potential_jet(desc, D)

    @pytest.mark.parametrize("label", TRACE_LABELS)
    def test_odd_parts_are_empty(self, label):
        desc = catalog.parse_space(label)
        for D in range(10):
            phi = catalog.potential_jet(desc, D)
            assert phi.valid_degree == D
            assert not any(phi.parts[1::2])

    def test_no_catalog_build_parses_or_elaborates(self, monkeypatch):
        calls = []
        for name in ("parse", "elaborate"):
            build = getattr(dsl, name)
            monkeypatch.setattr(
                dsl, name, lambda *args, name=name, build=build: calls.append(name) or build(*args)
            )
        labels = ALL_LABELS + [f"dual({label})" for label in ALL_LABELS]
        for label in labels + ["product(cp:n=1;quadric-even:N=4)"]:
            catalog.build_space(catalog.parse_space(label), 6)
        assert calls == []
        # the recorder does see a .pot file's elaboration
        dsl.elaborate(dsl.parse("log(1 + modsq(z(1)))"), 1, 4)
        assert calls == ["parse", "elaborate"]


# triples of isomorphic spaces, each built on other catalog paths (the
# radial profile, the trace series, a dual), and the radial profile whose
# recursion gives their p_k
ISOMORPHIC = [
    (("cp:n=3", "so2n:N=3", "grassmannian:k=1,N=4"), "fubini-study"),
    (("ch:n=3", "dual(so2n:N=3)", "dual(cp:n=3)"), "hyperbolic"),
    (("cp:n=1", "so2n:N=2", "sp:N=1"), "fubini-study"),
]


@pytest.mark.parametrize("labels, profile", ISOMORPHIC)
def test_isomorphic_spaces_print_one_report(capsys, labels, profile):
    # lambda, the verdicts, the parallel values and p_1..p_4 are one report
    # but for the label, and each p_k is the radial recursion's at that n
    reports = []
    for label in labels:
        code = cli.main(["check", label, "--degree", "8", "--kmax", "4", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report.pop("space") == label
        reports.append((code, report))
    assert reports == reports[:1] * len(labels)
    code, report = reports[0]
    assert code == 0 and report["parallel"] == {"third": "0", "fifth": "0"}
    fitted = [{int(l): Q(c) for l, c in r["pk"].items()} for r in report["delta"]]
    recursion = radial_pk(named_profile(profile, 8), report["dim"], 4)
    assert fitted == [{l: p.coefficient(l) for l in range(1, p.k + 1)} for p in recursion]


# every closed-form label of ALL_LABELS and its dual, and wider so2n and sp
CLOSED_FORM_LABELS = [label for label in ALL_LABELS if catalog._bergman(catalog.parse_space(label))]
CLOSED_FORM_LABELS += [f"dual({label})" for label in CLOSED_FORM_LABELS] + [
    "so2n:N=3", "so2n:N=5", "sp:N=1", "sp:N=3"]


class TestTruncationStability:
    @pytest.mark.parametrize("label", CLOSED_FORM_LABELS)
    def test_a_closed_form_potential_is_built_on_the_packing_of_D(self, monkeypatch, label):
        """build_space writes a closed form's potential on the packing of D,
        so it repacks nothing, and it is the potential to min(D, 5) repacked."""
        desc = catalog.parse_space(label)
        expected = [repacked_potential(desc, D) for D in range(2, 11)]

        def refuse(*args):
            raise AssertionError("build_space repacked a jet")

        monkeypatch.setattr(Jet, "_parts_on", refuse)
        for D, want in zip(range(2, 11), expected):
            phi = catalog.build_space(desc, D).metric.potential
            assert phi.pk is want.pk is packing(desc.complex_dim, D)
            assert (phi.valid_degree, phi.den, phi.parts) == (want.valid_degree, want.den,
                                                              want.parts)

    @pytest.mark.parametrize(
        "label", ["cp:n=2", "grassmannian:k=2,N=4", "sp:N=2"]
    )
    def test_deeper_build_agrees(self, spaces, label):
        shallow = spaces(label)
        deep = spaces(label, 8)
        desc = shallow.descriptor
        assert ref_truncated(catalog.potential_jet(desc, 8), 6) == catalog.potential_jet(desc, 6)
        assert einstein_constant(shallow.metric) == einstein_constant(deep.metric)
        res6 = check_delta_property(shallow.metric, 3)
        res8 = check_delta_property(deep.metric, 3)
        assert res6 == res8
        if shallow.descriptor.rank >= 2:
            ob6 = catalog.obstruction_report(shallow)
            ob8 = catalog.obstruction_report(deep)
            assert (ob6.val1, ob6.val2) == (ob8.val1, ob8.val2)

    @pytest.mark.parametrize("D", [6, 8, 10])
    @pytest.mark.parametrize("label", BERGMAN_LABELS)
    def test_potential_to_degree_5_gives_the_full_metric(self, label, D):
        # build_space reads the potential to degree 5; the route before it
        # read the whole catalog.potential_jet(desc, D), on the same packing
        desc = catalog.parse_space(label)
        m = catalog.build_space(desc, D).metric
        phi = catalog.potential_jet(desc, D)
        bergman = catalog._bergman(desc)
        full = metric_with_inverse(
            phi, lambda phi, solve: catalog.bergman_inverse(*bergman, phi, D, solve), D)
        assert (m.potential.valid_degree, full.potential.valid_degree) == (5, D)
        assert m.potential.pk is full.potential.pk
        assert m.valid_degree == full.valid_degree == D
        assert m.g_inv == full.g_inv
        assert (m.origin_diag, m.cubic_free, m._orbits) == (
            full.origin_diag, full.cubic_free, full._orbits
        )
        for k in range(1, D // 2 + 1):
            assert _laplacian_functional(m, k) == _laplacian_functional(full, k)
        assert third_deriv_obstruction(m) == third_deriv_obstruction(full)
        assert fifth_order_check(m) == fifth_order_check(full)

    def test_bergman_builds_ask_for_the_potential_to_degree_5(self, monkeypatch):
        asked = []
        build = catalog.potential_jet

        def record(desc, D, *slots):
            asked.append(D)
            return build(desc, D, *slots)

        monkeypatch.setattr(catalog, "potential_jet", record)
        for label in BERGMAN_LABELS:
            for D in (6, 8, 10):
                catalog.build_space(catalog.parse_space(label), D)
        assert max(asked) == 5
