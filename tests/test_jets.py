from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kahlerlap.jets import (
    DimensionMismatch,
    Jet,
    JetError,
    JetMatrix,
    NonInvertibleError,
    ValidityError,
    log1p,
    packing,
    substitute_radial,
)
from kahlerlap import rationals
from kahlerlap.radial import profile_from_coeffs
from kahlerlap.rationals import Q

from dense_oracles import (
    variable,
    divisor_pairs,
    mat_conj,
    mat_identity,
    mat_mul,
    multiindices,
    multiindices_upto,
    reciprocal,
    ref_add,
    ref_conj,
    ref_dz,
    ref_dzbar,
    ref_mul,
    ref_substitute_radial,
    ref_truncated,
    series_log1p,
)


def mono(n, P, Q_, c=1, D=4):
    return Jet.monomial(n, P, Q_, c, D)


class TestConstruction:
    def test_monomial_modsq(self):
        j = mono(1, (1,), (1,), 1, 4)
        assert j.coeffs == {((1,), (1,)): 1}
        assert j.valid_degree == 4

    def test_monomial_negative_coefficient(self):
        j = mono(2, (1, 0), (0, 1), -1, 2)
        assert j.coeffs == {((1, 0), (0, 1)): -1}

    def test_degree_overflow(self):
        with pytest.raises(ValidityError):
            mono(1, (3,), (0,), 1, 2)
        with pytest.raises(ValidityError):
            mono(1, (3,), (0,), 0, 2)

    def test_zero_pruning(self):
        j = Jet(1, {((1,), (1,)): Q(0)}, 4)
        assert j.is_zero()

    def test_monomial_takes_lists(self):
        assert mono(2, [1, 0], [0, 2], 3, 4) == mono(2, (1, 0), (0, 2), 3, 4)

    def test_constructor_rejects_wrong_key_length(self):
        with pytest.raises(DimensionMismatch):
            Jet(2, {((1,), (0, 1)): Q(1)}, 4)

    def test_constructor_rejects_negative_exponent(self):
        with pytest.raises(JetError, match="negative exponent"):
            Jet(2, {((1, -1), (0, 1)): Q(1)}, 4)

    def test_constructor_rejects_degree_above_validity(self):
        with pytest.raises(ValidityError):
            Jet(1, {((2,), (1,)): Q(1)}, 2)

    def test_coeffs_is_a_read_only_view(self):
        j = mono(1, (1,), (1,), 1, 4)
        with pytest.raises(TypeError):
            j.coeffs[((0,), (0,))] = Q(1)
        assert j == mono(1, (1,), (1,), 1, 4)


class TestArithmetic:
    def test_mul_basic(self):
        z = variable(1, 0, 4)
        zb = z.conj()
        assert z * zb == mono(1, (1,), (1,), 1, 4)

    def test_mul_truncates_to_min_validity(self):
        a = Jet.constant(1, 1, 2) + mono(1, (1,), (1,), 1, 2)
        prod = a * a
        assert prod == Jet.constant(1, 1, 2) + mono(1, (1,), (1,), 2, 2)

    def test_add_cancel(self):
        j = Jet.constant(2, 3, 3) + mono(2, (1, 0), (0, 1), 5, 3)
        assert (j + j.scale(-1)).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            variable(1, 0, 2) * variable(2, 0, 2)

    def test_scalar_ops(self):
        j = mono(1, (1,), (1,), 1, 4)
        assert j.scale(Q(1, 2)) == mono(1, (1,), (1,), Q(1, 2), 4)
        assert 2 * j == j + j

    def test_equal_rationals_over_different_denominators_are_equal(self):
        # den is not canonical: 1/2 + 3/2 z1 zb1 stored over 2, 4 and 6
        pk = packing(1, 2)
        a, b, c = (
            Jet._of(1, pk, den, [{0: den // 2}, {}, {pk.units[0] + pk.units[1]: 3 * den // 2}])
            for den in (2, 4, 6)
        )
        assert (a.den, b.den, c.den) == (2, 4, 6)
        assert a == b == c and c == a
        assert a.coeffs == b.coeffs == {((0,), (0,)): Q(1, 2), ((1,), (1,)): Q(3, 2)}
        assert a != Jet._of(1, pk, 4, [{0: 1}, {}, {pk.units[0] + pk.units[1]: 3}])
        assert (a * Jet.constant(1, 4, 2)).scale(Q(1, 2)) == a + a  # over 2 * 1 * 2 and over 2


class TestCalculus:
    def test_derivative_basic(self):
        j = mono(1, (2,), (1,), 1, 4)  # z^2 zb
        assert j.dz(0) == mono(1, (1,), (1,), 2, 3)

    def test_derivative_kills_wrong_kind(self):
        j = mono(2, (2, 0), (0, 0), 1, 4)
        assert j.dzbar(1).is_zero()

    def test_mixed_fourth(self):
        j = mono(1, (2,), (2,), 1, 4)  # |z|^4
        assert j.dz(0).dzbar(0) == mono(1, (1,), (1,), 4, 2)

    def test_commutation(self):
        j = mono(2, (2, 1), (1, 2), 7, 6)
        assert j.dz(0).dzbar(1) == j.dzbar(1).dz(0)

    def test_validity_exhausted(self):
        j = Jet.constant(1, 1, 0)
        with pytest.raises(ValidityError):
            j.dz(0)

    def test_eval0(self):
        j = Jet.constant(1, 1, 4) + mono(1, (1,), (1,), 2, 4)
        assert j.eval0() == 1
        assert mono(2, (1, 0), (0, 1), 1, 2).eval0() == 0
        assert Jet.zero(1, 4).eval0() == 0


class TestReciprocalLog:
    def test_reciprocal_geometric(self):
        j = Jet.constant(1, 1, 4) + mono(1, (1,), (1,), 1, 4)
        expected = (
            Jet.constant(1, 1, 4)
            + mono(1, (1,), (1,), -1, 4)
            + mono(1, (2,), (2,), 1, 4)
        )
        assert reciprocal(j) == expected

    def test_reciprocal_contract(self):
        j = Jet.constant(2, 2, 5) + mono(2, (1, 1), (0, 0), 3, 5) + mono(
            2, (1, 0), (0, 1), Q(1, 3), 5
        )
        assert (j * reciprocal(j) - 1).is_zero()

    def test_reciprocal_zero_constant(self):
        with pytest.raises(NonInvertibleError):
            reciprocal(mono(1, (1,), (1,), 1, 4))

    def test_log1p_series(self):
        s = mono(1, (1,), (1,), 1, 4)
        assert log1p(s) == s + mono(1, (2,), (2,), Q(-1, 2), 4)

    def test_log1p_rejects_constant(self):
        with pytest.raises(ValueError):
            log1p(Jet.constant(1, 1, 4))


class TestMatrix:
    def test_det_diagonal(self):
        one = Jet.constant(1, 1, 4)
        m = JetMatrix([[one + mono(1, (1,), (1,), 1, 4), Jet.zero(1, 4)],
                       [Jet.zero(1, 4), one]])
        assert m.det() == one + mono(1, (1,), (1,), 1, 4)

    def test_inverse_diagonal(self):
        g = JetMatrix([[Jet.constant(1, 1, 2) + mono(1, (1,), (1,), 1, 2)]])
        assert g.inverse()[0][0] == Jet.constant(1, 1, 2) + mono(1, (1,), (1,), -1, 2)

    def test_conj_moves_entry(self):
        z = variable(2, 0, 3)
        m = JetMatrix([[Jet.zero(2, 3), z], [Jet.zero(2, 3), Jet.zero(2, 3)]])
        assert mat_conj(m)[0][1] == z.conj()

    def test_inverse_contract_offdiagonal(self):
        one = Jet.constant(2, 1, 4)
        z1, z2 = variable(2, 0, 4), variable(2, 1, 4)
        g = JetMatrix(
            [[one + z1 * z1.conj(), z1 * z2.conj()],
             [z2 * z1.conj(), one + z2 * z2.conj()]]
        )
        prod = mat_mul(g, g.inverse())
        ident = mat_identity(2, 2, 4)
        assert prod == ident

    def test_singular_constant_term(self):
        z1 = variable(1, 0, 3)
        with pytest.raises(NonInvertibleError):
            JetMatrix([[z1 * z1.conj()]]).inverse()

    def test_det_non_square(self):
        with pytest.raises(DimensionMismatch):
            JetMatrix([[Jet.zero(1, 2), Jet.zero(1, 2)]]).det()


class TestSubstituteRadial:
    def test_linear(self):
        jet = substitute_radial((0, 1), 2, 2)
        assert jet == mono(2, (1, 0), (1, 0), 1, 2) + mono(2, (0, 1), (0, 1), 1, 2)

    def test_log_series(self):
        f = (0, 1, Q(-1, 2), Q(1, 3))
        jet = substitute_radial(f, 1, 6)
        expected = (
            mono(1, (1,), (1,), 1, 6)
            + mono(1, (2,), (2,), Q(-1, 2), 6)
            + mono(1, (3,), (3,), Q(1, 3), 6)
        )
        assert jet == expected

    def test_multinomial_weights(self):
        jet = substitute_radial((0, 0, 1), 2, 4)  # t^2, two variables
        assert jet.coeffs[((1, 1), (1, 1))] == 2
        assert jet.coeffs[((2, 0), (2, 0))] == 1

    def test_insufficient_order(self):
        with pytest.raises(ValidityError):
            substitute_radial((0, 1), 1, 4)


@pytest.mark.parametrize("n", [0, -1])
def test_multiindices_rejects_nonpositive_dimension(n):
    with pytest.raises(ValueError, match="n >= 1"):
        list(multiindices(n, 2))


# -- property tests ----------------------------------------------------------

small_q = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).map(lambda f: Q(f.numerator, f.denominator))


def assert_integer_form(jet):
    """Integer parts over one positive integer denominator."""
    assert type(jet.den) is int and jet.den > 0
    assert all(type(c) is int for part in jet.parts for c in part.values())


def _outcome(fn, *args):
    """The jet fn returns, or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=120, derandomize=True)
@given(
    st.integers(min_value=-1, max_value=4),
    st.integers(min_value=0, max_value=10),
    st.lists(st.one_of(st.just(Q(0)), small_q), min_size=1, max_size=7),
)
def test_substitute_radial_matches_reference(n, D, coeffs):
    """The packed kernel equals the tuple-keyed reference term for term and
    in each part's key order, and raises the same errors (a short series,
    n < 1)."""
    f = tuple(coeffs)
    got = _outcome(substitute_radial, f, n, D)
    expected = _outcome(ref_substitute_radial, f, n, D)
    assert got == expected
    if isinstance(got, Jet):
        assert_integer_form(got)
        assert got.pk is expected.pk
        assert [list(part) for part in got.parts] == [list(part) for part in expected.parts]


@st.composite
def jets(draw, n=2, max_degree=4):
    D = draw(st.integers(min_value=2, max_value=max_degree))
    keys = list(multiindices(n, 0)) + list(multiindices(n, 1)) + list(
        multiindices(n, 2)
    )
    coeffs = {}
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        P = draw(st.sampled_from(keys))
        Q_ = draw(st.sampled_from(keys))
        if sum(P) + sum(Q_) <= D:
            coeffs[(P, Q_)] = draw(small_q)
    return Jet(n, coeffs, D)


@settings(max_examples=60, derandomize=True)
@given(jets(), jets(), jets())
def test_ring_axioms(a, b, c):
    D = min(a.valid_degree, b.valid_degree, c.valid_degree)
    assert ref_truncated((a * b) * c, D) == ref_truncated(a * (b * c), D)
    assert ref_truncated(a * (b + c), D) == ref_truncated(a * b + a * c, D)
    assert a * b == b * a


@settings(max_examples=60, derandomize=True)
@given(jets(max_degree=5), st.integers(0, 1), st.integers(0, 1))
def test_derivative_commutation(j, i, k):
    assert j.dz(i).dzbar(k) == j.dzbar(k).dz(i)


@settings(max_examples=40, derandomize=True)
@given(jets())
def test_reciprocal_round_trip(j):
    one = Jet.constant(j.n, 1, j.valid_degree)
    shifted = j + one - Jet.constant(j.n, j.eval0(), j.valid_degree)
    assert (shifted * reciprocal(shifted) - 1).is_zero()
    assert reciprocal(shifted) == JetMatrix([[shifted]]).inverse()[0][0]


@settings(max_examples=40, derandomize=True)
@given(jets(max_degree=3), jets(max_degree=3))
def test_product_truncation_stability(a, b):
    # recompute the product with deeper operands: low-degree terms must agree
    D = min(a.valid_degree, b.valid_degree)
    a2 = Jet(a.n, a.coeffs, a.valid_degree + 2)
    b2 = Jet(b.n, b.coeffs, b.valid_degree + 2)
    assert ref_truncated(a2 * b2, D) == a * b


@st.composite
def log_arguments(draw):
    """Jets with zero constant term, n <= 3 and valid_degree <= 7, including
    degree-1 terms and terms that are not Hermitian (P != Q, no conjugate)."""
    n = draw(st.integers(min_value=1, max_value=3))
    D = draw(st.integers(min_value=0, max_value=7))
    keys = [
        (P, Q_)
        for P in multiindices_upto(n, min(D, 4))
        for Q_ in multiindices_upto(n, min(D, 4))
        if 1 <= sum(P) + sum(Q_) <= D
    ]
    coeffs = {}
    if keys:
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            coeffs[draw(st.sampled_from(keys))] = draw(small_q)
    return Jet(n, coeffs, D)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(log_arguments())
def test_log1p_matches_power_series(s):
    assert log1p(s) == series_log1p(s)


@st.composite
def reference_operands(draw):
    """Two jets in n <= 3 variables and a variable index.  Their validities
    differ and cross slot widths (1 bit at D = 1, 2 at 2..3, 3 at 4..7, 4 at
    8..9), and each may be truncated from a deeper jet, which keeps the
    wider packing of its source, so operations have to repack."""
    n = draw(st.integers(min_value=1, max_value=3))

    def jet():
        D = draw(st.integers(min_value=0, max_value=9 if n == 1 else 6))
        top = draw(st.integers(min_value=D, max_value=D + 5))
        keys = [
            (P, Q_)
            for P in multiindices_upto(n, min(top, 4))
            for Q_ in multiindices_upto(n, min(top, 4))
            if sum(P) + sum(Q_) <= top
        ]
        coeffs = {}
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            coeffs[draw(st.sampled_from(keys))] = draw(small_q)
        deep = Jet(n, coeffs, top)
        return Jet._of(n, deep.pk, deep.den, deep.parts[: D + 1])

    return jet(), jet(), draw(st.integers(min_value=0, max_value=n - 1))


def assert_same(jet, reference):
    assert_integer_form(jet)
    assert jet.valid_degree == reference.valid_degree
    assert jet.coeffs == reference.coeffs
    assert jet == reference and reference == jet


@settings(max_examples=150, deadline=None, derandomize=True)
@given(reference_operands())
def test_packed_operations_match_the_tuple_reference(case):
    a, b, i = case
    assert_same(a + b, ref_add(a, b))
    assert_same(a * b, ref_mul(a, b))
    assert_same(a.conj(), ref_conj(a))
    D = min(a.valid_degree, b.valid_degree)
    if a.valid_degree:
        assert_same(a.dz(i), ref_dz(a, i))
        assert_same(a.dzbar(i), ref_dzbar(a, i))
    s = a - a.eval0()
    if s.valid_degree <= 6:
        assert_same(log1p(s), series_log1p(s))


@st.composite
def packed_operands(draw):
    """A slot bound and three exponent pairs within it, for n <= 4."""
    n = draw(st.integers(min_value=1, max_value=4))
    top = draw(st.integers(min_value=0, max_value=17))
    exps = st.lists(st.integers(0, top), min_size=n, max_size=n).map(tuple)
    return n, top, [(draw(exps), draw(exps)) for _ in range(3)]


@settings(max_examples=80, derandomize=True)
@given(packed_operands())
def test_packing_round_trip(case):
    n, top, pairs = case
    pk = packing(n, top)
    assert packing(n, top) is pk  # one shared packing per (n, width)
    # the least width that holds top
    assert 2 ** pk.bits > top and (top == 0 or 2 ** (pk.bits - 1) <= top)
    for P, Q_ in pairs:
        assert pk.unpack(pk.pack(P, Q_)) == (P, Q_)
    (P, Q_), (U, V), _ = pairs
    S = tuple(map(min, zip(P, U)))
    T = tuple(map(min, zip(Q_, V)))
    if all(a + b <= top for a, b in zip(S + T, P + Q_)):
        assert pk.pack(P, Q_) + pk.pack(S, T) == pk.pack(
            tuple(a + b for a, b in zip(P, S)), tuple(a + b for a, b in zip(Q_, T))
        )
    if sum(P) + sum(Q_) <= 6:
        assert sorted(pk.divisors(pk.pack(P, Q_))) == sorted(
            pk.pack(A, B) for A, B in divisor_pairs(P, Q_)
        )


@st.composite
def repack_cases(draw):
    """A jet of n <= 4 variables on the packing of a validity top >= D, cut
    at D, its terms drawn with every slot up to D, and a target validity
    from 0 to 40 that holds the cut: wider slots than the source's, or
    narrower ones."""
    n = draw(st.integers(min_value=1, max_value=4))
    D = draw(st.integers(min_value=0, max_value=12))
    top = draw(st.integers(min_value=D, max_value=40))
    exps = st.lists(st.integers(0, D), min_size=2 * n, max_size=2 * n)
    coeffs = {}
    for e in draw(st.lists(exps, max_size=12)):
        if sum(e) <= D:
            coeffs[tuple(e[:n]), tuple(e[n:])] = draw(small_q)
    deep = Jet(n, coeffs, top)
    cut = draw(st.integers(min_value=0, max_value=D))
    to = draw(st.integers(min_value=cut, max_value=40))
    return Jet._of(n, deep.pk, deep.den, deep.parts[: D + 1]), cut, packing(n, to)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(repack_cases())
def test_repack_moves_each_slot_as_unpack_and_pack_do(case):
    jet, cut, pk = case
    expected = [{pk.pack(*jet.pk.unpack(K)): c for K, c in part.items()}
                for part in jet.parts[: cut + 1]]
    assert jet._parts_on(pk, cut) == expected


def test_rationals_are_stdlib_fractions():
    assert rationals.Q is Fraction


@pytest.mark.parametrize(
    "make",
    [
        lambda: rationals.as_q(0.5),
        lambda: Jet.constant(1, 0.5, 2),
        lambda: Jet.monomial(1, (1,), (1,), 0.5, 2),
        lambda: profile_from_coeffs([0, 1.0]),
    ],
)
def test_floats_are_refused_with_a_type_error(make):
    with pytest.raises(TypeError, match="only exact rationals are accepted, got float"):
        make()
