"""The packed metric build and the packed integer lap^k pullback against
their tuple-key, rational forms.

metric_from_potential packs the potential and builds the integer parts of
Lp g without forming g.  Its g_inv is compared with the Neumann series of
tests/dense_oracles.py::metric_matrix, g built by differentiating the
potential entry by entry, on .pot potentials with g(0) != I and mixed
denominators, on one-variable potentials whose exponents fill a packed slot,
and on a potential with constant, linear and pluriharmonic terms; its
GaugeError messages are compared with the ones that g gives.
third_deriv_obstruction, read from the potential, is compared with the same
value read from that g.

metric._laplacian_functional computes on packed exponent keys
(jets._Packing) and integer numerators over Lg^k.  Its tables are compared
with tests/dense_oracles.py::fraction_laplacian_functional on fresh metrics
(no table cached beyond table 0), expanded from their orbit
representatives on the metrics that store one key per S_n-orbit
(tests/dense_oracles.py::expand_orbits), on every catalog label, on cp:n=10 at k=4,
on a .pot potential whose g_inv has non-unit denominators, so Lg > 1, on the
radial command's fubini-study metric (n = 3, degree 16) through k = 8, on a
Bochner-form .pot potential whose g_inv is not torus-invariant, where the
pullback index drops some entries found by their holomorphic half for their
antiholomorphic half, and at the largest k the metric's slots hold; one k
more raises ValidityError.  The inverse and log1p kernels are compared with
their oracles in test_graded_inverse.py and test_jets.py.
"""

import copy
from math import lcm

import pytest
from hypothesis import given, settings

from kahlerlap.dsl import elaborate, parse_potential_file
from kahlerlap.jets import Jet, ValidityError
from kahlerlap.metric import (
    GaugeError,
    _laplacian_functional,
    metric_from_potential,
    require_bochner_form,
    third_deriv_obstruction,
)
from kahlerlap.radial import named_profile, potential_jet
from kahlerlap.rationals import Q

from dense_oracles import (
    expand_orbits,
    fraction_laplacian_functional,
    metric_matrix,
    neumann_inverse,
    third_deriv_obstruction_from_g,
)
from test_acceptance import ALL_LABELS
from test_support_walks import diagonal_gauge_potentials

LABELS = ALL_LABELS + ["product(cp:n=1;cp:n=1)", "dual(grassmannian:k=2,N=4)"]
POT_WITH_DENOMINATORS = """dim 2
2*modsq(z(1)) + 3*modsq(z(2)) + 1/2*modsq(z(1))*modsq(z(2))
  + log(1 + 1/3*modsq(z(1))*modsq(z(1) + z(2)))
"""


def fresh(m):
    """The same metric with no lap^k table cached beyond table 0."""
    c = copy.copy(m)
    c._functionals, c._einstein = {0: m._functionals[0]}, None
    return c


def table(m, k):
    """Table k as the library stores it, numerators N_k on packed keys,
    expanded from its orbit representatives when it holds one key per
    orbit (expand_orbits) and read back as (P, Q) -> N_k / Lg^k."""
    den = m._pullback[0] ** k
    unpack = m.potential.pk.unpack
    return {unpack(K): Q(c, den) for K, c in expand_orbits(m, k).items()}


def assert_tables_match(m, ks):
    m = fresh(m)
    for k in ks:
        assert table(m, k) == fraction_laplacian_functional(m, k)


def pot_metric(text, degree):
    n, node = parse_potential_file(text)
    return metric_from_potential(elaborate(node, n, degree))


def filtered_pairs(m, k):
    """How many (key of table k - 1, g_inv monomial) pairs have the monomial's
    holomorphic half dividing the key's and its antiholomorphic half not: the
    index entries the pullback finds by U and then drops by V."""
    monomials = {key for row in m.g_inv.entries for e in row for key in e.coeffs}
    return sum(
        all(map(int.__le__, U, A)) and not all(map(int.__le__, V, B))
        for A, B in table(fresh(m), k - 1)
        for U, V in monomials
    )


# the radial command's metric for --name fubini-study --n 3 --kmax 8
RADIAL_FS = metric_from_potential(
    potential_jet(named_profile("fubini-study", 10), 3, 16)
)
# Bochner form, and g_inv not torus-invariant: z1^2 zb2^2 and its relatives
POT_NOT_TORUS_INVARIANT = """dim 2
modsq(z(1)) + modsq(z(2)) + 1/2*modsq(z(1)*z(1) + z(2)*z(2)) + 1/3*modsq(z(1)*z(2))
  + log(1 + 1/4*modsq(z(1)*z(1) + 2*z(1)*z(2)))
"""


def test_radial_command_metric_matches_fraction_pullback():
    assert_tables_match(RADIAL_FS, range(1, 9))
    assert filtered_pairs(RADIAL_FS, 8) > 0


def test_not_torus_invariant_pot_matches_fraction_pullback():
    m = pot_metric(POT_NOT_TORUS_INVARIANT, 8)
    require_bochner_form(m.potential)
    # on a torus-invariant potential every monomial z^U zb^V of g_inv[i][j]
    # has U - V = e_j - e_i; this one has others
    assert any(
        [u - v for u, v in zip(U, V)] != [(s == j) - (s == i) for s in range(m.n)]
        for i, row in enumerate(m.g_inv.entries)
        for j, e in enumerate(row)
        for U, V in e.coeffs
    )
    assert filtered_pairs(m, 4) > 0
    assert_tables_match(m, range(1, 5))


@pytest.mark.parametrize("label", LABELS)
def test_catalog_tables_match_fraction_pullback(spaces, label):
    assert_tables_match(spaces(label, 8).metric, (1, 2, 3))


def test_cp10_k4_matches_fraction_pullback(spaces):
    assert_tables_match(spaces("cp:n=10", 8).metric, (4,))


@pytest.mark.parametrize("degree", [4, 8])
def test_k_up_to_the_slot_mask_and_no_further(spaces, degree):
    m = fresh(spaces("cp:n=1", degree).metric)
    top = m.potential.pk.mask
    # the slots are the potential's own, the narrowest that hold valid_degree
    assert top == 2 ** degree.bit_length() - 1
    assert table(m, top) == fraction_laplacian_functional(m, top)
    with pytest.raises(ValidityError):
        _laplacian_functional(m, top + 1)


def test_pot_with_denominators_matches_fraction_pullback():
    n, node = parse_potential_file(POT_WITH_DENOMINATORS)
    m = metric_from_potential(elaborate(node, n, 8))
    denominators = [
        c.denominator for row in m.g_inv.entries for e in row for c in e.coeffs.values()
    ]
    assert lcm(*denominators) > 1
    assert_tables_match(m, (1, 2, 3))


def assert_inverse_matches_neumann(m):
    assert m.g_inv == neumann_inverse(metric_matrix(m.potential))


SCALED_POTS = [
    POT_WITH_DENOMINATORS,
    """dim 3
2*modsq(z(1)) + 3/2*modsq(z(2)) + 5/7*modsq(z(3))
  + 1/6*modsq(z(1))*modsq(z(2)) + 4/9*modsq(z(1)*z(3) + 1/2*z(2)*z(2))
  + 2/5*z(1)*z(2)*conj(z(3)) + 2/5*z(3)*conj(z(1)*z(2))
  + log(1 + 3/4*modsq(z(1)*z(3) + 2/3*z(2)*z(2)) + 1/8*modsq(z(2))*modsq(z(3)))
""",
]


@pytest.mark.parametrize("text", SCALED_POTS)
def test_scaled_origin_and_mixed_denominators(text):
    m = pot_metric(text, 7)
    assert any(d != 1 for d in m.origin_diag)
    assert_inverse_matches_neumann(m)


def one_variable_pot(degree):
    """|z|^2 plus terms z^a zb^b with a + b = degree and a or b = 1, so an
    exponent reaches degree - 1, the most that can reach g, and the
    pluriharmonic z^degree and zb^degree, whose exponent is the potential's
    validity, the most its packing must hold."""
    top = "*".join(["z(1)"] * (degree - 1))
    return f"""dim 1
modsq(z(1)) + 1/3*{top}*conj(z(1)) + 2/5*z(1)*conj({top})
  + 1/4*{top}*z(1) + 1/6*conj({top}*z(1))
  + log(1 + 1/2*modsq(z(1)) + 1/7*z(1)*z(1)*conj(z(1)))
"""


@pytest.mark.parametrize("degree", [7, 8, 9])
def test_one_variable_exponents_at_the_top_of_a_slot(degree):
    # the potential's packing holds its validity: at degree 7 the pure
    # powers reach 7, the top of its 3-bit slots; at 8 and 9 g's own
    # exponents reach 7 and 8, either side of that width, on 4-bit slots
    m = pot_metric(one_variable_pot(degree), degree)
    assert m.potential.pk.mask == 2 ** degree.bit_length() - 1
    assert m.g_inv.valid_degree == degree - 2
    assert_inverse_matches_neumann(m)


def test_constant_linear_and_pluriharmonic_terms_do_not_reach_g():
    body = """modsq(z(1)) + 2*modsq(z(2)) + 1/3*modsq(z(1))*modsq(z(2))
  + log(1 + modsq(z(1)*z(2) + z(2)*z(2)))"""
    harmonic = """ + 5 + z(1) + conj(z(2)) + z(1)*z(1) + conj(z(1)*z(1))
  + 1/3*z(1)*z(2)*z(2)*z(2)*z(2)*z(2) + conj(z(2)*z(2)*z(2)*z(2)*z(2)*z(2))"""
    plain = pot_metric("dim 2\n" + body, 6)
    m = pot_metric("dim 2\n" + body + harmonic, 6)
    assert len(m.potential.coeffs) > len(plain.potential.coeffs)
    assert m.g_inv == plain.g_inv
    assert_inverse_matches_neumann(m)


def oracle_gauge_message(phi):
    """The GaugeError message that metric_matrix(phi)'s origin values give."""
    g = metric_matrix(phi)
    for i in range(phi.n):
        for j in range(phi.n):
            c = g[i][j].eval0()
            if i == j and c <= 0:
                return f"g({i},{i})(0) = {c} is not positive"
            if i != j and c != 0:
                return f"g(0) is not diagonal: entry ({i},{j}) = {c}"
    return None


E1, E2 = (1, 0), (0, 1)


@pytest.mark.parametrize(
    "coeffs",
    [
        {(E1, E1): Q(1), (E2, E2): Q(-1)},
        {(E1, E1): Q(1), (E2, E2): Q(-3, 2)},
        {(E1, E1): Q(2), (E1, E2): Q(3, 4), (E2, E1): Q(3, 4)},
        {(E1, E1): Q(1), ((2, 0), (1, 1)): Q(1)},
    ],
)
def test_gauge_errors_match_the_oracle(coeffs):
    phi = Jet(2, coeffs, 4)
    with pytest.raises(GaugeError) as exc:
        metric_from_potential(phi)
    assert str(exc.value) == oracle_gauge_message(phi)


@pytest.mark.parametrize("label", LABELS)
def test_third_deriv_obstruction_matches_g(spaces, label):
    m = spaces(label).metric
    assert third_deriv_obstruction(m) == third_deriv_obstruction_from_g(m)


def without_cubic_terms(phi):
    return Jet(
        phi.n,
        {key: c for key, c in phi.coeffs.items() if sum(key[0]) + sum(key[1]) != 3},
        phi.valid_degree,
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(diagonal_gauge_potentials().map(without_cubic_terms))
def test_random_third_deriv_obstruction_matches_g(phi):
    m = metric_from_potential(phi)
    assert third_deriv_obstruction(m) == third_deriv_obstruction_from_g(m)
