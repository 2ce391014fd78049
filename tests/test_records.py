"""Value semantics of the package's plain value classes (rationals.Record).

Each class is compared with a frozen dataclass twin of the same fields (an
eq=False twin for the identity-equal MetricJet and CatalogSpace): equality,
hash and repr must agree with what the twin gives on the same values.
"""

from dataclasses import field, make_dataclass

import pytest

from kahlerlap import catalog, dsl, fit, metric
from kahlerlap.catalog import CatalogError, CatalogSpace, FrameDirection, SpaceDescriptor
from kahlerlap.dsl import Add, Conj, Coord, Det, Lit, Log, ModSq, Mul, Radial, Sub
from kahlerlap.fit import FitResult, LaplacePolynomial, ViolationWitness
from kahlerlap.metric import EinsteinReport, MetricJet
from kahlerlap.rationals import Q, Record

VALUE_CLASSES = [
    Lit, Coord, Conj, ModSq, Log, Add, Sub, Mul, Det, Radial,
    LaplacePolynomial, ViolationWitness, FitResult, EinsteinReport,
    SpaceDescriptor, FrameDirection, catalog.TestFunctionPair, catalog.ObstructionReport,
]


def fields(cls):
    return [name for name in cls.__slots__ if name != "__dict__"]


def twin(cls):
    """The dataclass with cls's name and fields: frozen, or eq=False."""
    eq = cls.__eq__ is not object.__eq__
    specs = [(name, object, field(repr=name[0] != "_")) for name in fields(cls)]
    return make_dataclass(cls.__name__, specs, frozen=eq, eq=eq)


def make(cls, values):
    """An instance of cls with these field values, built without its checks."""
    obj = object.__new__(cls)
    for name, value in zip(fields(cls), values):
        setattr(obj, name, value)
    return obj


def test_every_value_class_is_a_record_without_a_dict():
    assert set(VALUE_CLASSES) | {MetricJet, CatalogSpace} <= {
        c for mod in (catalog, dsl, fit, metric) for c in vars(mod).values()
        if isinstance(c, type) and issubclass(c, Record) and not c.__name__.startswith("_")
    }
    for cls in VALUE_CLASSES:
        assert not hasattr(make(cls, [0] * len(fields(cls))), "__dict__"), cls


@pytest.mark.parametrize(
    "cls", VALUE_CLASSES + [MetricJet, CatalogSpace], ids=lambda c: c.__name__
)
def test_equality_hash_and_repr_match_a_dataclass(cls):
    Twin = twin(cls)
    samples = [(1,), (Q(1),), (Q(1, 2),), ("a",), ((1, 2),), (None,), (Coord(1),)]
    width = len(fields(cls))
    rows = [s * width for s in samples]
    rows += [tuple(range(width)), tuple(range(1, width + 1))]
    for a in rows:
        ra, ta = make(cls, a), Twin(*a)
        assert repr(ra) == repr(ta)
        if cls in (MetricJet, CatalogSpace):
            assert ra == ra and ra != make(cls, a) and hash(ra) == object.__hash__(ra)
            continue
        assert hash(ra) == hash(ta)
        for b in rows:
            assert (ra == make(cls, b)) == (ta == Twin(*b))
            assert (ra != make(cls, b)) == (ta != Twin(*b))


def test_equality_is_by_type_and_fields():
    a, b = Coord(1), Lit(Q(1, 2))
    assert Add(a, b) == Add(a, b) and hash(Add(a, b)) == hash(Add(a, b))
    assert Add(a, b) != Add(b, a)
    assert Lit(Q(1)) != Coord(1)
    assert Add(a, b) != Sub(a, b) != Mul(a, b)
    assert Conj(a) != ModSq(a) != Log(a)
    assert Lit(Q(1)).__eq__(Coord(1)) is NotImplemented
    assert Lit(Q(1)).__eq__((Q(1),)) is NotImplemented
    assert Lit(Q(1)) == Lit(1)  # the fields compare as values
    assert len({Add(a, b), Add(a, b), Sub(a, b)}) == 2


def test_metric_and_catalog_space_equal_only_themselves():
    desc = catalog.parse_space("cp:n=1")
    s1, s2 = catalog.build_space(desc, 4), catalog.build_space(desc, 4)
    assert s1 == s1 and s1 != s2 and s1.descriptor == s2.descriptor
    assert s1.metric == s1.metric and s1.metric != s2.metric
    assert len({s1, s2, s1}) == 2 and len({s1.metric, s2.metric, s1.metric}) == 2
    assert hash(s1) == object.__hash__(s1)


def test_positional_and_keyword_construction_with_defaults():
    params = (("n", 2),)
    d = SpaceDescriptor("cp", params)
    assert d == SpaceDescriptor(family="cp", params=params) == SpaceDescriptor("cp", params, ())
    assert d.inner == () and SpaceDescriptor("product").params == ()
    p = LaplacePolynomial(2, (Q(2), Q(1)))
    assert p == LaplacePolynomial(k=2, coeffs=(Q(2), Q(1)))
    w = ViolationWitness((1,), (0,), "off_diagonal_nonzero", Q(1), Q(0))
    assert w == ViolationWitness(
        P=(1,), Q=(0,), kind="off_diagonal_nonzero", lhs=Q(1), expected=Q(0)
    )
    assert w == ViolationWitness((1,), (0,), "off_diagonal_nonzero", expected=Q(0), lhs=Q(1))
    assert FitResult(2, p).witness is None and FitResult(2, polynomial=p) == FitResult(2, p)
    assert FitResult(3, witness=w).polynomial is None and not FitResult(3, None, w).fitted
    assert FrameDirection(((0, 1),), Q(1)) == FrameDirection(form=((0, 1),), nu=Q(1))
    assert EinsteinReport(lam=None, residual=Q(1)) == EinsteinReport(None, Q(1))
    assert Add(left=Coord(1), right=Lit(Q(2))) == Add(Coord(1), Lit(Q(2)))
    assert Conj(arg=Coord(1)) == Conj(Coord(1))
    assert Det(rows=((Coord(1),),)) == Det(((Coord(1),),))

    m = catalog.build_space(catalog.parse_space("cp:n=1"), 4).metric
    args = (m.n, m.potential, m.valid_degree, m.origin_diag, m.cubic_free, m.g_inv,
            m._pullback, {0: {0: 1}})
    fresh = MetricJet(*args)
    assert fresh._einstein is None and fresh.potential is m.potential
    report = EinsteinReport(Q(2), Q(0))
    assert MetricJet(*args, _einstein=report)._einstein is report
    assert MetricJet(*args, report)._einstein is report


def test_generic_constructor_refuses_a_field_given_twice_or_unknown():
    with pytest.raises(TypeError):
        FrameDirection(((0, 1),), Q(1), form=((0, 1),))
    with pytest.raises(TypeError):
        FrameDirection(((0, 1),), mu=Q(1))
    with pytest.raises(TypeError):
        FrameDirection(((0, 1),))
    with pytest.raises(TypeError):
        FrameDirection(((0, 1),), Q(1), Q(2))


def test_validation_errors_are_unchanged():
    with pytest.raises(ValueError, match="^exactly one of polynomial/witness must be set$"):
        FitResult(k=1)
    p = LaplacePolynomial(1, (Q(1),))
    w = ViolationWitness((1,), (0,), "non_monic", Q(1), Q(0))
    with pytest.raises(ValueError, match="^exactly one of polynomial/witness must be set$"):
        FitResult(1, p, w)
    with pytest.raises(ValueError, match="^polynomial must be monic$"):
        LaplacePolynomial(2, (Q(1), Q(2)))
    with pytest.raises(ValueError, match="^need coefficients a_1..a_k$"):
        LaplacePolynomial(2, (Q(1),))
    with pytest.raises(ValueError, match="^need coefficients a_1..a_k$"):
        LaplacePolynomial(0, ())
    with pytest.raises(CatalogError, match="^cp parameters must be positive integers$"):
        SpaceDescriptor("cp", (("n", 0),))
    with pytest.raises(CatalogError, match="^unknown family 'nope'$"):
        SpaceDescriptor("nope")
    with pytest.raises(CatalogError, match=r"^cp parameter 'n' is repeated$"):
        SpaceDescriptor("cp", (("n", 1), ("n", 2)))
    with pytest.raises(CatalogError, match=r"^grassmannian needs 1<=k<N$"):
        SpaceDescriptor("grassmannian", (("k", 2), ("N", 2)))


def test_repr_names_the_class_and_its_fields():
    assert repr(Add(Coord(1), Lit(Q(1, 2)))) == (
        "Add(left=Coord(index=1), right=Lit(value=Fraction(1, 2)))"
    )
    assert repr(SpaceDescriptor("cp", (("n", 1),))) == (
        "SpaceDescriptor(family='cp', params=(('n', 1),), inner=())"
    )
    assert repr(FitResult(1, LaplacePolynomial(1, (Q(1),)))) == (
        "FitResult(k=1, polynomial=LaplacePolynomial(k=1, coeffs=(Fraction(1, 1),)), "
        "witness=None)"
    )
    space = catalog.build_space(catalog.parse_space("cp:n=1"), 4)
    assert repr(space.metric) == (  # deterministic: no object address in it
        "MetricJet(n=1, potential=Jet(1*z1*zb1 + -1/2*z1^2*zb1^2; D=4), valid_degree=4, "
        "origin_diag=(Fraction(1, 1),), cubic_free=True, "
        "g_inv=JetMatrix(((Jet(1 + 2*z1*zb1; D=2),),)))"
    )
    assert repr(space).startswith("CatalogSpace(descriptor=SpaceDescriptor(family='cp', ")
