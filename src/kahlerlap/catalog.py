"""Catalog of concrete spaces as potential jets.

The radial families flat, cp and ch are built by substituting their profile
series in t = |z|^2 (radial.named_profile).  Every other classical family is
a surface expression (dsl_text) that dsl.elaborate turns into its jet, the
same path a .pot file takes; product and dual are built from their factors.

Families and their potentials in construction coordinates:

  flat:n            sum |z_i|^2
  cp:n              log(1 + sum |z_i|^2)
  ch:n              -log(1 - sum |z_i|^2)
  grassmannian:k,N  log det(I_k + W^dagger W), W a complex (N-k) x k matrix,
                    entries flattened row-major
  so2n:N            (1/2) log det(I_N + W^dagger W), W skew-symmetric N x N;
                    free coordinates are the strictly upper entries w_ij
                    (i < j), with w_ji = -w_ij substituted.  det(I + W^dagger W)
                    is a perfect square for skew W; the half normalizes the
                    embedded projective lines to the unit Fubini-Study metric,
                    which the plain log det would double-count.
  sp:N              log det(I_N + W^dagger W), W symmetric N x N; free
                    coordinates are the upper entries w_ij (i <= j), row-major
  quadric-even:N    log(1 + sum |v_j|^2 + sum |v'_j|^2 + 4 |sum v_j v'_j|^2),
                    j = 2..N, N >= 4; coordinates (v_2..v_N, v'_2..v'_N)
  quadric-odd:N     as above with an extra coordinate u: ... + |u|^2
                    + 4 |sum v_j v'_j - u^2/2|^2, N >= 4.  The u^2/2 is forced
                    by the Einstein condition at the origin: the quartic term
                    contributes a^2 - 4 b^2 anisotropy between the v and u
                    directions for |a sum v v' + b u^2|, so b = a/2.
  product(a;b;...)  sum of the factor potentials on disjoint variables
  dual(space)       coefficientwise c_{P,Q} -> -(-1)^{|Q|} c_{P,Q}

Constrained matrix coordinates (sp, so2n) repeat a free variable in two
matrix slots, which makes g(0) a non-unit diagonal; that is recorded in
origin_diag and consumed by value-level rescaling, never absorbed by an
irrational change of coordinates.

Each rank-r family carries r embedded projective-line directions: unit
frame vectors along which the restriction of the metric is a Fubini-Study
line.  They are stored as integer linear forms u with a rational squared
norm nu (so only |u|^2 enters test functions and everything stays rational).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import dsl
from .jets import Jet, substitute_radial
from .metric import MetricJet, einstein_constant, metric_from_potential
from .metric import _table_value, metric_with_inverse
from .radial import inverse_metric, named_profile
from .rationals import Q, ZERO


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class SpaceDescriptor:
    """A catalog family with parameters; product/dual nest descriptors."""

    family: str
    params: tuple = ()
    inner: tuple = ()

    def __post_init__(self):
        info = _FAMILIES.get(self.family)
        if info is None:
            raise CatalogError(f"unknown family {self.family!r}")
        info["validate"](self)

    @property
    def complex_dim(self):
        return _FAMILIES[self.family]["dim"][1](self)

    @property
    def rank(self):
        return _FAMILIES[self.family]["rank"][1](self)

    def param(self, name):
        return dict(self.params)[name]

    def label(self):
        if self.family == "product":
            return "product(" + ";".join(d.label() for d in self.inner) + ")"
        if self.family == "dual":
            return f"dual({self.inner[0].label()})"
        if not self.params:
            return self.family
        return self.family + ":" + ",".join(f"{k}={v}" for k, v in self.params)


def _need(desc, names):
    keys = [key for key, _ in desc.params]
    for key in keys:
        if keys.count(key) > 1:
            raise CatalogError(f"{desc.family} parameter {key!r} is repeated")
    have = dict(desc.params)
    if sorted(have) != sorted(names):
        raise CatalogError(
            f"{desc.family} needs parameters {names}, got {sorted(have)}"
        )
    for v in have.values():
        if not isinstance(v, int) or v < 1:
            raise CatalogError(f"{desc.family} parameters must be positive integers")


_FAMILIES = {}


def _register(name, validate, params=None, dim=None, rank=None):
    """A family: its validator, and for the listing its parameter range,
    with dim and rank each as (text, function of the descriptor)."""
    _FAMILIES[name] = {"validate": validate, "params": params, "dim": dim, "rank": rank}


def _val_grass(d):
    _need(d, ["k", "N"])
    if not 1 <= d.param("k") < d.param("N"):
        raise CatalogError("grassmannian needs 1 <= k < N")


def _val_so2n(d):
    _need(d, ["N"])
    if d.param("N") < 2:
        raise CatalogError("so2n needs N >= 2")


def _val_quadric(d):
    _need(d, ["N"])
    if d.param("N") < 4:
        raise CatalogError("quadrics need N >= 4")


# flat has no embedded projective line, so the rank-based obstruction
# never applies to it
for _name in ("flat", "cp", "ch"):
    _register(
        _name, lambda d: _need(d, ["n"]), "n>=1",
        ("n", lambda d: d.param("n")), ("1", lambda d: 1),
    )
_register(
    "grassmannian", _val_grass, "1<=k<N",
    ("k(N-k)", lambda d: d.param("k") * (d.param("N") - d.param("k"))),
    ("min(k,N-k)", lambda d: min(d.param("k"), d.param("N") - d.param("k"))),
)
_register(
    "so2n", _val_so2n, "N>=2",
    ("N(N-1)/2", lambda d: d.param("N") * (d.param("N") - 1) // 2),
    ("floor(N/2)", lambda d: d.param("N") // 2),
)
_register(
    "sp", lambda d: _need(d, ["N"]), "N>=1",
    ("N(N+1)/2", lambda d: d.param("N") * (d.param("N") + 1) // 2),
    ("N", lambda d: d.param("N")),
)
_register(
    "quadric-even", _val_quadric, "N>=4",
    ("2N-2", lambda d: 2 * d.param("N") - 2), ("2", lambda d: 2),
)
_register(
    "quadric-odd", _val_quadric, "N>=4",
    ("2N-1", lambda d: 2 * d.param("N") - 1), ("2", lambda d: 2),
)
_register(
    "product", lambda d: None,
    dim=(None, lambda d: sum(f.complex_dim for f in d.inner)),
    rank=(None, lambda d: sum(f.rank for f in d.inner)),
)
_register(
    "dual", lambda d: None,
    dim=(None, lambda d: d.inner[0].complex_dim),
    rank=(None, lambda d: d.inner[0].rank),
)


def product(*factors):
    if len(factors) < 2:
        raise CatalogError("product needs at least two factors")
    return SpaceDescriptor("product", (), tuple(factors))


def dual(inner):
    return SpaceDescriptor("dual", (), (inner,))


_NAME_RE = re.compile(r"^[a-z0-9-]+$")


def parse_space(text) -> SpaceDescriptor:
    """Parse labels like grassmannian:k=2,N=4, dual(cp:n=1), product(a;b)."""
    text = text.strip()
    if text.startswith("dual(") and text.endswith(")"):
        return dual(parse_space(text[5:-1]))
    if text.startswith("product(") and text.endswith(")"):
        inner = _split_top(text[8:-1], ";")
        return product(*(parse_space(part) for part in inner))
    name, _, rest = text.partition(":")
    if not _NAME_RE.match(name) or name not in _FAMILIES or name in ("product", "dual"):
        raise CatalogError(f"unknown space {text!r}")
    params = []
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq or not val.lstrip("-").isdigit():
                raise CatalogError(f"bad parameter {item!r} in {text!r}")
            params.append((key.strip(), int(val)))
    return SpaceDescriptor(name, tuple(params))


def _split_top(text, sep):
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


@dataclass(frozen=True)
class FrameDirection:
    """Integer linear form u = sum coeff * z_var with squared norm nu."""

    form: tuple  # ((var, coeff), ...)
    nu: object
    note: str


@dataclass(frozen=True)
class TestFunctionPair:
    """Degree-4 test polynomials along the first two embedded directions."""

    f1: Jet
    f2: Jet
    frame_note: str


@dataclass(eq=False)
class CatalogSpace:
    descriptor: SpaceDescriptor
    metric: MetricJet
    frame: tuple  # FrameDirection per embedded projective line
    truncation: int


def _upper_index(N, strict):
    """Row-major free-coordinate index of each upper slot (i, j) of an N x N
    matrix: i <= j for sp (symmetric W), i < j for so2n (skew W)."""
    slots = [(i, j) for i in range(N) for j in range(i + strict, N)]
    return {ij: count for count, ij in enumerate(slots)}


_RADIAL_PROFILES = {"flat": "flat", "cp": "fubini-study", "ch": "hyperbolic"}


def potential_jet(desc: SpaceDescriptor, D) -> Jet:
    """The potential of the space, truncated at total degree D."""
    fam = desc.family
    if fam in _RADIAL_PROFILES:
        profile = named_profile(_RADIAL_PROFILES[fam], max(1, (D + 1) // 2))
        return substitute_radial(profile.series, desc.param("n"), D)
    if fam == "product":
        jets = [potential_jet(f, D) for f in desc.inner]
        n = sum(j.n for j in jets)
        coeffs = {}
        offset = 0
        for jet in jets:
            for (P, Q_), c in jet.coeffs.items():
                P2 = (0,) * offset + P + (0,) * (n - offset - jet.n)
                Q2 = (0,) * offset + Q_ + (0,) * (n - offset - jet.n)
                coeffs[(P2, Q2)] = coeffs.get((P2, Q2), ZERO) + c
            offset += jet.n
        return Jet(n, coeffs, min(j.valid_degree for j in jets))
    if fam == "dual":
        return dual_potential(potential_jet(desc.inner[0], D))
    return dsl.elaborate(dsl.parse(dsl_text(desc)), desc.complex_dim, D)


def dual_potential(phi: Jet) -> Jet:
    """Compact/noncompact duality on potentials: c_{P,Q} -> -(-1)^{|Q|} c_{P,Q}."""
    return Jet(
        phi.n,
        {
            (P, Q_): (c if sum(Q_) % 2 else -c)
            for (P, Q_), c in phi.coeffs.items()
        },
        phi.valid_degree,
    )


def _frame(desc: SpaceDescriptor):
    fam = desc.family
    if fam == "flat":
        return ()
    if fam in ("cp", "ch"):
        return (FrameDirection(((0, 1),), Q(1), "z1 axis"),)
    if fam == "grassmannian":
        k, N = desc.param("k"), desc.param("N")
        m = min(k, N - k)
        return tuple(
            FrameDirection(((i * k + i, 1),), Q(1), f"w{i + 1}{i + 1} axis")
            for i in range(m)
        )
    if fam == "sp":
        N = desc.param("N")
        idx = _upper_index(N, strict=False)
        return tuple(
            FrameDirection(((idx[(i, i)], 1),), Q(1), f"w{i + 1}{i + 1} axis")
            for i in range(N)
        )
    if fam == "so2n":
        N = desc.param("N")
        idx = _upper_index(N, strict=True)
        return tuple(
            FrameDirection(
                ((idx[(2 * m, 2 * m + 1)], 1),),
                Q(1),
                f"w{2 * m + 1}{2 * m + 2} axis",
            )
            for m in range(N // 2)
        )
    if fam in ("quadric-even", "quadric-odd"):
        N = desc.param("N")
        nv = N - 1
        # paired directions (v_2 + v'_3)/sqrt(2) and (v_3 + v'_4)/sqrt(2)
        return (
            FrameDirection(((0, 1), (nv + 1, 1)), Q(2), "(v2 + v'3)/sqrt2"),
            FrameDirection(((1, 1), (nv + 2, 1)), Q(2), "(v3 + v'4)/sqrt2"),
        )
    if fam == "product":
        out = []
        offset = 0
        for f in desc.inner:
            for fd in _frame(f):
                out.append(
                    FrameDirection(
                        tuple((offset + var, c) for var, c in fd.form),
                        fd.nu,
                        f"{fd.note} of {f.label()}",
                    )
                )
            offset += f.complex_dim
        return tuple(out)
    if fam == "dual":
        return _frame(desc.inner[0])
    raise CatalogError(f"unknown family {fam!r}")


def build_space(desc: SpaceDescriptor, D=6) -> CatalogSpace:
    """Construct the metric jet and embedding metadata at truncation D."""
    if D < 2:
        raise CatalogError("truncation must be >= 2")
    phi = potential_jet(desc, D)
    name = _RADIAL_PROFILES.get(desc.family)
    if name is None:
        metric = metric_from_potential(phi)
    else:
        # g_inv in closed form; psi_functions needs the profile to t^2 at D = 2
        profile = named_profile(name, max(2, (D + 1) // 2))
        metric = metric_with_inverse(phi, lambda: inverse_metric(profile, phi))
    return CatalogSpace(
        descriptor=desc, metric=metric, frame=_frame(desc), truncation=D
    )


def _modsq_of_form(form, n, D) -> Jet:
    u = Jet.zero(n, D)
    for var, c in form:
        u = u + Jet.variable(n, var, D).scale(c)
    return u * u.conj()


def embedded_test_polys(space: CatalogSpace) -> TestFunctionPair:
    """Pullbacks of |z1|^4 and |z1 z2|^2 under the embedded-line frame."""
    if len(space.frame) < 2:
        raise CatalogError(
            f"{space.descriptor.label()} has rank < 2: no embedded "
            "projective-plane test functions"
        )
    n = space.metric.n
    D = space.truncation
    u1, u2 = space.frame[0], space.frame[1]
    m1 = _modsq_of_form(u1.form, n, D)
    m2 = _modsq_of_form(u2.form, n, D)
    f1 = (m1 * m1) / (u1.nu * u1.nu)
    f2 = (m1 * m2) / (u1.nu * u2.nu)
    return TestFunctionPair(
        f1=f1, f2=f2, frame_note=f"{u1.note}; {u2.note}"
    )


def _frame_mu(space: CatalogSpace, fd: FrameDirection):
    """mu = u^dagger g(0) u / nu: the origin metric norm of the unit frame vector."""
    d = space.metric.origin_diag
    acc = ZERO
    for var, c in fd.form:
        acc += Q(c * c) * d[var]
    return acc / fd.nu


@dataclass(frozen=True)
class ObstructionReport:
    """Order-3 values along the embedded lines, rescaled to unit gauge.

    For an Einstein metric the identity val1 = 2 val2 is necessary for the
    order-3 polynomial identity; val1 - 2 val2 != 0 certifies failure.  The
    expected values for the embedded-line frame are (12 lam + 16, 6 lam).
    """

    lam: object
    mu: tuple
    val1: object
    val2: object
    delta_requirement: object
    val1_expected: object
    val2_expected: object


def obstruction_report(space: CatalogSpace) -> ObstructionReport:
    rep = einstein_constant(space.metric)
    if rep.lam is None:
        raise CatalogError(
            f"{space.descriptor.label()} is not Einstein at the origin "
            f"(residual {rep.residual})"
        )
    pair = embedded_test_polys(space)
    mu1 = _frame_mu(space, space.frame[0])
    mu2 = _frame_mu(space, space.frame[1])
    from .metric import delta_power_at0

    val1 = delta_power_at0(space.metric, pair.f1, 3) * mu1 * mu1
    val2 = delta_power_at0(space.metric, pair.f2, 3) * mu1 * mu2
    return ObstructionReport(
        lam=rep.lam,
        mu=(mu1, mu2),
        val1=val1,
        val2=val2,
        delta_requirement=val1 - 2 * val2,
        val1_expected=12 * rep.lam + 16,
        val2_expected=6 * rep.lam,
    )


def dual_compare(desc: SpaceDescriptor, D=6):
    """Rows (P, compact value, noncompact value) of lap^3(z^P zb^P)(0) for
    f = |z_i z_j|^2, on the space and on its noncompact dual."""
    space = build_space(desc, D)
    m_compact = space.metric
    m_dual = metric_from_potential(dual_potential(m_compact.potential))
    for m in (m_compact, m_dual):
        rep = einstein_constant(m)
        if rep.lam is None:
            raise CatalogError(
                f"duality table needs Einstein metrics; residual {rep.residual}"
            )
    n = m_compact.n
    monomials = []
    for i in range(n):
        for j in range(i, n):
            P = tuple(
                (2 if a == i else 0) if i == j else (1 if a in (i, j) else 0)
                for a in range(n)
            )
            monomials.append(P)
    return [
        (P, _table_value(m_compact, 3, P, P), _table_value(m_dual, 3, P, P))
        for P in monomials
    ]


def all_family_names():
    return [f for f in _FAMILIES if f not in ("product", "dual")]


def family_summary(name):
    """Parameter range, dimension and rank texts of a family, for the listing."""
    info = _FAMILIES[name]
    return info["params"], info["dim"][0], info["rank"][0]


def dsl_text(desc: SpaceDescriptor) -> str:
    """The potential of a non-radial classical family in the surface language."""
    fam = desc.family
    if fam in ("grassmannian", "sp", "so2n"):
        if fam == "grassmannian":
            k, N = desc.param("k"), desc.param("N")
            rows, cols = N - k, k
            term = lambda r, c: f"z({r * cols + c + 1})"
        elif fam == "sp":
            N = desc.param("N")
            rows = cols = N
            idx = _upper_index(N, strict=False)
            term = lambda r, c: f"z({idx[(min(r, c), max(r, c))] + 1})"
        else:
            N = desc.param("N")
            rows = cols = N
            idx = _upper_index(N, strict=True)

            def term(r, c):
                if r == c:
                    return None
                if r < c:
                    return f"z({idx[(r, c)] + 1})"
                return f"(0 - z({idx[(c, r)] + 1}))"

        entries = []
        for a in range(cols):
            row_terms = []
            for b in range(cols):
                prods = []
                for r in range(rows):
                    ta, tb = term(r, a), term(r, b)
                    if ta is None or tb is None:
                        continue
                    prods.append(f"conj({ta})*{tb}")
                base = " + ".join(prods) if prods else "0"
                if a == b:
                    base = "1 + " + base
                row_terms.append(base)
            entries.append(", ".join(row_terms))
        text = "log(det([" + "; ".join(entries) + "]))"
        return "1/2 * " + text if fam == "so2n" else text
    if fam in ("quadric-even", "quadric-odd"):
        N = desc.param("N")
        nv = N - 1
        parts = [f"modsq(z({i + 1}))" for i in range(2 * nv)]
        cross = " + ".join(f"z({i + 1})*z({nv + i + 1})" for i in range(nv))
        if fam == "quadric-odd":
            u = 2 * nv
            parts.append(f"modsq(z({u + 1}))")
            cross = f"{cross} - 1/2*z({u + 1})*z({u + 1})"
        return (
            "log(1 + "
            + " + ".join(parts)
            + f" + 4*modsq({cross}))"
        )
    raise CatalogError(f"no closed surface form for family {fam!r}")
