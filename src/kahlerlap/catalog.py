"""Catalog of concrete spaces as potential jets.

A classical family is one row of the table _FAMILIES, which labels are
validated against and the catalog command lists; product and dual have no
row, and their dimension and rank are sums over their factors.

Every Bergman family has one curvature sign s (_bergman): flat 0, cp 1,
ch -1, each matrix family 1, negated by each dual(...); in the Jordan-pair
picture (Loos 1977) s alone tells flat, cp, ch and the duals apart, and a
dual is built as its family at -s.  flat, cp and ch substitute
log(1 + s t)/s = sum (-s)^(m-1) t^m / m at t = |z|^2, the matrix families
are a trace series weighted by s (_trace_series), the quadrics log(1 + q)
with q on packed keys (_quadric), and product, and the dual of a product or
a quadric, are built from their factors; kahlerlap.dsl serves .pot files.

Every Bergman family, and its dual, is in Harish-Chandra coordinates, where
g_inv is the Bergman operator (bergman_inverse) of the matrix W that the
potential is written from (_matrix_slots), at the (family, s) that
build_space resolves once, multiplied out on its upper triangle (the
lower one is its conjugate), or in column 0 alone when every permutation
of the coordinates fixes the potential (the S_n verdict of
metric.metric_with_inverse, which the quartic part decides; it holds for
so2n:N=3 too, cp:n=3 in a skew chart).  The quadrics and
products take the graded inverse of g, as .pot files do.
With g_inv closed, the potential is read only to degree 5 (gauge, S_n
verdict, cubic_free, third_deriv_obstruction), so build_space builds it to
min(D, 5), straight onto the packing of D; potential_jet always builds to D.

Families and their potentials in construction coordinates:

  flat:n            sum |z_i|^2
  cp:n              log(1 + sum |z_i|^2)
  ch:n              -log(1 - sum |z_i|^2)
  grassmannian:k,N  log det(I_k + W^dagger W), W a complex (N-k) x k matrix,
                    entries flattened row-major
  so2n:N            (1/2) log det(I_N + W^dagger W), W skew-symmetric N x N;
                    free coordinates are the strictly upper entries w_ij
                    (i < j), with w_ji = -w_ij substituted
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
                    (dual_potential), which s -> -s gives a Bergman family

No det is taken.  With M = W^dagger W, whose entries are quadratic,
scale log det(I + M) = scale sum_{k>=1} (-1)^(k+1) tr(M^k) / k, and tr(M^k)
is the part of degree 2k: the series stops at k = floor(D/2), and the odd
parts are empty.  M is Hermitian, and it is the A - I of bergman_inverse
(_bergman_blocks): the potential and g_inv are read from one matrix, which
build_space builds once and hands to both, and W to the frame.

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

from itertools import accumulate
from math import lcm

from .jets import InputError, Jet, _conj_parts, _mul_into, log1p, packing, substitute_radial
from .metric import _table_value, delta_power_at0, einstein_constant, metric_from_potential
from .metric import metric_with_inverse
from .rationals import MAX_DIGITS, MAX_NESTING, Q, ZERO, Record


class CatalogError(InputError):
    pass


# One row per classical family (Loos 1977): its parameter names, then its
# range, dimension and rank, each as the listing's text and a function of
# the parameters.  flat has no embedded projective line, so the rank-based
# obstruction never applies to it.
_FAMILIES = {
    **{
        name: (("n",), ("n>=1", lambda n: n >= 1), ("n", lambda n: n), ("1", lambda n: 1))
        for name in ("flat", "cp", "ch")
    },
    "grassmannian": (
        ("k", "N"), ("1<=k<N", lambda k, N: 1 <= k < N),
        ("k(N-k)", lambda k, N: k * (N - k)), ("min(k,N-k)", lambda k, N: min(k, N - k)),
    ),
    "so2n": (
        ("N",), ("N>=2", lambda N: N >= 2),
        ("N(N-1)/2", lambda N: N * (N - 1) // 2), ("floor(N/2)", lambda N: N // 2),
    ),
    "sp": (
        ("N",), ("N>=1", lambda N: N >= 1),
        ("N(N+1)/2", lambda N: N * (N + 1) // 2), ("N", lambda N: N),
    ),
    "quadric-even": (
        ("N",), ("N>=4", lambda N: N >= 4), ("2N-2", lambda N: 2 * N - 2), ("2", lambda N: 2),
    ),
    "quadric-odd": (
        ("N",), ("N>=4", lambda N: N >= 4), ("2N-1", lambda N: 2 * N - 1), ("2", lambda N: 2),
    ),
}


class SpaceDescriptor(Record):
    """A catalog family with parameters; product/dual nest descriptors."""

    __slots__ = ("family", "params", "inner")

    def __init__(self, family, params=(), inner=()):
        self.family, self.params, self.inner = family, params, inner
        if self.family in ("product", "dual"):
            return
        if self.family not in _FAMILIES:
            raise CatalogError(f"unknown family {self.family!r}")
        names, (text, in_range), _, _ = _FAMILIES[self.family]
        keys = [key for key, _ in self.params]
        for key in keys:
            if keys.count(key) > 1:
                raise CatalogError(f"{self.family} parameter {key!r} is repeated")
        if sorted(keys) != sorted(names):
            raise CatalogError(
                f"{self.family} needs parameters {list(names)}, got {sorted(keys)}"
            )
        if any(not isinstance(v, int) or v < 1 for _, v in self.params):
            raise CatalogError(f"{self.family} parameters must be positive integers")
        if not in_range(**dict(self.params)):
            raise CatalogError(f"{self.family} needs {text}")

    @property
    def complex_dim(self):
        if self.inner:
            return sum(f.complex_dim for f in self.inner)
        return _FAMILIES[self.family][2][1](**dict(self.params))

    @property
    def rank(self):
        if self.inner:
            return sum(f.rank for f in self.inner)
        return _FAMILIES[self.family][3][1](**dict(self.params))

    def param(self, name):
        return dict(self.params)[name]

    def label(self):
        if self.family == "product":
            return "product(" + ";".join(d.label() for d in self.inner) + ")"
        if self.family == "dual":
            return f"dual({self.inner[0].label()})"
        return self.family + ":" + ",".join(f"{k}={v}" for k, v in self.params)


def product(*factors):
    if len(factors) < 2:
        raise CatalogError("product needs at least two factors")
    return SpaceDescriptor("product", (), tuple(factors))


def dual(inner):
    return SpaceDescriptor("dual", (), (inner,))


def parse_space(text) -> SpaceDescriptor:
    """Parse labels like grassmannian:k=2,N=4, dual(cp:n=1), product(a;b),
    refusing one nested deeper than MAX_NESTING before reading it."""
    if max(accumulate((ch == "(") - (ch == ")") for ch in text), default=0) > MAX_NESTING:
        raise CatalogError(f"label nested over {MAX_NESTING} brackets deep")
    return _parse_label(text)


def _parse_label(text):
    text = text.strip()
    if text.startswith("dual(") and text.endswith(")"):
        return dual(_parse_label(text[5:-1]))
    if text.startswith("product(") and text.endswith(")"):
        inner = _split_top(text[8:-1], ";")
        return product(*(_parse_label(part) for part in inner))
    name, _, rest = text.partition(":")
    if name not in _FAMILIES:
        raise CatalogError(f"unknown space {text!r}")
    params = []
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            digits = val.removeprefix("-")
            if not (eq and digits.isascii() and digits.isdigit() and len(digits) <= MAX_DIGITS):
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


class FrameDirection(Record):
    """Integer linear form u = sum coeff * z_var with squared norm nu."""

    __slots__ = ("form", "nu")  # form: ((var, coeff), ...)


class TestFunctionPair(Record):
    """Degree-4 test polynomials along the first two embedded directions."""

    __slots__ = ("f1", "f2")


class CatalogSpace(Record):
    __slots__ = ("descriptor", "metric", "frame", "truncation")  # frame: a FrameDirection per line
    __eq__, __hash__ = object.__eq__, object.__hash__


def _upper_index(N, strict):
    """Row-major free-coordinate index of each upper slot (i, j) of an N x N
    matrix: i <= j for sp (symmetric W), i < j for so2n (skew W)."""
    slots = [(i, j) for i in range(N) for j in range(i + strict, N)]
    return {ij: count for count, ij in enumerate(slots)}


def _matrix_slots(desc):
    """W of a Bergman family as (rows, cols, W, scale): W maps each nonzero
    slot (r, c) to (free coordinate, sign), and the potential is
    scale * log det(I + W^dagger W).  flat, cp and ch take the column W = z
    of the k = 1 Grassmannian."""
    fam = desc.family
    if fam in ("flat", "cp", "ch"):
        n = desc.param("n")
        return n, 1, {(r, 0): (r, 1) for r in range(n)}, 1
    if fam == "grassmannian":
        k, N = desc.param("k"), desc.param("N")
        return N - k, k, {(r, c): (r * k + c, 1) for r in range(N - k) for c in range(k)}, 1
    # sp: W symmetric; so2n: W skew, with the strictly upper entries free
    N, sp = desc.param("N"), fam == "sp"
    idx = _upper_index(N, strict=not sp)
    W = {
        (r, c): (idx[(min(r, c), max(r, c))], 1 if sp or r < c else -1)
        for r in range(N) for c in range(N) if sp or r != c
    }
    return N, N, W, 1 if sp else Q(1, 2)


def _bergman_blocks(desc, pk):
    """(W, scale, A, B): _matrix_slots's W and scale, and A = I + W^dagger W
    and B = I + W W^dagger, (degree, packed key) -> integer."""
    rows, cols, W, scale = _matrix_slots(desc)
    n, units = pk.n, pk.units
    A = [[{(0, 0): 1} if a == b else {} for b in range(cols)] for a in range(cols)]
    B = [[{(0, 0): 1} if a == b else {} for b in range(rows)] for a in range(rows)]
    for (r, a), (u, su) in W.items():
        for (r2, b), (v, sv) in W.items():
            if r2 == r:  # conj(W[r][a]) W[r][b] in A[a][b]
                key = (2, units[v] + units[n + u])
                A[a][b][key] = A[a][b].get(key, 0) + su * sv
            if b == a:  # W[r][a] conj(W[r2][a]) in B[r][r2]
                key = (2, units[u] + units[n + v])
                B[r][r2][key] = B[r][r2].get(key, 0) + su * sv
    return W, scale, A, B


_SIGN = {"flat": 0, "cp": 1, "ch": -1, "grassmannian": 1, "sp": 1, "so2n": 1}


def _bergman(desc):
    """(family, s): the Bergman family under desc's duals and its curvature
    sign, which each dual negates; None if there is none (g_inv not closed)."""
    s = 1
    while desc.family == "dual":
        desc, s = desc.inner[0], -s
    return (desc, s * _SIGN[desc.family]) if desc.family in _SIGN else None


def potential_jet(desc: SpaceDescriptor, D, slots=0, blocks=None) -> Jet:
    """The potential to total degree D, built on the packing of max(D, slots)
    (a matrix family's from blocks, its _bergman_blocks there, if given)."""
    if (bergman := _bergman(desc)) is not None:
        desc, s = bergman
        if desc.family in ("flat", "cp", "ch"):  # log(1 + s t)/s
            profile = (ZERO, *(Q((-s) ** (m - 1), m) for m in range(1, (D + 1) // 2 + 1)))
            return substitute_radial(profile, desc.param("n"), D, slots)
        return _trace_series(desc, s, D, slots, blocks)
    fam = desc.family
    if fam == "product":
        jets = [potential_jet(f, D, slots) for f in desc.inner]
        n = sum(j.n for j in jets)
        total, offset = Jet._of(n, packing(n, max(D, slots)), 1, [{} for _ in range(D + 1)]), 0
        for jet in jets:  # its P slots move to offset.., its Q slots to n + offset..
            low, high, half = total.pk.bits * offset, total.pk.bits * (n + offset), jet.pk.half
            parts = [{(K & (1 << half) - 1) << low | K >> half << high: c for K, c in part.items()}
                     for part in jet.parts]
            total, offset = total + Jet._of(n, total.pk, jet.den, parts), offset + jet.n
        return total
    if fam == "dual":
        return dual_potential(potential_jet(desc.inner[0], D, slots))
    return _quadric(desc, D, slots)


def _quadric(desc: SpaceDescriptor, D, slots) -> Jet:
    """The potential log(1 + q) to degree D, q = sum |z_i|^2 + |f|^2 with
    f = 2 sum v_j v'_j (- u^2 on quadric-odd), on the packing of max(D, slots)."""
    n, nv = desc.complex_dim, desc.param("N") - 1
    pk = packing(n, max(D, slots))
    units = pk.units
    f = {units[j] + units[nv + j]: 2 for j in range(nv)}
    if desc.family == "quadric-odd":
        f[2 * units[2 * nv]] = -1
    q = [{} for _ in range(D + 1)]
    if D >= 2:
        q[2] = {units[i] + units[n + i]: 1 for i in range(n)}
    if D >= 4:
        _mul_into(q[4], f, _conj_parts(pk, [f])[0])
    return log1p(Jet._of(n, pk, 1, q))


def _trace_series(desc: SpaceDescriptor, s, D, slots, blocks) -> Jet:
    """The potential to degree D (on the packing of max(D, slots)) of the
    matrix family desc at curvature sign s = +-1, read from blocks
    (_bergman_blocks, built here if None), as its trace series (module
    docstring) with tr(M^k) weighted by (-1)^(k+1) s^(k-1), over
    scale.denominator lcm(1..K), K = floor(D/2): a dual (c -> -(-1)^|Q| c,
    |Q| = k) is s -> -s.  (M^j)_ba is (M^j)_ab with its key halves swapped:
    only the upper triangle of M^j, j <= ceil(K/2), is multiplied out, and
    tr(M^k) is sum_a X_aa Y_aa + h + conj(h) with h = sum_{a<b} X_ab Y_ba,
    X = M^ceil(k/2) and Y = M^floor(k/2)."""
    pk = packing(desc.complex_dim, max(D, slots))
    _, scale, A, _ = blocks or _bergman_blocks(desc, pk)
    M = [[{K: c for (d, K), c in e.items() if d} for e in row] for row in A]
    K, m = D // 2, len(M)
    powers = [[[{0: 1} if a == b else {} for b in range(m)] for a in range(m)], M]
    for _ in range(2, (K + 1) // 2 + 1):
        power = [[{} for _ in range(m)] for _ in range(m)]
        for a in range(m):
            for b in range(a, m):
                for c in range(m):
                    _mul_into(power[a][b], powers[-1][a][c], M[c][b])
                power[b][a] = _conj_parts(pk, [power[a][b]])[0]
        powers.append(power)
    L = lcm(*range(1, K + 1))
    parts = [{} for _ in range(D + 1)]
    for k in range(1, K + 1):
        X, Y = powers[(k + 1) // 2], powers[k // 2]
        trace, h = {}, {}
        for a in range(m):
            _mul_into(trace, X[a][a], Y[a][a])
            for b in range(a + 1, m):
                _mul_into(h, X[a][b], Y[b][a])
        for key, c in (*h.items(), *_conj_parts(pk, [h])[0].items()):
            trace[key] = trace.get(key, 0) + c
        w = (-1) ** (k + 1) * s ** (k - 1) * scale.numerator * (L // k)
        parts[2 * k] = {key: c * w for key, c in trace.items() if c}
    return Jet._of(pk.n, pk, scale.denominator * L, parts)


def dual_potential(phi: Jet) -> Jet:
    """Duality on potentials: c_{P,Q} -> -(-1)^{|Q|} c_{P,Q}, |Q| summed slot by slot."""
    pk, q_slots = phi.pk, range(phi.pk.half, 2 * phi.pk.half, phi.pk.bits)
    return Jet._of(phi.n, pk, phi.den, [
        {K: c if sum(K >> s & pk.mask for s in q_slots) % 2 else -c for K, c in part.items()}
        for part in phi.parts
    ])


def _frame(desc: SpaceDescriptor, W=None):
    """The embedded-line frame; a Bergman family's reads _matrix_slots's W, if not given."""
    fam = desc.family
    if fam == "flat":
        return ()
    if fam in _SIGN:
        # unit axes at diagonal slots of W (so2n: the 2 x 2 blocks)
        W = W or _matrix_slots(desc)[2]
        cells = [(2 * m, 2 * m + 1) if fam == "so2n" else (m, m) for m in range(desc.rank)]
        return tuple(FrameDirection(((W[r, c][0], 1),), Q(1)) for r, c in cells)
    if fam in ("quadric-even", "quadric-odd"):
        N = desc.param("N")
        nv = N - 1
        # paired directions (v_2 + v'_3)/sqrt(2) and (v_3 + v'_4)/sqrt(2)
        return (
            FrameDirection(((0, 1), (nv + 1, 1)), Q(2)),
            FrameDirection(((1, 1), (nv + 2, 1)), Q(2)),
        )
    if fam == "product":
        out, offset = [], 0
        for f in desc.inner:  # each factor's forms, on its variables
            out += [FrameDirection(tuple((offset + var, c) for var, c in fd.form), fd.nu)
                    for fd in _frame(f)]
            offset += f.complex_dim
        return tuple(out)
    return _frame(desc.inner[0], W)  # dual


def build_space(desc: SpaceDescriptor, D=6) -> CatalogSpace:
    """Construct the metric jet and embedding metadata at truncation D."""
    if D < 2:
        raise CatalogError("truncation must be >= 2")
    if (bergman := _bergman(desc)) is None:
        metric, W = metric_from_potential(potential_jet(desc, D)), None
    else:  # g_inv closed: the potential only to min(D, 5), built on the packing of D
        family, s = bergman  # whose blocks the potential, g_inv and frame share
        blocks = _bergman_blocks(family, packing(desc.complex_dim, D))
        metric, W = metric_with_inverse(
            potential_jet(desc, min(D, 5), D, blocks),
            lambda phi, solve: bergman_inverse(family, s, phi, D, solve, blocks), D), blocks[0]
    return CatalogSpace(descriptor=desc, metric=metric, frame=_frame(desc, W), truncation=D)


def bergman_inverse(desc: SpaceDescriptor, s, potential: Jet, D, solve, blocks=None):
    """g_inv of the Bergman family desc at curvature sign s (_bergman: a
    dual is its family at -s) on the potential's packing, valid to D - 2,
    as metric.metric_with_inverse takes it: (den, the integer parts of
    den g_inv[a][b]).  It is the Bergman operator X -> B X A of the Jordan
    triple (Loos 1977), A = I + W^dagger W, B = I + W W^dagger (blocks,
    _bergman_blocks built here if None).  With S_a the slots (i, j, sign)
    of coordinate a and (k, l) the first slot of b,

        g_inv[a][b] = sum_{(i, j, sign) in S_a} sign (B[k][i] A[j][l])_s / (scale |S_a|),

    (.)_s weighting the degree-d part by s^(d/2): its terms have |Q| = d/2,
    so a dual (c -> (-1)^|Q| c) is s -> -s, and flat (s = 0) keeps I.  den
    is the lcm of the denominators of the reduced 1 / (scale |S_a|) (1 on
    so2n).  g_inv is Hermitian: each entry a <= b is one dict per degree
    0..D - 2, packed key -> integer (zeros kept), which the pullback index
    takes one degree at a time, and None below the diagonal.  solve
    "column" gives column 0 alone, n x 1, each entry one dict, for a g_inv
    that every permutation of the coordinates fixes (MetricJet keeps it so).
    """
    n, pk, D = potential.n, potential.pk, D - 2
    W, scale, A, B = blocks or _bergman_blocks(desc, pk)
    slots = [[(r, c, sign) for (r, c), (v, sign) in W.items() if v == var] for var in range(n)]
    weights = [Q(scale.denominator, scale.numerator * len(slot)) for slot in slots]
    den = lcm(*(w.denominator for w in weights))
    if solve == "column":  # entry reads B in row k of column 0's first slot alone
        B = [row if r == slots[0][0][0] else [] for r, row in enumerate(B)]
    # each block entry as (degree, key, integer weighted by s^(d/2)), s = 0 dropping d > 0
    A, B = ([[[(d, K, c * s ** (d // 2)) for (d, K), c in e.items() if s or not d] for e in row]
             for row in X] for X in (A, B))

    def entry(a, b, graded):  # a dict per degree, or one, packed key -> integer, zeros kept
        mul = weights[a].numerator * (den // weights[a].denominator)
        k, l, _ = slots[b][0]
        parts = [{} for _ in range(D + 1 if graded else 1)]
        for i, j, sign in slots[a]:
            for d1, key1, c1 in B[k][i]:
                c1 *= sign * mul
                for d2, key2, c2 in A[j][l]:
                    if d1 + d2 <= D:
                        terms, key = parts[(d1 + d2) * graded], key1 + key2
                        terms[key] = terms.get(key, 0) + c1 * c2
        return parts

    if solve == "column":
        return den, [[entry(a, 0, False)] for a in range(n)]
    return den, [[entry(a, b, True) if a <= b else None for b in range(n)] for a in range(n)]


def embedded_test_polys(space: CatalogSpace) -> TestFunctionPair:
    """Pullbacks of |z1|^4 and |z1 z2|^2 under the embedded-line frame, to the
    truncation on the metric's packing: |u1|^4 / nu1^2 and |u1 u2|^2 / (nu1 nu2),
    one product each of the |u|^2 = sum c_v c_w z_v zb_w, u = sum c_v z_v."""
    if len(space.frame) < 2:
        raise CatalogError(
            f"{space.descriptor.label()} has rank < 2: no embedded "
            "projective-plane test functions"
        )
    pk, D = space.metric.potential.pk, space.truncation
    n, units = pk.n, pk.units
    u1, u2 = space.frame[:2]
    m1, m2 = ({units[v] + units[n + w]: a * b for v, a in u.form for w, b in u.form}
              for u in (u1, u2))

    def quartic(x, y, nu):
        acc, parts = {}, [{} for _ in range(D + 1)]
        if D >= 4:
            _mul_into(acc, x, y)
            parts[4] = {K: c * nu.denominator for K, c in acc.items() if c}
        return Jet._of(n, pk, nu.numerator, parts)

    return TestFunctionPair(quartic(m1, m1, u1.nu * u1.nu), quartic(m1, m2, u1.nu * u2.nu))


def _frame_mu(space: CatalogSpace, fd: FrameDirection):
    """mu = u^dagger g(0) u / nu: the origin metric norm of the unit frame vector."""
    d = space.metric.origin_diag
    return sum((Q(c * c) * d[var] for var, c in fd.form), ZERO) / fd.nu


class ObstructionReport(Record):
    """Order-3 values along the embedded lines, rescaled to unit gauge.

    For an Einstein metric the identity val1 = 2 val2 is necessary for the
    order-3 polynomial identity; val1 - 2 val2 != 0 certifies failure.  The
    expected values for the embedded-line frame are (12 lam + 16 s, 6 lam), s
    the sign of lam.
    """

    __slots__ = ("lam", "mu", "val1", "val2", "delta_requirement", "val1_expected",
                 "val2_expected")


def obstruction_report(space: CatalogSpace) -> ObstructionReport:
    rep = einstein_constant(space.metric)
    if rep.lam is None:
        raise CatalogError(
            f"{space.descriptor.label()} is not Einstein at the origin "
            f"(residual {rep.residual})"
        )
    pair = embedded_test_polys(space)
    mu1, mu2 = (_frame_mu(space, fd) for fd in space.frame[:2])
    val1 = delta_power_at0(space.metric, pair.f1, 3) * mu1 * mu1
    val2 = delta_power_at0(space.metric, pair.f2, 3) * mu1 * mu2
    return ObstructionReport(
        lam=rep.lam, mu=(mu1, mu2), val1=val1, val2=val2, delta_requirement=val1 - 2 * val2,
        val1_expected=12 * rep.lam + 16 * ((rep.lam > 0) - (rep.lam < 0)),
        val2_expected=6 * rep.lam)


def dual_compare(desc: SpaceDescriptor, D=6):
    """Rows (P, compact value, noncompact value) of lap^3(z^P zb^P)(0) for
    f = |z_i z_j|^2, on the space and on its noncompact dual."""
    m_compact, m_dual = (build_space(d, D).metric for d in (desc, dual(desc)))
    for m in (m_compact, m_dual):
        rep = einstein_constant(m)
        if rep.lam is None:
            raise CatalogError(
                f"duality table needs Einstein metrics; residual {rep.residual}"
            )
    n = m_compact.n
    monomials = [
        tuple((a == i) + (a == j) for a in range(n)) for i in range(n) for j in range(i, n)
    ]
    return [
        (P, _table_value(m_compact, 3, P, P), _table_value(m_dual, 3, P, P))
        for P in monomials
    ]


def all_family_names():
    return list(_FAMILIES)


def family_summary(name):
    """Parameter range, dimension and rank texts of a family, for the listing."""
    return tuple(text for text, _ in _FAMILIES[name][1:])

