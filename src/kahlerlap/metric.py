"""Metric data from a Kahler potential and origin evaluations of its Laplacian.

Conventions.  The metric matrix is g[i][j] = d^2 Phi / dz_i dzb_j and g_inv
is its matrix inverse over the jet ring, so the Laplacian of phi is

    lap(phi) = sum_{i,j} g_inv[i][j] * d^2 phi / dz_j dzb_i.

g itself is never held as jets.  g_inv has two builders under one contract
(metric_with_inverse), which gives both the one S_n verdict that picks the
entries they build: the graded solve from the potential's terms
(_hessian_inverse, for metric_from_potential; the gauge check proves g(0)
diagonal, so no rational matrix is inverted) and the closed form of the
Bergman catalog families (catalog.bergman_inverse), whose potential's
quartic part decides that verdict.  metric_with_inverse keeps their
integer parts as given, (den, store), and takes their one gcd before any
table is built, which the lap^k pullback index (_indexed) divides out as
it writes: a Hermitian g_inv is given as its upper triangle, each term
written for its entry and, halves swapped, its mate, any other whole, and
either is indexed as the tables read it, step k pairing the degree 2k - 2
that it first reads (_laplacian_functional).  One that every permutation
of the coordinates fixes is given as its column 0 (entry (i, j) is entry
(sigma i, 0), sigma = (0 j), slots 0 and j swapped in both halves of each
key), indexed in a window that a later table may widen, as
MetricJet.g_inv, a JetMatrix, does in every slot on first read.  The
origin checks read closed forms: einstein_constant reads table 2, and
third_deriv_obstruction and fifth_order_check the potential's (3, 2) terms.

One packing (jets._Packing) serves each metric: the potential's own.  g_inv
is built on it, and the lap^k pullback reads g_inv's keys as they are.  A
metric is valid to its own valid_degree D, and its slots hold every
exponent up to D, so up to the slot mask, which is at least that: g_inv's
exponents are at most D - 2, table k's at most k, and every caller needs
2k <= D (the duality table asks for k = 3 only once einstein_constant has
required D >= 4).  metric_from_potential takes D from the potential; a
Bergman family's is built only to min(D, 5), on it (catalog.build_space).

Each lap^k table is stored once, as integer numerators on packed keys, and
when the verdict finds every permutation of the coordinates (on z and zb
alike) fixing a Hermitian g_inv, on one key per S_n-orbit, the orbit's
least member in the fit's order: _laplacian_functional says why its entries
are exact and its index needs only the last D // 2 - 1 slots, and
fit.fit_pk why the witness is unchanged.

Only the diagonal gauge is supported: g(0) must be a positive diagonal
matrix d_1..d_n (checked at construction).  Identities that the literature
states at the center of normal coordinates (g(0) = I) are implemented in the
rescaled-normal form, weighting each contracted index h by 1/d_h; at
d = (1,..,1) they reduce to the classical statements.  This keeps every
computation rational even when the unit-gauge coordinate change would need
square roots.
"""

from __future__ import annotations

from itertools import repeat
from math import factorial, gcd, lcm, prod
from operator import mul

from .jets import DimensionMismatch, InputError, Jet, JetError, JetMatrix, ValidityError
from .jets import _graded_inverse, _sum
from .rationals import Q, ZERO, Record


class GaugeError(InputError):
    """Coordinates outside the supported gauge (see module docstring)."""


class TruncationError(InputError):
    """The potential jet is not deep enough for the requested computation."""

    def __init__(self, message, required):
        super().__init__(message)
        self.required = required


class MetricJet(Record):
    """Potential and inverse-metric jets, plus origin normalization.

    There is no g field (see the module docstring).  valid_degree is the
    truncation D, which the potential may fall short of past degree 5.
    origin_diag holds d_i = g[i][i](0).  cubic_free: no degree-3 term of
    the potential reaches g (is_cubic_free), so all first derivatives of g
    vanish at the origin.  _pullback is (Lg, index, lo): Lg g_inv is
    integral, and indexed in the slots from lo on (_pullback_index); g_inv,
    if given None, is built from the index in every slot on first read.
    _ginv keeps (den, store) as the inverse gave it, unreduced: with
    _orbits, column 0, for _pullback_index to re-index; otherwise the upper
    or full store, one dict per degree, whose degrees up to 2K - 3 the
    index holds once table K is built (_laplacian_functional), and None
    once it holds them all (_complete_index, on first read of g_inv).
    _functionals maps k to the numerators N_k of the lap^k table, the one
    stored form of it, with N_0 there from the start and the rest filled on
    first use; _orbits says that they hold one key per S_n-orbit, and lets
    lo be above 0 (see _laplacian_functional).  _einstein caches the
    Einstein report.  A MetricJet equals only itself.
    """

    __slots__ = ("n", "potential", "valid_degree", "origin_diag", "cubic_free", "g_inv",
                 "_pullback", "_functionals", "_einstein", "_orbits", "_ginv")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, n, potential, valid_degree, origin_diag, cubic_free, g_inv,
                 _pullback, _functionals, _einstein=None, _orbits=False, _ginv=None):
        self.n, self.potential, self.valid_degree = n, potential, valid_degree
        self.origin_diag, self.cubic_free = origin_diag, cubic_free
        if g_inv is not None:
            self.g_inv = g_inv
        self._pullback, self._functionals = _pullback, _functionals
        self._einstein, self._orbits, self._ginv = _einstein, _orbits, _ginv

    def __getattr__(self, name):  # reached only while the g_inv slot is unset
        if name != "g_inv":
            raise AttributeError(name)
        _complete_index(self)
        pk, (lg, index, lo), n = self.potential.pk, self._pullback, self.n
        index = _pullback_index(pk, *self._ginv, 0)[1] if lo else index  # every slot
        ginv = [[[{} for _ in range(self.valid_degree - 1)] for _ in range(n)] for _ in range(n)]
        for U, halves in index.items():  # each hit one term, of degree K % mask as D - 2 < mask
            for V, hits in halves.items():
                it, K = iter(hits), U | V << pk.half
                for g, shift_j, shift_i, _ in zip(it, it, it, it):
                    ginv[shift_i // pk.bits - n][shift_j // pk.bits][K % pk.mask][K] = g
        self.g_inv = JetMatrix([[Jet._of(n, pk, lg, e) for e in row] for row in ginv])
        return self.g_inv


def metric_from_potential(potential: Jet) -> MetricJet:
    """MetricJet of a potential valid to degree >= 2, g_inv solved from its terms."""
    return metric_with_inverse(potential, _hessian_inverse, potential.valid_degree)


def _hessian_inverse(potential, solve):
    """g_inv of a potential valid to D, valid to D - 2, with the entries
    that solve names solved by jets._graded_inverse, and g never formed: a
    degree-(e + 2) term c z^P zb^Q with P, Q nonzero gives c P_i Q_j at the
    key K - e_i - e_{n+j} of A_e[i][j], A = Lp g with Lp the potential's den
    (no two terms meet there).  The gauge check has proved A_0 = diag(a_i),
    a_i > 0, so with L = lcm(a_i) and H = diag(L / a_i), L^e B_e =
    -L^(e-1) H A_e is written term by term: no rational matrix is inverted."""
    n, pk = potential.n, potential.pk
    bits, mask, half, units = pk.bits, pk.mask, pk.half, pk.units
    a = [potential.parts[2][units[i] + units[n + i]] for i in range(n)]
    L = lcm(*a)
    h = [L // x for x in a]
    bs = [None]  # bs[e][i][j]: L^e B_e[i][j], packed key -> integer
    for e, part in enumerate(potential.parts[3:], 1):
        bs.append(b := [[{} for _ in range(n)] for _ in range(n)])
        scale = -(L ** (e - 1))
        for K, c in part.items():
            if K & units[n] - 1 and K >> half:
                qs = [(j - n, q, units[j]) for j in range(n, 2 * n) if (q := K >> bits * j & mask)]
                for i in range(n):
                    if p := K >> bits * i & mask:
                        row, w, ki = b[i], scale * h[i] * c * p, K - units[i]
                        for j, q, u in qs:
                            row[j][ki - u] = w * q
    h = [[x if i == j else 0 for j in range(n)] for i, x in enumerate(h)]
    return _graded_inverse(pk, L, h, bs, potential.den, solve)


def _potential_symmetry(potential):
    """(real, fixed) of the potential's terms with both halves nonzero, those
    that reach g.  real: each equals its mate with the halves swapped.  fixed:
    n > 1, the terms are real, and the swap of slots 0 and 1 and the cyclic
    shift of all n slots (both halves alike), which generate S_n, map each
    term to one with the same integer: one to one into the terms, so onto."""
    pk = potential.pk
    n, bits, half = pk.n, pk.bits, pk.half
    low, first = (1 << half) - 1, pk.mask * (pk.units[0] + pk.units[n])  # slots 0 and n
    rest, top = (1 << 2 * half) - 1 - first, bits * (n - 1)
    fixed = n > 1
    for part in potential.parts[2:]:
        get = part.get
        for K, c in part.items():
            if K & low and K >> half:
                if get(K >> half | (K & low) << half) != c:
                    return False, False
                if fixed:
                    x = (K ^ K >> bits) & first  # slot 0 ^ slot 1, in both halves
                    fixed = get(K ^ x ^ x << bits) == c == get(K << bits & rest | K >> top & first)
    return True, fixed


def require_diagonal_gauge(potential: Jet):
    """The d_i = g[i][i](0) of a potential valid to degree 2 or more, or
    GaugeError unless g(0) is positive diagonal: the term c z_i zb_j is
    g[i][j](0) = c, and the first entry refused in row-major order is
    reported."""
    n, pk = potential.n, potential.pk
    bits, units = pk.bits, pk.units
    origin, den = potential.parts[2], potential.den
    low = units[n] - 1
    diag = [Q(origin.get(units[i] + units[n + i], 0), den) for i in range(n)]
    # g(0)'s refused entries: diagonal ones not positive, and off-diagonal ones
    bad = {(i, i): d for i, d in enumerate(diag) if d <= 0}
    for K, c in origin.items():
        p, q = K & low, K >> pk.half
        if p and q and p != q:  # the term c z_i zb_j, i != j: p = e_i, q = e_j
            bad[(p.bit_length() - 1) // bits, (q.bit_length() - 1) // bits] = Q(c, den)
    if bad:
        (i, j), c = min(bad.items())
        raise GaugeError(f"g({i},{i})(0) = {c} is not positive" if i == j
                         else f"g(0) is not diagonal: entry ({i},{j}) = {c}")
    return diag


def metric_with_inverse(potential: Jet, inverse, D) -> MetricJet:
    """MetricJet valid to degree D >= 2, of a potential valid to degree
    min(D, 5) at least, on a packing that holds D, whose g_inv is
    inverse(potential, solve) = (den, entries): entries[i][j] the integer
    parts of den g_inv[i][j] on the potential's packing, valid to D - 2, as
    dicts packed key -> integer (one per degree, or for "column" maybe one
    in all; None below the diagonal for "upper": the conjugate of the mate
    above; j = 0 alone for "column"), which _ginv keeps as given, and which
    the pullback index takes over Lg, the lcm of the reduced denominators
    of g_inv: a column at build, any other store as the tables read it.

    After the gauge check (require_diagonal_gauge), the one S_n verdict is
    read off the potential's terms (_potential_symmetry): solve is "column"
    when every permutation of the coordinates fixes them (and they are
    real), which sets _orbits, so that the lap^k tables hold one key per
    orbit and _pullback_index indexes only the last D // 2 - 1 slots;
    "upper" when they are real (g_inv is Hermitian); "full" otherwise.  Such
    a permutation fixes g = d dbar Phi, so g_inv.  A closed form reads the
    potential only to min(D, 5), but a Bergman potential's quartic part
    polarizes to the Jordan triple product: a permutation that fixes its
    parts of degree 2 and 4 is a triple automorphism and fixes g_inv at
    every degree (Loos 1977), as the scan of g_inv confirms on 546 Bergman
    cases.
    """
    if D < 2:
        raise TruncationError("potential must be valid at least to degree 2", required=2)
    n, pk, diag = potential.n, potential.pk, require_diagonal_gauge(potential)
    real, fixed = _potential_symmetry(potential)
    ginv = inverse(potential, "column" if fixed else "upper" if real else "full")
    lo = max(n - D // 2 + 1, 0) if fixed else 0
    # a column is indexed in its window; any other store as the tables read it
    lg, index = _pullback_index(pk, *ginv, lo) if fixed else (ginv[0] // _store_gcd(*ginv), {})
    return MetricJet(
        n=n, potential=potential, valid_degree=D, origin_diag=tuple(diag),
        cubic_free=is_cubic_free(potential), g_inv=None, _pullback=(lg, index, lo),
        _functionals={0: {0: 1}}, _orbits=fixed, _ginv=ginv)


def is_cubic_free(potential: Jet):
    """Whether no degree-3 term reaches g (has both halves nonzero): a
    pluriharmonic h + conj(h) does not, and changes no check."""
    low, half = potential.pk.units[potential.n] - 1, potential.pk.half
    return potential.valid_degree < 3 or not any(K & low and K >> half
                                                 for K in potential.parts[3])


def _pullback_index(pk, den, stored, lo):
    """(Lg, index) of the integer parts of den g_inv, stored as
    metric_with_inverse takes them: Lg = den / g, g = _store_gcd(den,
    stored), and the index that _indexed writes of every term over g, in
    the slots from lo."""
    g = _store_gcd(den, stored)
    return den // g, _indexed({}, pk, g, stored, lo, slice(None))


def _store_gcd(den, stored):
    """The gcd of den and every numerator of stored, read part by part
    until it is 1."""
    for part in (part for row in stored for e in row if e for part in e):
        if (den := gcd(den, *part.values())) == 1:
            break
    return den


def _complete_index(m: MetricJet):
    """Write into m's index the degrees of its upper or full store that no
    table has read yet, and drop the store: after table K the index holds
    the degrees up to 2K - 3 (_laplacian_functional)."""
    if not m._orbits and m._ginv is not None:
        (den, stored), (lg, index, _) = m._ginv, m._pullback
        top = max(2 * len(m._functionals) - 4, 0)
        _indexed(index, m.potential.pk, den // lg, stored, 0, slice(top, None))
        m._ginv = None


def _indexed(index, pk, g, stored, lo, degrees):
    """index, with the nonzero terms (U, V) of stored divided by g written
    in: those with no exponent of U below slot lo and, of an upper or full
    store (one dict per degree), of a degree in the slice degrees; packed
    U -> {V, packed as a holomorphic half -> the hits, four ints for each
    entry (i, j) carrying the term: its integer, the shifts of slots j and
    n + i, and packed e_j + e_i}.  A column term is dropped first if U has
    an exponent in slots 1..lo-1, which every transposition leaves below
    lo; (0 j) then moves it out of the window iff U_j > 0, or U_0 > 0 and
    j < lo."""
    n, bits, units, half, mask = pk.n, pk.bits, pk.units, pk.half, pk.mask
    low, first, inner = units[n] - 1, mask * (units[0] + units[n]), (units[lo] - 1) & ~mask
    ts = [[(bits * j, bits * (n + i), units[j] + units[n + i]) for j in range(n)]
          for i in range(n)]  # t of each position (i, j), shared by its hits
    for a, row in enumerate(stored):
        for b, entry in enumerate(row):
            if len(row) < n:  # column entry a, read at (sigma a, j) with sigma = (0 j)
                at = [(bits * j, ts[0 if a == j else a or j][j],
                       lo and mask * units[j if j >= lo else 0]) for j in range(n)]
                for part in entry:
                    for K, v in part.items():
                        if v and not K & inner:
                            v //= g
                            for s, t, out in at:
                                if not K & out:
                                    KT = K ^ (y := (K ^ K >> s) & first) ^ y << s
                                    U, V = KT & low, KT >> half
                                    if (halves := index.get(U)) is None:
                                        index[U] = {V: [v, *t]}
                                    elif (hits := halves.get(V)) is None:
                                        halves[V] = [v, *t]
                                    else:
                                        hits += (v, *t)
                continue
            t, (entry, swap) = ts[a][b], (stored[b][a], True) if entry is None else (entry, False)
            for part in entry[degrees]:  # entry (a, b), or its mate's with the halves swapped
                for K, v in part.items():
                    if v:
                        U, V = (K >> half, K & low) if swap else (K & low, K >> half)
                        if (halves := index.get(U)) is None:
                            index[U] = {V: [v // g, *t]}
                        elif (hits := halves.get(V)) is None:
                            halves[V] = [v // g, *t]
                        else:
                            hits += (v // g, *t)
    return index


def _orbit(pk, key):
    """(representative, size) of a packed key's S_n-orbit, memoized on the
    packing (pk.orbits): found once per key, the size once per
    representative.  The representative has the pairs (P_i, Q_i) sorted
    ascending: the orbit's least member in graded lexicographic order (P
    before Q, slot 0 first).  Zero pairs sort first, so only the m nonzero
    ones are read, each found by the lowest set bit of P | Q (as
    Jet._parts_on finds slots), and placed in the last m slots; the size is
    n! / prod r!, r running over the multiplicities of the pairs, n - m
    that of the zero pair."""
    orbits = pk.orbits
    if (orbit := orbits.get(key)) is not None:
        return orbit
    bits, mask, half = pk.bits, pk.mask, pk.half
    p, q = key & (1 << half) - 1, key >> half
    pairs, x = [], p | q  # each pair as the int P_i << bits | Q_i
    while x:
        s = ((x & -x).bit_length() - 1) // bits * bits
        pairs.append((p >> s & mask) << bits | q >> s & mask)
        x &= ~(mask << s)
    pairs.sort()
    rep, s = 0, half - bits * len(pairs)
    for v in pairs:
        rep |= (v >> bits) << s | (v & mask) << half + s
        s += bits
    if rep not in orbits:
        runs = prod(factorial(pairs.count(v)) for v in set(pairs))
        orbits[rep] = rep, factorial(pk.n) // factorial(pk.n - len(pairs)) // runs
    return orbits.setdefault(key, orbits[rep])


def require_bochner_form(potential: Jet):
    """GaugeError at the first term z^P zb^Q (by degree, then key) with one
    of |P|, |Q| equal to 1 and the other at least 2: the origin checks read
    Bochner coordinates (Bochner 1947), and would report any other chart."""
    for part in potential.parts[3:]:
        for key in sorted(part):
            P, Q_ = potential.pk.unpack(key)
            if min(sum(P), sum(Q_)) == 1:  # degree >= 3: the other is >= 2
                raise GaugeError(
                    f"potential is not in Bochner form: term z^{list(P)} "
                    f"zb^{list(Q_)} has bidegree ({sum(P)}, {sum(Q_)})"
                )


def laplacian_apply(m: MetricJet, phi: Jet) -> Jet:
    """sum_{i,j} g_inv[i][j] * d^2 phi / dz_j dzb_i as a jet."""
    if phi.valid_degree < 2:
        raise ValidityError("phi must be valid at least to degree 2")
    if phi.n != m.n:
        raise DimensionMismatch("phi lives in a different variable space")
    # phi joins g_inv's packing once, through the degree the result reads
    pk = m.potential.pk
    D = min(m.g_inv.valid_degree, phi.valid_degree - 2)
    phi = Jet._of(m.n, pk, phi.den, phi._parts_on(pk, D + 2))
    dz = [phi.dz(j) for j in range(m.n)]
    return _sum([m.g_inv[i][j] * dz[j].dzbar(i) for j in range(m.n) for i in range(m.n)])


def _laplacian_functional(m: MetricJet, k: int) -> dict:
    """The linear functional phi -> lap^k(phi)(0) as integer numerators.

    Table k maps (P, Q) -> c with lap^k(phi)(0) = sum c * phi_{P,Q}; support
    lies within total degree 2k.  Built by pulling the origin-evaluation
    functional back through the Laplacian k times: table k - 1 entry c at
    (A, B) and g_inv[i][j] coefficient g at a divisor (U, V) <= (A, B) add
    c * g * S_j * T_i at (S, T) = (A - U + e_j, B - V + e_i).

    The pullback runs on integers, with the index that metric_with_inverse
    built (m._pullback), on the potential's packing.  With Lg the lcm of the
    denominators of g_inv and g' = Lg g_inv integral, table k is N_k / Lg^k
    with N_0 = 1 at the origin and N_k built from N_{k-1} by the step above
    with g' for g.  The index is keyed on the holomorphic half, so each
    (A, B) looks up the divisors U of A alone and joins the halves V found
    under U with the divisors of B from the smaller side: it walks index[U]
    and keeps the V in B's divisor set, or walks B's divisors and looks each
    up in index[U] (A's list serves for B when A = B).  The lookups follow
    g_inv's support instead of every divisor of (A, B).  Keys are packed:
    (S, T) is the int sum of (A - U, B - V), once per V, and a hit's e_j + e_i.
    Table k has 1 <= |P| <= k and 1 <= |Q| <= k, since each step adds one
    to |P| and one to |Q| and removes a divisor.  A step to degree d from
    degree d + e - 2 reads g_inv at degree e, so the degrees read on the way
    to an entry of table k at total degree d sum to 2k - d: it is exact when
    2k - d <= D - 2 (g_inv is valid to D - 2), and every entry is when
    2k <= D, as every command asks (step j reads a divisor of a table-(j - 1)
    key, so e <= 2j - 2).  _table_value refuses an entry past that bound,
    and a k above the slot mask raises ValidityError.  N_k is what is stored
    and returned, packed key -> integer; _table_value and delta_power_at0
    divide by Lg^k as they read it.

    Pairing.  A key (A, B) of table k - 1 has degree at most 2k - 2, so a
    divisor of degree 2k - 2 is (A, B) itself, with (S, T) = (e_j, e_i):
    step k reads a term (K, g) of g_inv[i][j] in that degree only as
    N_{k-1}(K) g at e_j + e_i, and nothing past it.  An upper or full store
    (m._ginv kept) has degrees 2k - 4 and 2k - 3 written into the index at
    step k, and degree 2k - 2 added as one such sum per entry (_pair): the
    same terms, so the same table, and no degree indexed before it is read.

    Orbits.  When every permutation sigma of the coordinates fixes g_inv,
    that is g_inv[sigma i][sigma j] at sigma (U, V) is g_inv[i][j] at
    (U, V) (m._orbits, proved once at build), lap commutes with sigma and
    N_k(sigma P, sigma Q) = N_k(P, Q).  Each table then holds one key per
    S_n-orbit, its representative (_orbit): the pairs (P_i, Q_i) sorted
    ascending.  The step runs from the representatives of N_{k-1} alone,
    each weighed by its orbit's size n!/prod m!, and sums what it writes
    over each output orbit O onto O's representative (_orbit_sums).  Since
    the step commutes with sigma, a whole orbit of inputs puts the same
    total on O as |O_in| times its representative does, and that total is
    |O| N_k(rep O): the division by |O| is exact, and a remainder raises
    JetError.  Reading a key canonicalizes it first.  Pairs with P_i = 0 sort
    first, so the holomorphic half of a table-(k - 1) representative
    (|P| <= k - 1), and each divisor U of it, lie in the last k - 1 slots:
    the index starts at the last D // 2 - 1 (every k with 2k <= D), and a
    larger k widens it in one pass over g_inv.  Any other metric takes the
    loop above on every key and slot, with no per-key branch.
    """
    done = m._functionals.get(k)
    if done is not None:
        return done
    pk = m.potential.pk
    mask = pk.mask
    if k > mask:
        raise ValidityError(
            f"lap^{k} needs exponent slots above {mask}; the metric's "
            f"potential is valid only to degree {m.valid_degree}"
        )
    low = pk.units[m.n] - 1
    prev = _laplacian_functional(m, k - 1).items()
    lg, index, lo = m._pullback
    if paired := not m._orbits and m._ginv is not None:
        den, stored = m._ginv
        if k > 1:  # degrees 2k - 4 and 2k - 3 join the index, and 2k - 2 is paired below
            _indexed(index, pk, den // lg, stored, 0, slice(2 * k - 4, 2 * k - 2))
    elif m._orbits and (need := max(m.n - k + 1, 0)) < lo:  # widen the window
        index = _pullback_index(pk, *m._ginv, need)[1]
        m._pullback = lg, index, need
    if m._orbits:  # one key per orbit: weigh each by the orbit's size
        prev = [(KA, c * _orbit(pk, KA)[1]) for KA, c in prev]
    out, half = {}, pk.half
    get = out.get
    if paired:
        _pair(m, k, den // lg, stored, out)
    for KA, c in prev:
        KB, a_divisors = KA >> half, pk.divisors(KA & low)
        b_divisors = a_divisors if KB == KA & low else pk.divisors(KB)
        b_set = set(b_divisors)
        for KU in a_divisors:
            vs = index.get(KU)
            if vs is None:
                continue
            found = ([(KV, hits) for KV in b_divisors if (hits := vs.get(KV))]
                     if len(vs) > len(b_divisors)
                     else [(KV, hits) for KV, hits in vs.items() if KV in b_set])
            for KV, hits in found:
                base = KA - KU - (KV << half)
                it = iter(hits)
                for g, shift_j, shift_i, step in zip(it, it, it, it):
                    key = base + step
                    out[key] = get(key, 0) + c * g * (
                        ((key >> shift_j) & mask) * ((key >> shift_i) & mask)
                    )
    if m._orbits:
        out = _orbit_sums(pk, out)
    nums = m._functionals[k] = {key: c for key, c in out.items() if c}
    return nums


def _pair(m, k, g, stored, out):
    """Add into out step k's reads of degree 2k - 2 of an upper or full
    store over g (_laplacian_functional): N_{k-1}(K) v / g at e_j + e_i for
    each term (K, v) of entry (i, j), and of its mate, K's halves swapped."""
    pk, e, prev = m.potential.pk, 2 * k - 2, m._functionals[k - 1]
    units, n, half = pk.units, m.n, pk.half
    low, zeros, get = units[n] - 1, repeat(0), prev.get
    if stored[-1][0] is None:  # an upper store: N_{k-1} with its keys' halves swapped
        mate = {K >> half | (K & low) << half: c for K, c in prev.items()}.get
    for a, row in enumerate(stored):
        for b, entry in enumerate(row):
            if entry is not None and e < len(entry) and entry[e]:
                keys, values = entry[e].keys(), entry[e].values()
                key = units[b] + units[n + a]
                out[key] = out.get(key, 0) + sum(map(mul, map(get, keys, zeros), values)) // g
                if stored[b][a] is None:  # the mate (b, a)
                    key = units[a] + units[n + b]
                    out[key] = out.get(key, 0) + sum(
                        map(mul, map(mate, keys, zeros), values)) // g


def _orbit_sums(pk, out):
    """out summed over each S_n-orbit onto its representative, and each sum
    divided once by the orbit's size (see _laplacian_functional)."""
    sums = {}
    for key, c in out.items():
        if c:
            rep, size = _orbit(pk, key)
            sums.setdefault(rep, [0, size])[0] += c
    nums = {}
    for rep, (c, size) in sums.items():
        nums[rep], rest = divmod(c, size)
        if rest:
            raise JetError(f"lap^k orbit sum at {pk.unpack(rep)} is not a multiple of {size}")
    return nums


def _table_value(m: MetricJet, k, P, Q_):
    """lap^k(z^P zb^Q)(0), the entry of table k at (P, Q); TruncationError
    if it is not exact at the metric's validity (_laplacian_functional)."""
    p, q = sum(P), sum(Q_)
    if p > k or q > k or k and not (p and q):
        return ZERO  # beyond the table's support, and maybe beyond the slots
    _require(m, 2 * k - p - q + 2, f"lap^{k} at degree {p + q} needs the potential valid "
             f"to degree {2 * k - p - q + 2}, not {m.valid_degree}")
    nums = _laplacian_functional(m, k)
    pk = m.potential.pk
    key = pk.pack(P, Q_)
    c = nums.get(_orbit(pk, key)[0] if m._orbits else key)
    return ZERO if c is None else Q(c, m._pullback[0] ** k)


def _require(m: MetricJet, degree, message):
    """TruncationError(message) unless the metric is valid to degree."""
    if m.valid_degree < degree:
        raise TruncationError(message, required=degree)


def delta_power_at0(m: MetricJet, phi: Jet, k: int):
    """lap^k(phi)(0), exact.

    Needs the potential valid to 2k (inverse metric to 2k-2) and phi valid
    to 2k, since the value reads phi's coefficients through total degree 2k.
    """
    if k < 1:
        raise JetError("k must be a positive integer")
    _require(m, 2 * k, f"potential valid_degree {m.valid_degree} < {2 * k} needed for k={k}")
    if phi.n != m.n:
        raise DimensionMismatch("phi lives in a different variable space")
    if phi.valid_degree < 2 * k:
        raise ValidityError(
            f"phi valid_degree {phi.valid_degree} < {2 * k} needed for k={k}"
        )
    nums = _laplacian_functional(m, k)
    pk = m.potential.pk
    acc = 0
    # phi joins the metric's packing, which holds 2k, at the boundary
    for part in phi._parts_on(pk, 2 * k):
        for key, c in part.items():
            t = nums.get(_orbit(pk, key)[0] if m._orbits else key)
            if t is not None:
                acc += t * c
    return Q(acc, phi.den * m._pullback[0] ** k)


class EinsteinReport(Record):
    """lam is present exactly when the origin Einstein identity holds (residual 0)."""

    __slots__ = ("lam", "residual")


def einstein_constant(m: MetricJet) -> EinsteinReport:
    """Test sum_h (1/d_h) d^2 g_inv[i][j] / dz_h dzb_h (0) = lam delta_ij / d_i.

    In unit gauge this is the classical origin identity equivalent to
    Ric(0) = lam g(0); the 1/d weights extend it to rescaled-normal
    coordinates.  Requires a cubic-free potential so first derivatives of g
    vanish at the origin.  Since lap(z_j zb_i) = g_inv[i][j] and g_inv(0) =
    diag(1/d_h), the left side is lap^2(z_j zb_i)(0), the entry of table 2
    at (e_j, e_i).
    """
    if m._einstein is not None:
        return m._einstein
    if not m.cubic_free:
        raise GaugeError(
            "potential has degree-3 monomials; first metric derivatives do "
            "not vanish at the origin"
        )
    _require(m, 4, "inverse metric valid below degree 2")
    nums, pk, lg = _laplacian_functional(m, 2), m.potential.pk, m._pullback[0]
    n, units = m.n, pk.units
    p, q = [x.numerator for x in m.origin_diag], [x.denominator for x in m.origin_diag]
    big_q = lcm(*q)
    # d_i times the left side at (i, j), N_2 at z_j zb_i over Lg^2, is t_ij / (lcm(q) Lg^2);
    # on an orbit metric S_n moves every (i, j) to (0, 0) or (1, 0), so those suffice
    r = range(min(n, 2) if m._orbits else n)
    t = [[p[i] * (big_q // q[i]) * nums.get(_orbit(pk, K)[0] if m._orbits else K, 0)
          for K in [units[j] + units[n + i] for j in r]] for i in r]
    residual = max(abs(t[i][j] - (t[0][0] if i == j else 0)) for i in r for j in r)
    den = big_q * lg * lg
    report = (EinsteinReport(lam=None, residual=Q(residual, den)) if residual
              else EinsteinReport(lam=Q(t[0][0], den), residual=ZERO))
    m._einstein = report
    return report


def _fifth_derivatives(m: MetricJet):
    """(P, Q, |c| P! Q!) for each term c z^P zb^Q of bidegree (3, 2) of a
    cubic-free potential valid to degree 5: c P! Q! is its fifth derivative,
    d^3 g[a][b] / dz_g dzb_d dz_e (0) for every split P = e_a + e_g + e_e,
    Q = e_b + e_d, and no other term reaches those derivatives."""
    if not m.cubic_free:
        raise GaugeError("potential has degree-3 monomials")
    _require(m, 5, "potential valid_degree must be >= 5")
    unpack = m.potential.pk.unpack
    terms = [(*unpack(key), c) for key, c in m.potential.parts[5].items()]
    return [(P, Q_, abs(c) * prod(map(factorial, P + Q_))) for P, Q_, c in terms if sum(P) == 3]


def third_deriv_obstruction(m: MetricJet):
    """max |d^3 g[a][b] / dz_g dzb_d dz_e (0)| over all index tuples.

    Zero exactly when the curvature-derivative proxy vanishes at the origin.
    The derivative is the same for every split of the indices of a term
    (_fifth_derivatives), so the max runs over the potential's terms of
    bidegree (3, 2).
    """
    return Q(max((v for _, _, v in _fifth_derivatives(m)), default=0), m.potential.den)


def fifth_order_check(m: MetricJet):
    """max over all (i,j,h,k,l) of |the six-term symmetrized third-derivative
    sum of the inverse metric at the origin|:

        d_{h kb l} ginv[i][j] + d_{i kb l} ginv[h][j] + d_{i kb h} ginv[l][j]
      + d_{h jb l} ginv[i][k] + d_{i jb l} ginv[h][k] + d_{i jb h} ginv[l][k]

    On a cubic-free potential g_inv's degree-3 part is -g(0)^-1 A_3 g(0)^-1,
    A_3 g's degree-3 part, so d_{h kb l} ginv[i][j] = -F / (d_i d_j) with F
    the fifth derivative along P = e_i + e_h + e_l, Q = e_j + e_k, and the
    sum is -F (sum_a P_a / d_a)(sum_b Q_b / d_b): the max, over the
    potential's terms of bidegree (3, 2), of the gauge-weighted third
    derivative (_fifth_derivatives), 6 third_deriv_obstruction in unit
    gauge.  GaugeError on a potential that is not cubic-free.
    """
    def weighted(E):  # sum_a E_a / d_a
        return sum(x / d for x, d in zip(E, m.origin_diag))

    return max((v * weighted(P) * weighted(Q_) for P, Q_, v in _fifth_derivatives(m)),
               default=ZERO) / m.potential.den
