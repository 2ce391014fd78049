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
quartic part decides that verdict.  metric_with_inverse stores the reduced
integer parts (MetricJet._ginv) and indexes them for the lap^k pullback.
A Hermitian g_inv is given as its upper triangle: an entry None below the
diagonal is its mate above, the two halves of each key swapped.  One that
every permutation of the coordinates fixes is given as its column 0, an
n x 1 matrix: entry (i, j) is entry (sigma i, 0), sigma = (0 j), slots 0
and j swapped in both halves of each key.  Only the pullback index
(_pullback_index) reads them so, and MetricJet.g_inv, a JetMatrix, is
built from them on first read.  The origin checks read closed forms
instead: einstein_constant reads table 2, and third_deriv_obstruction and
fifth_order_check read the potential's terms of bidegree (3, 2).

One packing (jets._Packing) serves each metric: the potential's own.  g_inv
is built on it, and the lap^k pullback reads g_inv's keys as they are.  A
metric is valid to its own valid_degree D, and its slots hold every
exponent up to D, so up to the slot mask, which is at least that: g_inv's
exponents are at most D - 2, table k's at most k, and every caller needs
2k <= D (the duality table asks for k = 3 only once einstein_constant has
required D >= 4).  metric_from_potential takes D from the potential; a
Bergman family's is built only to min(D, 5) (catalog.build_space).

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

from math import factorial, lcm, prod

from .jets import DimensionMismatch, InputError, Jet, JetError, ValidityError
from .jets import _column_filled, _graded_inverse, _jet_matrix, _sum
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
    vanish at the origin.  _ginv holds the integer parts of Lg g_inv on the
    potential's packing, valid to D - 2 (column 0 alone with _orbits), and
    g_inv, if given None, is built from them on first read; _pullback is
    (Lg, index, lo), the index of those parts in the slots from lo on.
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
        pk, ginv = self.potential.pk, self._ginv
        ginv = _column_filled(pk, ginv) if self._orbits else ginv
        self.g_inv = _jet_matrix(pk, self._pullback[0], ginv)
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
    inverse(potential, solve) = (Lg, entries): entries[i][j] the integer
    graded parts of Lg g_inv[i][j] on the potential's packing, valid to
    D - 2 (None below the diagonal: the conjugate of the mate above; j = 0
    alone for solve "column"), reduced (jets._reduced), so that Lg is the
    lcm of the reduced denominators of g_inv.

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
    lg, ginv = inverse(potential, "column" if fixed else "upper" if real else "full")
    lo = max(n - D // 2 + 1, 0) if fixed else 0
    return MetricJet(
        n=n, potential=potential, valid_degree=D, origin_diag=tuple(diag),
        cubic_free=is_cubic_free(potential), g_inv=None,
        _pullback=(lg, _pullback_index(pk, ginv, lo, fixed), lo),
        _functionals={0: {0: 1}}, _orbits=fixed, _ginv=ginv)


def is_cubic_free(potential: Jet):
    """Whether no degree-3 term reaches g (has both halves nonzero): a
    pluriharmonic h + conj(h) does not, and changes no check."""
    low, half = potential.pk.units[potential.n] - 1, potential.pk.half
    return potential.valid_degree < 3 or not any(K & low and K >> half
                                                 for K in potential.parts[3])


def _pullback_index(pk, ginv, lo, orbits):
    """The pullback index of the integer parts of g_inv stored as ginv (column
    0 alone if orbits; see the module docstring), over the terms (U, V) of
    each entry (i, j) with no exponent of U below slot lo: packed U -> {V,
    packed as a holomorphic half -> [(integer, shift of slot j, shift of
    slot n + i, packed e_j + e_i - V) for each (i, j) carrying the term]},
    an entry None read as its mate, halves swapped.  A column term is
    dropped first if U has an exponent in slots 1..lo-1, which every
    transposition leaves below lo; (0 j) then moves it out of the window
    iff U_j > 0, or U_0 > 0 and j < lo."""
    n, bits, units, half, mask = pk.n, pk.bits, pk.units, pk.half, pk.mask
    low, below = units[n] - 1, units[lo] - 1
    index = {}
    if orbits:
        first, inner = mask * (units[0] + units[n]), below & ~mask
        for c, (entry,) in enumerate(ginv):
            at = ([(j, j) for j in range(n)] if c == 0  # the positions (i, j) reading entry c
                  else [(c, 0), (0, c)] + [(c, j) for j in range(1, n) if j != c])
            at = [(bits * j, bits * (n + i), units[j] + units[n + i],
                   lo and mask * units[j if j >= lo else 0]) for i, j in at]
            for part in entry:
                for K, v in part.items():
                    if K & inner:
                        continue
                    for shift_j, shift_i, step, out in at:
                        if not K & out:
                            KT = K ^ (y := (K ^ K >> shift_j) & first) ^ y << shift_j
                            V = KT >> half
                            index.setdefault(KT & low, {}).setdefault(V, []).append(
                                (v, shift_j, shift_i, step - (V << half)))
        return index
    for i, j in [p for a in range(n) for b in range(a, n)
                 for p in dict.fromkeys([(a, b), (b, a)])]:
        entry, swapped = (ginv[j][i], True) if ginv[i][j] is None else (ginv[i][j], False)
        shift_j, shift_i, step = bits * j, bits * (n + i), units[j] + units[n + i]
        for part in entry:
            for K, c in part.items():
                U, V = K & low, K >> half
                if swapped:
                    U, V = V, U
                if not U & below:
                    index.setdefault(U, {}).setdefault(V, []).append(
                        (c, shift_j, shift_i, step - (V << half)))
    return index


def _orbit(pk, key):
    """(representative, size) of a packed key's S_n-orbit.  The
    representative has the pairs (P_i, Q_i) sorted ascending: the orbit's
    least member in graded lexicographic order (P before Q, slot 0 first).
    Zero pairs sort first, so only the m nonzero ones are read, each found
    by the lowest set bit of P | Q (as Jet._parts_on finds slots), and
    placed in the last m slots; the size is n! / prod r!, r running over
    the multiplicities of the pairs, n - m that of the zero pair."""
    bits, mask, half = pk.bits, pk.mask, pk.half
    p, q = key & (1 << half) - 1, key >> half
    pairs, x = [], p | q  # each pair as the int P_i << bits | Q_i
    while x:
        s = ((x & -x).bit_length() - 1) // bits * bits
        pairs.append((p >> s & mask) << bits | q >> s & mask)
        x &= ~(mask << s)
    pairs.sort()
    s = half - bits * len(pairs)
    rep, size, run, last = 0, factorial(pk.n) // factorial(pk.n - len(pairs)), 1, None
    for v in pairs:
        rep |= (v >> bits) << s | (v & mask) << half + s
        s += bits
        run = run + 1 if v == last else 1
        size //= run
        last = v
    return rep, size


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
    g_inv's support instead of every divisor of (A, B).  Keys are packed,
    so (S, T) is the int sum of A - U and the index's e_j + e_i - V.
    Table k has |P| <= k and |Q| <= k, since each step adds one to |P| and
    one to |Q| and removes a divisor; so every k up to the slot mask is
    exact, and a larger k raises ValidityError.  N_k is what is stored and returned,
    packed key -> integer; _table_value and delta_power_at0 divide by Lg^k
    as they read it.

    Orbits.  When every permutation sigma of the coordinates fixes g_inv,
    that is g_inv[sigma i][sigma j] at sigma (U, V) is g_inv[i][j] at
    (U, V) (m._orbits, proved once at build), lap commutes with sigma and
    N_k(sigma P, sigma Q) = N_k(P, Q).  Each table then holds one key per
    S_n-orbit, its representative (_orbit): the pairs (P_i, Q_i) sorted
    ascending.  The step runs from the representatives of N_{k-1} alone,
    each weighed by its orbit's size n!/prod m!, and sums what it writes
    over each output orbit O onto O's representative.  Since the step
    commutes with sigma, a whole orbit of inputs puts the same total on O
    as |O_in| times its representative does, and that total is
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
    if (need := max(m.n - k + 1, 0) if m._orbits else 0) < lo:  # widen the window
        index = _pullback_index(pk, m._ginv, need, m._orbits)
        m._pullback = lg, index, need
    if m._orbits:  # one key per orbit: weigh each by the orbit's size
        prev = [(KA, c * _orbit(pk, KA)[1]) for KA, c in prev]
    out = {}
    get = out.get
    for KA, c in prev:
        KB, a_divisors = KA >> pk.half, pk.divisors(KA & low)
        b_divisors = a_divisors if KB == KA & low else pk.divisors(KB)
        b_set = set(b_divisors)
        for KU in a_divisors:
            vs = index.get(KU)
            if vs is None:
                continue
            base = KA - KU
            found = ([hits for KV in b_divisors if (hits := vs.get(KV))]
                     if len(vs) > len(b_divisors)
                     else [hits for KV, hits in vs.items() if KV in b_set])
            for hits in found:
                for g, shift_j, shift_i, step in hits:
                    key = base + step
                    out[key] = get(key, 0) + c * g * (
                        ((key >> shift_j) & mask) * ((key >> shift_i) & mask)
                    )
    if m._orbits:
        out = _orbit_sums(pk, out)
    nums = m._functionals[k] = {key: c for key, c in out.items() if c}
    return nums


def _orbit_sums(pk, out):
    """out summed over each S_n-orbit onto its representative, and divided
    by the orbit's size (see _laplacian_functional)."""
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
    """lap^k(z^P zb^Q)(0), the entry of table k at (P, Q)."""
    nums = _laplacian_functional(m, k)
    if sum(P) > k or sum(Q_) > k:
        return ZERO  # beyond the table's support, and maybe beyond the slots
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
