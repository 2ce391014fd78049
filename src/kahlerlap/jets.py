"""Exact truncated power series in paired variables z_1..z_n, zb_1..zb_n.

A Jet is a finite sparse map from monomials z^P * zb^Q to rational
coefficients, together with valid_degree: the total degree |P|+|Q| through
which the coefficients are trusted.  Validity is data, not convention; every
operation computes the validity of its result (min rule for products, minus
one per derivative), and using a jet past its validity raises.

Jets are immutable values: no operation mutates its operands or their
parts, which makes everything safe to evaluate concurrently and lets jets
share parts.

One representation.  A jet holds integers over one positive denominator
den, graded by total degree: parts[d], for d = 0..valid_degree, maps the
packed key of each monomial of degree d to its nonzero numerator.  den is
not canonical (a product's is the product of its operands'), so equality
cross-multiplies.  This is the form the kernels (_log1p_ints,
_graded_inverse, the lap^k pullback in metric) take and return,
fraction-free as in Bareiss (Math. Comp. 1968).  A packed key is one int per monomial (see
_Packing; Monagan & Pearce, CASC 2007), so the product of two monomials is
the sum of their keys.  Packings are shared, one per (n, slot width)
(packing()), and a jet's slots hold every exponent up to its validity.
When operands sit on different packings (a jet's slots may be wider than
its validity needs), the operation repacks them onto the narrowest, once.

Tuple keys and rationals appear only at the boundary: the constructor
Jet(n, {(P, Q): c}, D) and Jet.monomial/constant/zero validate,
pack and put the rationals over their lcm; the read-only view .coeffs gives
the tuple-keyed map of rationals back, and eval0 the constant term.
substitute_radial writes each t^m of a radial profile straight into its
degree-2m part on the diagonal keys z^P zb^P (diagonal_keys, walked once
per packing and degree).
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import factorial, gcd, lcm
from types import MappingProxyType

from .rationals import Q, as_q


class InputError(ValueError):
    """Input that the engine refuses: the command line exits 2 on it."""


class JetError(ValueError):
    pass


class ValidityError(JetError):
    """Degree overflow, exhausted validity, or insufficient series order."""


class DimensionMismatch(JetError):
    pass


class NonInvertibleError(JetError):
    """Matrix inverse with a singular constant term."""


class _Packing:
    """Exponent pairs (P, Q) of n variables packed into one int.

    Slot s, bits wide with slot 0 lowest, holds P[s] for s < n and Q[s - n]
    for s >= n; units[s] is the key of the unit exponent in slot s, and the
    Q half starts at bit `half`.  mask is the largest exponent a slot holds.
    The product of two monomials is the sum of their keys, and a quotient
    by a divisor their difference, exact as long as every exponent formed
    stays at most mask: no carry or borrow crosses a slot.
    """

    __slots__ = ("n", "bits", "mask", "half", "units", "orbits")

    def __init__(self, n, bits):
        self.n, self.bits, self.mask, self.half = n, bits, (1 << bits) - 1, n * bits
        self.units = tuple(1 << bits * s for s in range(2 * n))
        self.orbits = {}  # key -> (representative, size) of its S_n-orbit (metric._orbit)

    def pack(self, P, Q_):
        key = 0
        for e in reversed((*P, *Q_)):
            key = key << self.bits | e
        return key

    def unpack(self, key):
        out = []
        for _ in range(2 * self.n):
            out.append(key & self.mask)
            key >>= self.bits
        return tuple(out[: self.n]), tuple(out[self.n :])

    def divisors(self, key):
        """Packed keys of every (U, V) <= (P, Q), built slot by slot."""
        out = [0]
        unit = 1
        while key:
            e = key & self.mask
            if e:
                out = [u + t * unit for t in range(e + 1) for u in out]
            key >>= self.bits
            unit <<= self.bits
        return out


def packing(n, valid_degree):
    """The shared packing of n variables whose slots hold valid_degree."""
    return _shared_packing(n, max(1, valid_degree.bit_length()))


@cache
def _shared_packing(n, bits):
    return _Packing(n, bits)


@cache
def diagonal_keys(pk, p):
    """The diagonal monomials z^P zb^P with |P| = p on packing pk, as
    (packed key, P!) in lexicographic order of P (slot 0 first), walked
    once per packing and degree: P's successor, with e = P_j in its last
    nonzero slot j, adds 1 to P_{j-1} and moves e - 1 to slot n - 1."""
    n, units = pk.n, pk.units
    P, j = [0] * (n - 1) + [p], n - 1 if p else 0
    key, f = p * units[n - 1], factorial(p)
    out = [(key + (key << pk.half), f)]
    while j:
        e, a = P[j], P[j - 1]
        P[j], P[j - 1] = 0, a + 1
        P[-1] += e - 1
        key += units[j - 1] - e * units[j] + (e - 1) * units[n - 1]
        f, j = f * (a + 1) // e, n - 1 if e > 1 else j - 1
        out.append((key + (key << pk.half), f))
    return out


def _scaled(parts, w):
    """Graded parts times the integer w; the parts themselves when w is 1."""
    return parts if w == 1 else [{K: c * w for K, c in part.items()} for part in parts]


def _reduced(den, entries):
    """(den, entries) divided through by the gcd of den and every numerator
    of the integer parts entries[i][j], each a list of dicts."""
    g = 1 if den == 1 else gcd(
        den, *(c for row in entries for e in row for part in e for c in part.values()))
    if g == 1:
        return den, entries
    return den // g, [[[{K: c // g for K, c in part.items()} for part in e] for e in row]
                      for row in entries]


def _add_into(acc, parts):
    """Add graded parts into the graded parts acc on one packing, in place,
    dropping the zeros; acc's length bounds the degree.  Returns acc."""
    for out, part in zip(acc, parts):
        get = out.get
        for K, c in part.items():
            c += get(K, 0)
            if c:
                out[K] = c
            else:
                del out[K]
    return acc


def _mul_into(acc, x, y):
    """Add x y into acc, in place; all three map packed key -> integer."""
    get = acc.get
    for Kx, cx in x.items():
        for Ky, cy in y.items():
            K = Kx + Ky
            acc[K] = get(K, 0) + cx * cy


def _mul_parts(a, b):
    """The product of graded parts a and b on one packing, cut at the degree
    of a: the parts are paired by degree, so nothing past it is computed."""
    D = len(a) - 1
    out = [{} for _ in range(D + 1)]
    bs = [(db, pb) for db, pb in enumerate(b) if pb]
    for da, pa in enumerate(a):
        if not pa:
            continue
        for db, pb in bs:
            if da + db > D:
                break
            _mul_into(out[da + db], pa, pb)
    return [{K: c for K, c in acc.items() if c} for acc in out]


def _conj_parts(pk, parts):
    """Graded parts with the P and Q halves of every key swapped."""
    half = pk.half
    low = (1 << half) - 1
    return [{K >> half | (K & low) << half: c for K, c in part.items()} for part in parts]


def _align(jets):
    """(packing, validity) of an operation on jets of one variable space:
    the narrowest of their packings and the smallest of their validities."""
    n, pk, D = jets[0].n, jets[0].pk, jets[0].valid_degree
    for jet in jets:
        if jet.n != n:
            raise DimensionMismatch(f"variable counts differ: {n} vs {jet.n}")
        if jet.pk.bits < pk.bits:
            pk = jet.pk
        D = min(D, jet.valid_degree)
    return pk, D


def _sum(jets):
    """The sum of one or more jets, over the lcm of their denominators."""
    pk, D = _align(jets)
    den = lcm(*(jet.den for jet in jets))
    acc = [{} for _ in range(D + 1)]
    for jet in jets:
        _add_into(acc, _scaled(jet._parts_on(pk, D), den // jet.den))
    return Jet._of(jets[0].n, pk, den, acc)


class Jet:
    __slots__ = ("n", "valid_degree", "pk", "den", "parts")

    def __init__(self, n, coeffs, valid_degree):
        """Validate and pack a tuple-keyed map {(P, Q): c} of rationals, put
        over the lcm of their denominators."""
        if n < 1:
            raise DimensionMismatch("need at least one variable")
        if valid_degree < 0:
            raise ValidityError("valid_degree must be >= 0")
        pk = packing(n, valid_degree)
        parts = [{} for _ in range(valid_degree + 1)]
        for (P, Q_), c in coeffs.items():
            if len(P) != n or len(Q_) != n:
                raise DimensionMismatch("exponent vector length != n")
            if min(P) < 0 or min(Q_) < 0:
                raise JetError("negative exponent")
            d = sum(P) + sum(Q_)
            if d > valid_degree:
                raise ValidityError(
                    f"monomial of degree {d} exceeds valid_degree {valid_degree}"
                )
            c = as_q(c)
            if c:
                parts[d][pk.pack(P, Q_)] = c
        den = lcm(*(c.denominator for part in parts for c in part.values()))
        self.n, self.valid_degree, self.pk, self.den = n, valid_degree, pk, den
        self.parts = [{K: c.numerator * (den // c.denominator) for K, c in part.items()}
                      for part in parts]

    @classmethod
    def _of(cls, n, pk, den, parts):
        """The jet with these integer graded parts over den > 0 on packing
        pk, valid through len(parts) - 1.  Trusted: the caller guarantees
        that every key of parts[d] is a degree-d monomial within pk's slots,
        and no zeros."""
        jet = object.__new__(cls)
        jet.n, jet.valid_degree, jet.pk, jet.den, jet.parts = n, len(parts) - 1, pk, den, parts
        return jet

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n, valid_degree):
        return cls(n, {}, valid_degree)

    @classmethod
    def constant(cls, n, c, valid_degree):
        zero_mi = (0,) * n
        return cls(n, {(zero_mi, zero_mi): c}, valid_degree)

    @classmethod
    def monomial(cls, n, P, Q_, c, valid_degree):
        return cls(n, {(tuple(P), tuple(Q_)): c}, valid_degree)

    # -- basics ------------------------------------------------------------

    @property
    def coeffs(self):
        """Read-only view of the terms as {(P, Q): rational coefficient}."""
        unpack, den = self.pk.unpack, self.den
        return MappingProxyType(
            {unpack(K): Q(c, den) for part in self.parts for K, c in part.items()}
        )

    def _parts_on(self, pk, D):
        """The parts of degree <= D on packing pk, repacked if self has
        another; pk must hold D.  Only a key's nonzero slots move, each
        found by the key's lowest set bit."""
        parts = self.parts[: D + 1]
        if self.pk is pk:
            return parts
        bits, mask, to = self.pk.bits, self.pk.mask, pk.bits
        out = [{} for _ in parts]
        for moved, part in zip(out, parts):
            for K, c in part.items():
                key = 0
                while K:
                    s = ((K & -K).bit_length() - 1) // bits
                    key |= (K >> bits * s & mask) << to * s
                    K &= ~(mask << bits * s)
                moved[key] = c
        return out

    def __eq__(self, other):  # den is not canonical: the difference cross-multiplies
        return (isinstance(other, Jet) and self.n == other.n
                and self.valid_degree == other.valid_degree and (self - other).is_zero())

    __hash__ = None

    def is_zero(self):
        return not any(self.parts)

    def __repr__(self):
        terms = []
        for (P, Q_), c in sorted(
            self.coeffs.items(), key=lambda kv: (sum(kv[0][0]) + sum(kv[0][1]), kv[0])
        ):
            factors = [
                f"{v}{i + 1}" + (f"^{e}" if e > 1 else "")
                for v, exps in (("z", P), ("zb", Q_))
                for i, e in enumerate(exps)
                if e
            ]
            mono = "*".join(factors)
            terms.append(f"{c}*{mono}" if mono else f"{c}")
        body = " + ".join(terms) if terms else "0"
        return f"Jet({body}; D={self.valid_degree})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(self.n, other, self.valid_degree)
        return _sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return Jet._of(self.n, self.pk, self.den, _scaled(self.parts, -1))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = as_q(c)
        if c == 0:
            return Jet._of(self.n, self.pk, 1, [{} for _ in self.parts])
        return Jet._of(
            self.n, self.pk, self.den * c.denominator, _scaled(self.parts, c.numerator)
        )

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self.scale(other)
        pk, D = _align((self, other))
        return Jet._of(
            self.n, pk, self.den * other.den,
            _mul_parts(self._parts_on(pk, D), other._parts_on(pk, D)),
        )

    def __rmul__(self, other):
        return self.scale(other)

    # -- calculus ----------------------------------------------------------

    def dz(self, i):
        """Formal partial derivative with respect to z_i (0-based)."""
        return self._derivative(i, i)

    def dzbar(self, i):
        """Formal partial derivative with respect to conj(z_i) (0-based)."""
        return self._derivative(i, self.n + i)

    def _derivative(self, i, slot):
        if not 0 <= i < self.n:
            raise DimensionMismatch(f"no variable {i} among {self.n}")
        if self.valid_degree == 0:
            raise ValidityError("validity exhausted: cannot differentiate")
        pk = self.pk
        shift, mask, unit = pk.bits * slot, pk.mask, pk.units[slot]
        out = []
        for part in self.parts[1:]:
            acc = {}
            for K, c in part.items():
                e = K >> shift & mask
                if e:
                    acc[K - unit] = c * e
            out.append(acc)
        return Jet._of(self.n, pk, self.den, out)

    def eval0(self):
        """The constant-term coefficient (value at the origin), a rational."""
        return Q(self.parts[0].get(0, 0), self.den)

    def conj(self):
        """Complex conjugate: rational coefficients stay, exponent roles swap."""
        return Jet._of(self.n, self.pk, self.den, _conj_parts(self.pk, self.parts))


def log1p(s: Jet) -> Jet:
    """log(1 + s) for a jet s with zero constant term (_log1p_ints), on the
    packing of s."""
    if s.parts[0]:
        raise JetError("log1p needs a zero constant term")
    return Jet._of(s.n, s.pk, *_log1p_ints(s.den, s.parts))


def _log1p_ints(ls, parts):
    """log(1 + parts / ls) for integer graded parts with no constant term,
    as (den, integer parts), on the packing of parts and cut at its degree D.

    A graded solve, as in _graded_inverse.  With s = parts / ls and
    L = log(1 + s) split into homogeneous parts, the Euler operator E
    (degree d part times d) gives (1 + s) E L = E s, so degree by degree
    L_d = s_d - (1/d) sum_{e=1..d-1} (d-e) s_e L_{d-e}.  Multiplied by
    d! ls^d, with s' = ls s = parts, it runs on the integers N_d = d! ls^d L_d:

        N_d = d! ls^(d-1) s'_d
              - sum_{e=1..d-1} (d-e) (d-1)!/(d-e)! ls^(e-1) s'_e N_{d-e},

    and den = D! ls^D, reduced (_reduced): a nested log takes it as its ls.
    """
    D = len(parts) - 1
    # terms[e]: the terms of s'_e, as (packed key, integer)
    terms = [list(part.items()) for part in parts]
    # nums[d]: N_d, as packed key -> integer
    nums = [{}]
    for d in range(1, D + 1):
        lead = factorial(d) * ls ** (d - 1)
        acc = {K: lead * a for K, a in terms[d]}
        get = acc.get
        for e in range(1, d):
            if not terms[e]:
                continue
            w = (d - e) * (factorial(d - 1) // factorial(d - e)) * ls ** (e - 1)
            for K2, b in nums[d - e].items():
                b *= w
                for K, a in terms[e]:
                    key = K + K2
                    acc[key] = get(key, 0) - a * b
        nums.append({K: c for K, c in acc.items() if c})
    den = factorial(D) * ls**D
    ws = [den // (factorial(d) * ls**d) for d in range(D + 1)]
    parts = [{K: c * w for K, c in part.items()} for part, w in zip(nums, ws)]
    den, [[parts]] = _reduced(den, [[parts]])  # as a 1 x 1 matrix
    return den, parts


def substitute_radial(f, n, valid_degree, slots=0) -> Jet:
    """The jet f(|z_1|^2 + ... + |z_n|^2) to valid_degree, on the packing
    of max(valid_degree, slots).

    f is the coefficient tuple (a_0, ..., a_order) of a t-series, trusted
    through t^order, which must reach t^ceil(D/2).  A packed kernel: the
    term a_m t^m of f is the sum of a_m m!/P! z^P zb^P over |P| = m, written
    straight into the degree-2m part (diagonal_keys(pk, m)), over L, the lcm
    of the denominators of the a_m: one integer a_m L m!/P! per value of P!.
    """
    need = (valid_degree + 1) // 2
    if len(f) <= need:
        raise ValidityError(
            f"series order {len(f) - 1} insufficient: need t^{need} for degree "
            f"{valid_degree}"
        )
    top = max((m for m in range(valid_degree // 2 + 1) if f[m]), default=-1)
    if n < 1 and top >= 0:
        raise DimensionMismatch(f"need n >= 1 variables, got {n}")
    jet = Jet.zero(n, valid_degree)
    jet.pk = packing(n, max(valid_degree, slots))
    jet.den = L = lcm(*(f[m].denominator for m in range(top + 1)))
    for m in range(top + 1):
        a, fm = f[m], factorial(m)
        if a:
            diagonal = diagonal_keys(jet.pk, m)
            num = a.numerator * (L // a.denominator)
            weight = {p: num * (fm // p) for p in {p for _, p in diagonal}}
            jet.parts[2 * m] = {K: weight[p] for K, p in diagonal}
    return jet


class JetMatrix:
    """Rectangular matrix of jets sharing n, one valid_degree and one
    packing; construction refuses entries that do not (JetError)."""

    __slots__ = ("rows", "cols", "n", "valid_degree", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise DimensionMismatch("empty matrix")
        rows = len(entries)
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise DimensionMismatch("ragged rows")
        n, D, pk = entries[0][0].n, entries[0][0].valid_degree, entries[0][0].pk
        if any(e.n != n for row in entries for e in row):
            raise DimensionMismatch("entries live in different variable spaces")
        if any(e.valid_degree != D or e.pk is not pk for row in entries for e in row):
            raise JetError("entries differ in validity or packing")
        self.rows, self.cols, self.n, self.valid_degree, self.entries = rows, cols, n, D, entries

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):  # equal entries have equal shapes
        return isinstance(other, JetMatrix) and self.entries == other.entries

    __hash__ = None

    def __repr__(self):
        return f"JetMatrix({self.entries!r})"

    def det(self):
        """Determinant over the jet ring, exact at the shared validity:
        expansion along rows, memoized on the set of free columns; no
        division, so it works for any entries."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        m, entries = self.rows, self.entries
        zero = entries[0][0].scale(0)
        one = Jet._of(zero.n, zero.pk, 1, [{0: 1}] + zero.parts[1:])

        @cache
        def minor(row, free):  # free: the bit mask of the free columns
            if row == m:
                return one
            terms, sign = [zero], 1
            for col in (col for col in range(m) if free >> col & 1):
                if not entries[row][col].is_zero():
                    term = entries[row][col] * minor(row + 1, free & ~(1 << col))
                    terms.append(term if sign > 0 else -term)
                sign = -sign
            return _sum(terms)

        return minor(0, (1 << m) - 1)

    def inverse(self):
        """Matrix inverse over the jet ring, G X = X G = I: every entry solved
        by _graded_inverse, with A the entries over their lcm and A_0^{-1}
        exact over the rationals (_invert_rational: any invertible A_0)."""
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        m, D, pk = self.rows, self.valid_degree, self.entries[0][0].pk
        den = lcm(*(e.den for row in self.entries for e in row))
        ints = [[_scaled(e.parts, den // e.den) for e in row] for row in self.entries]
        a0_inv = _invert_rational([[e[0].get(0, 0) for e in row] for row in ints])
        L = lcm(*(c.denominator for row in a0_inv for c in row))
        h = [[c.numerator * (L // c.denominator) for c in row] for row in a0_inv]
        bs = [None] + [[[{} for _ in range(m)] for _ in range(m)] for _ in range(D)]
        for e, i, k, l in product(range(1, D + 1), range(m), range(m), range(m)):
            if h[i][l]:  # a zero that the sum leaves is dropped in the solve
                _mul_into(bs[e][i][k], {0: -(L ** (e - 1)) * h[i][l]}, ints[l][k][e])
        den, xs = _reduced(*_graded_inverse(pk, L, h, bs, den))
        return JetMatrix([[Jet._of(self.n, pk, den, x) for x in row] for row in xs])


def _graded_inverse(pk, L, h, bs, den, solve="full"):
    """The inverse over the jet ring of G = A / den, valid to degree D, as
    (L', entries[i][j]), the integer parts of L' G^{-1}[i][j] on packing pk,
    whose slots hold every exponent up to D, one dict per degree, not
    reduced (_reduced, or the metric's pullback index as it writes them).
    solve names the entries solved: "full" all; "upper" i <= j (G
    Hermitian), None below; "column" j = 0 alone (G fixed by every
    permutation of the coordinates), n x 1.

    A graded solve (Brent & Kung, JACM 1978): with A = A_0 + A_1 + ... in
    homogeneous parts, X = A^{-1} has X_0 = A_0^{-1} and
    X_d = sum_{e=1..d} B_e X_{d-e}, B_e = -A_0^{-1} A_e.  Column j of X_d
    reads only column j of the X_{d-e}: a column solve is closed, and an
    upper one reads each entry below the diagonal as its mate's conjugate.
    It runs on integers, fraction-free as in Bareiss (Math. Comp. 1968): the
    caller gives L, H = L A_0^{-1} and bs[e] = L^e B_e = -L^(e-1) H A_e, all
    integral, and X'_d = L^(1+d) X_d has X'_0 = H and X'_d = sum_e bs[e]
    X'_{d-e}, so G^{-1} is den X'_d L^(D-d) over L^(1+D), before reduction.
    """
    m, D = len(h), len(bs) - 1
    js = [range(i, m) if solve == "upper" else range(1 if solve == "column" else m)
          for i in range(m)]  # js[i]: the columns solved in row i
    xs = [[[{0: c} if c else {} for c in row] for row in h]]  # xs[d][k][j]: X'_d[k][j]
    for d in range(1, D + 1):
        xd = [[{} for _ in range(m)] for _ in range(m)]
        for e in range(1, d + 1):
            x = xs[d - e]
            for i, row in enumerate(bs[e]):
                for k, terms in enumerate(row):
                    if terms:
                        for j in js[i]:
                            if x[k][j]:
                                _mul_into(xd[i][j], x[k][j], terms)
        xd = [[{K: c for K, c in part.items() if c} for part in row] for row in xd]
        if solve == "upper":  # below the diagonal: the conjugate of the mate
            for i in range(m):
                xd[i][:i] = _conj_parts(pk, [row[i] for row in xd[:i]])
        xs.append(xd)
    top = L ** (1 + D)
    ws = [den * top // L ** (1 + d) for d in range(D + 1)]
    out = [[None] * cols.start + [[x[i][j] if w == 1 else {K: c * w for K, c in x[i][j].items()}
                                   for x, w in zip(xs, ws)] for j in cols]
           for i, cols in enumerate(js)]  # an upper row has None before its columns
    return top, out


def _invert_rational(mat):
    """Exact inverse of a square rational matrix (Gauss-Jordan on [A | I])."""
    m = len(mat)
    a = [[as_q(x) for x in row] + [Q(int(i == j)) for j in range(m)] for i, row in enumerate(mat)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col]), None)
        if pivot is None:
            raise NonInvertibleError("singular constant term")
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(m):
            if r != col and (f := a[r][col]):
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[m:] for row in a]
