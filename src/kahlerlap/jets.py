"""Exact truncated power series in paired variables z_1..z_n, zb_1..zb_n.

A Jet is a finite sparse map (P, Q) -> rational coefficient for monomials
z^P * zb^Q, together with valid_degree: the total degree |P|+|Q| through
which the coefficients are trusted.  Validity is data, not convention; every
operation computes the validity of its result (min rule for products, minus
one per derivative), and using a jet past its validity raises.

Coefficients are exact rationals.  Zero coefficients are never stored, so
jet equality is map equality.  Jets are immutable values: no operation
mutates its operands, which makes everything safe to evaluate concurrently.

Rationals are what a Jet holds and what every function takes and returns.
The graded kernels (_graded_inverse, behind JetMatrix.inverse and
metric.metric_from_potential, log1p, and the lap^k pullback in metric)
compute inside on packed exponent keys, one int per monomial (see
_Packing; Monagan & Pearce, CASC 2007), and on integer numerators over one
shared denominator per degree, fraction-free as in Bareiss (Math. Comp.
1968).  Each output coefficient becomes a rational once, at the end.
"""

from __future__ import annotations

from math import factorial, lcm

from .rationals import Q, ZERO, as_q
from .series import TSeries


class JetError(ValueError):
    pass


class ValidityError(JetError):
    """Degree overflow, exhausted validity, or insufficient series order."""


class DimensionMismatch(JetError):
    pass


class NonInvertibleError(JetError):
    """Matrix inverse with a singular constant term."""


def weight(exponents) -> int:
    return sum(exponents)


def mi_factorial(exponents):
    out = 1
    for e in exponents:
        out *= factorial(e)
    return out


def multiindices(n, total):
    """All exponent vectors of length n with entries summing to total."""
    if n < 1:
        raise ValueError(f"need n >= 1 variables, got {n}")
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in multiindices(n - 1, total - first):
            yield (first,) + rest


class _Packing:
    """Exponent pairs (P, Q) of n variables packed into one int.

    Slot s, bits wide with slot 0 lowest, holds P[s] for s < n and Q[s - n]
    for s >= n.  The width is the least with 2**bits > max_exponent, so
    every exponent up to max_exponent fits in its slot.  The product of two
    monomials is then the sum of their keys, and a quotient by a divisor
    their difference, exact as long as every exponent formed stays at most
    max_exponent: no carry or borrow crosses a slot.  Each kernel passes a
    bound on every exponent it can form.
    """

    __slots__ = ("n", "bits", "mask", "_packed", "_unpacked")

    def __init__(self, n, max_exponent):
        self.n = n
        self.bits = max(1, max_exponent.bit_length())
        self.mask = (1 << self.bits) - 1
        # the halves P and Q recur across keys: memos tuple -> int -> tuple
        self._packed = {}
        self._unpacked = {}

    def pack(self, P, Q_):
        return self._pack_half(P) | self._pack_half(Q_) << self.n * self.bits

    def unpack(self, key):
        shift = self.n * self.bits
        low = key & ((1 << shift) - 1)
        return self._unpack_half(low), self._unpack_half(key >> shift)

    def _pack_half(self, exps):
        key = self._packed.get(exps)
        if key is None:
            key = 0
            for e in reversed(exps):
                key = key << self.bits | e
            self._packed[exps] = key
        return key

    def _unpack_half(self, key):
        exps = self._unpacked.get(key)
        if exps is None:
            out, rest = [], key
            for _ in range(self.n):
                out.append(rest & self.mask)
                rest >>= self.bits
            exps = self._unpacked[key] = tuple(out)
        return exps

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


class Jet:
    __slots__ = ("n", "coeffs", "valid_degree")

    def __init__(self, n, coeffs, valid_degree):
        if n < 1:
            raise DimensionMismatch("need at least one variable")
        if valid_degree < 0:
            raise ValidityError("valid_degree must be >= 0")
        clean = {}
        for (P, Q_), c in coeffs.items():
            if c == 0:
                continue
            if len(P) != n or len(Q_) != n:
                raise DimensionMismatch("exponent vector length != n")
            if min(P) < 0 or min(Q_) < 0:
                raise JetError("negative exponent")
            if weight(P) + weight(Q_) > valid_degree:
                raise ValidityError(
                    f"monomial of degree {weight(P) + weight(Q_)} exceeds "
                    f"valid_degree {valid_degree}"
                )
            clean[(P, Q_)] = c
        self.n = n
        self.coeffs = clean
        self.valid_degree = valid_degree

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n, valid_degree):
        return cls(n, {}, valid_degree)

    @classmethod
    def constant(cls, n, c, valid_degree):
        zero_mi = (0,) * n
        return cls(n, {(zero_mi, zero_mi): as_q(c)}, valid_degree)

    @classmethod
    def monomial(cls, n, P, Q_, c, valid_degree):
        P, Q_ = tuple(P), tuple(Q_)
        if weight(P) + weight(Q_) > valid_degree:
            raise ValidityError(
                f"monomial degree {weight(P) + weight(Q_)} exceeds "
                f"valid_degree {valid_degree}"
            )
        return cls(n, {(P, Q_): as_q(c)}, valid_degree)

    @classmethod
    def variable(cls, n, i, valid_degree):
        """The coordinate z_i (0-based)."""
        P = tuple(1 if a == i else 0 for a in range(n))
        return cls.monomial(n, P, (0,) * n, 1, valid_degree)

    # -- basics ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Jet)
            and self.n == other.n
            and self.valid_degree == other.valid_degree
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def is_zero(self):
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for (P, Q_), c in sorted(
                self.coeffs.items(),
                key=lambda kv: (weight(kv[0][0]) + weight(kv[0][1]), kv[0]),
            ):
                factors = []
                for i, e in enumerate(P):
                    if e:
                        factors.append(f"z{i + 1}" + (f"^{e}" if e > 1 else ""))
                for i, e in enumerate(Q_):
                    if e:
                        factors.append(f"zb{i + 1}" + (f"^{e}" if e > 1 else ""))
                mono = "*".join(factors)
                parts.append(f"{c}*{mono}" if mono else f"{c}")
            body = " + ".join(parts)
        return f"Jet({body}; D={self.valid_degree})"

    # -- ring operations ---------------------------------------------------

    def _check_same_space(self, other):
        if self.n != other.n:
            raise DimensionMismatch(
                f"variable counts differ: {self.n} vs {other.n}"
            )

    def __add__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(self.n, other, self.valid_degree)
        self._check_same_space(other)
        D = min(self.valid_degree, other.valid_degree)
        out = {}
        for key, c in self.coeffs.items():
            if weight(key[0]) + weight(key[1]) <= D:
                out[key] = c
        for key, c in other.coeffs.items():
            if weight(key[0]) + weight(key[1]) > D:
                continue
            s = out.get(key, ZERO) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return Jet(self.n, out, D)

    __radd__ = __add__

    def __neg__(self):
        return Jet(
            self.n, {k: -c for k, c in self.coeffs.items()}, self.valid_degree
        )

    def __sub__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(self.n, other, self.valid_degree)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = as_q(c)
        if c == 0:
            return Jet.zero(self.n, self.valid_degree)
        return Jet(
            self.n, {k: c * v for k, v in self.coeffs.items()}, self.valid_degree
        )

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self.scale(other)
        self._check_same_space(other)
        D = min(self.valid_degree, other.valid_degree)
        # bucket the right factor by total degree so high-degree pairs are
        # skipped instead of computed and discarded
        buckets = {}
        for key, c in other.coeffs.items():
            buckets.setdefault(weight(key[0]) + weight(key[1]), []).append((key, c))
        out = {}
        for (P, Q_), a in self.coeffs.items():
            da = weight(P) + weight(Q_)
            if da > D:
                continue
            for db in range(0, D - da + 1):
                for (P2, Q2), b in buckets.get(db, ()):
                    key = (
                        tuple(x + y for x, y in zip(P, P2)),
                        tuple(x + y for x, y in zip(Q_, Q2)),
                    )
                    s = out.get(key, ZERO) + a * b
                    if s == 0:
                        out.pop(key, None)
                    else:
                        out[key] = s
        return Jet(self.n, out, D)

    def __rmul__(self, other):
        return self.scale(other)

    def __truediv__(self, c):
        return self.scale(Q(1) / as_q(c))

    # -- calculus ----------------------------------------------------------

    def dz(self, i):
        """Formal partial derivative with respect to z_i (0-based)."""
        if self.valid_degree == 0:
            raise ValidityError("validity exhausted: cannot differentiate")
        out = {}
        for (P, Q_), c in self.coeffs.items():
            e = P[i]
            if e:
                P2 = P[:i] + (e - 1,) + P[i + 1 :]
                out[(P2, Q_)] = c * e
        return Jet(self.n, out, self.valid_degree - 1)

    def dzbar(self, i):
        """Formal partial derivative with respect to conj(z_i) (0-based)."""
        if self.valid_degree == 0:
            raise ValidityError("validity exhausted: cannot differentiate")
        out = {}
        for (P, Q_), c in self.coeffs.items():
            e = Q_[i]
            if e:
                Q2 = Q_[:i] + (e - 1,) + Q_[i + 1 :]
                out[(P, Q2)] = c * e
        return Jet(self.n, out, self.valid_degree - 1)

    def eval0(self):
        """The constant-term coefficient (value at the origin)."""
        zero_mi = (0,) * self.n
        return self.coeffs.get((zero_mi, zero_mi), ZERO)

    def conj(self):
        """Complex conjugate: rational coefficients stay, exponent roles swap."""
        return Jet(
            self.n,
            {(Q_, P): c for (P, Q_), c in self.coeffs.items()},
            self.valid_degree,
        )

    def truncated(self, valid_degree):
        if valid_degree > self.valid_degree:
            raise ValidityError("cannot raise validity by truncation")
        out = {
            k: c
            for k, c in self.coeffs.items()
            if weight(k[0]) + weight(k[1]) <= valid_degree
        }
        return Jet(self.n, out, valid_degree)


def log1p(s: Jet) -> Jet:
    """log(1 + s) for a jet s with zero constant term.

    A graded solve, as in JetMatrix.inverse.  With s and L = log(1 + s)
    split into homogeneous parts, the Euler operator E (degree d part times
    d) gives (1 + s) E L = E s, so degree by degree

        L_d = s_d - (1/d) sum_{e=1..d-1} (d-e) s_e L_{d-e}.

    The solve runs on integers.  With Ls the lcm of the denominators of s
    and s' = Ls s, the numerators N_d = d! Ls^d L_d are integral, since
    multiplying the recursion by d! Ls^d gives

        N_d = d! Ls^(d-1) s'_d
              - sum_{e=1..d-1} (d-e) (d-1)!/(d-e)! Ls^(e-1) s'_e N_{d-e}.

    Exponent pairs are packed (_Packing) with slots for exponents up to
    valid_degree, which bounds every exponent of every part.  Each
    coefficient of L becomes a rational once, as N_d / (d! Ls^d).
    """
    if s.eval0() != 0:
        raise JetError("log1p needs a zero constant term")
    D = s.valid_degree
    pk = _Packing(s.n, D)
    ls = lcm(*(c.denominator for c in s.coeffs.values()))
    # parts[e]: the terms of s'_e, as (packed key, integer)
    parts = [[] for _ in range(D + 1)]
    for (P, Q_), c in s.coeffs.items():
        parts[weight(P) + weight(Q_)].append(
            (pk.pack(P, Q_), c.numerator * (ls // c.denominator))
        )
    # nums[d]: N_d, as packed key -> integer
    nums = [{}]
    out = {}
    for d in range(1, D + 1):
        lead = factorial(d) * ls ** (d - 1)
        acc = {K: lead * a for K, a in parts[d]}
        get = acc.get
        for e in range(1, d):
            terms = parts[e]
            if not terms:
                continue
            w = (d - e) * (factorial(d - 1) // factorial(d - e)) * ls ** (e - 1)
            for K2, b in nums[d - e].items():
                b *= w
                for K, a in terms:
                    key = K + K2
                    acc[key] = get(key, 0) - a * b
        nums.append({K: c for K, c in acc.items() if c})
        den = factorial(d) * ls**d
        for K, c in nums[d].items():
            out[pk.unpack(K)] = Q(c, den)
    return Jet(s.n, out, D)


def substitute_radial(f: TSeries, n, valid_degree) -> Jet:
    """The jet f(|z_1|^2 + ... + |z_n|^2) truncated at the given degree.

    f must be trusted through t^ceil(D/2); monomials of t^m are spread over
    exponent vectors A with |A| = m with multinomial weights.
    """
    need = (valid_degree + 1) // 2
    if f.order < need:
        raise ValidityError(
            f"series order {f.order} insufficient: need t^{need} for degree "
            f"{valid_degree}"
        )
    coeffs = {}
    for m in range(0, min(f.order, valid_degree // 2) + 1):
        a = f.coeffs[m]
        if a == 0:
            continue
        fm = factorial(m)
        for A in multiindices(n, m):
            coeffs[(A, A)] = a * Q(fm, mi_factorial(A))
    return Jet(n, coeffs, valid_degree)


class JetMatrix:
    """Rectangular matrix of jets sharing n and a common valid_degree.

    Construction truncates all entries to the minimum validity present, so
    the uniform-validity invariant holds by normalization.
    """

    __slots__ = ("rows", "cols", "n", "valid_degree", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise DimensionMismatch("empty matrix")
        rows = len(entries)
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise DimensionMismatch("ragged rows")
        n = entries[0][0].n
        if any(e.n != n for row in entries for e in row):
            raise DimensionMismatch("entries live in different variable spaces")
        D = min(e.valid_degree for row in entries for e in row)
        entries = tuple(
            tuple(e if e.valid_degree == D else e.truncated(D) for e in row)
            for row in entries
        )
        self.rows = rows
        self.cols = cols
        self.n = n
        self.valid_degree = D
        self.entries = entries

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return (
            isinstance(other, JetMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    __hash__ = None

    def det(self):
        """Determinant over the jet ring, exact at the shared validity.

        Expansion along rows with memoization on the set of free columns;
        no division, so it works for any entries.
        """
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        m = self.rows
        memo = {}

        def rec(row, mask):
            if row == m:
                return Jet.constant(self.n, 1, self.valid_degree)
            got = memo.get(mask)
            if got is not None:
                return got
            acc = Jet.zero(self.n, self.valid_degree)
            sign = 1
            for col in range(m):
                bit = 1 << col
                if not (mask & bit):
                    continue
                entry = self.entries[row][col]
                if not entry.is_zero():
                    sub = rec(row + 1, mask & ~bit)
                    term = entry * sub
                    acc = acc + (term if sign > 0 else -term)
                sign = -sign
            memo[mask] = acc
            return acc

        return rec(0, (1 << m) - 1)

    def inverse(self):
        """Matrix inverse over the jet ring: G X = X G = I.

        A front end to _graded_inverse, the one inverse kernel, which
        metric.metric_from_potential also calls on the metric it builds.
        The entries are packed once, as integer parts over the lcm of their
        denominators.
        """
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        D = self.valid_degree
        pk = _Packing(self.n, D)
        den = lcm(
            *(c.denominator for row in self.entries for e in row
              for c in e.coeffs.values())
        )
        parts = [[[{} for _ in row] for row in self.entries] for _ in range(D + 1)]
        for l, row in enumerate(self.entries):
            for k, entry in enumerate(row):
                for (P, Q_), c in entry.coeffs.items():
                    parts[weight(P) + weight(Q_)][l][k][pk.pack(P, Q_)] = (
                        c.numerator * (den // c.denominator)
                    )
        return _graded_inverse(pk, parts, den)


def _graded_inverse(pk, parts, den):
    """The inverse over the jet ring of G = A / den, valid to degree D.

    parts[d][l][k] maps the packed keys (pk) of the degree-d part of the
    integer matrix A, entry (l, k), to their integers, for d = 0..D; the
    slots of pk must hold every exponent up to D.

    A graded solve, the multivariate form of Brent & Kung, "Fast algorithms
    for manipulating formal power series" (JACM 1978).  G^{-1} = den A^{-1},
    and with A = A_0 + A_1 + ... split into homogeneous parts, X = A^{-1}
    has X_0 = A_0^{-1} (exact over the rationals) and, degree by degree,

        X_d = -A_0^{-1} sum_{e=1..d} A_e X_{d-e}
            = sum_{e=1..d} B_e X_{d-e},   B_e = -A_0^{-1} A_e,

    for d = 1..D.  Each product pairs homogeneous pieces whose degrees sum
    to d, so nothing past the validity is computed.

    The solve runs on integers, fraction-free as in Bareiss (Math. Comp.
    1968).  With L the lcm of the denominators of A_0^{-1}, H = L A_0^{-1}
    and L B_e = -H A_e are integer matrices.  Substituting
    X_{d-e} = X'_{d-e} / L^(1+d-e) into the recursion gives

        X'_0 = H,   X'_d = sum_{e=1..d} L^(e-1) (L B_e) X'_{d-e},
        X_d = X'_d / L^(1+d),

    all integral; the kernel stores L^(e-1) (L B_e) = L^e B_e once per e,
    built from the nonzero entries of each column of H only.  Each
    coefficient of G^{-1} becomes a rational once, as den X'_d / L^(1+d).
    """
    n, m, D = pk.n, len(parts[0]), len(parts) - 1
    a0_inv = _invert_rational([[part.get(0, 0) for part in row] for row in parts[0]])
    L = lcm(*(c.denominator for row in a0_inv for c in row))
    h0 = [[c.numerator * (L // c.denominator) for c in row] for row in a0_inv]
    # cols[l]: the nonzero entries (i, H[i][l]) of column l of H
    cols = [[(i, row[l]) for i, row in enumerate(h0) if row[l]] for l in range(m)]
    # bs[e][i][k]: the terms of L^e B_e[i][k], as (packed key, integer)
    bs = [None]
    for e in range(1, D + 1):
        b = [[{} for _ in range(m)] for _ in range(m)]
        scale = -(L ** (e - 1))
        for l, row in enumerate(parts[e]):
            for k, part in enumerate(row):
                if not part:
                    continue
                for i, h in cols[l]:
                    acc = b[i][k]
                    get = acc.get
                    w = scale * h
                    for K, a in part.items():
                        acc[K] = get(K, 0) + w * a
        bs.append([[[t for t in acc.items() if t[1]] for acc in row] for row in b])
    # xs[d][k][j]: X'_d[k][j], as packed key -> integer
    xs = [[[{0: c} if c else {} for c in row] for row in h0]]
    for d in range(1, D + 1):
        xd = [[{} for _ in range(m)] for _ in range(m)]
        for e in range(1, d + 1):
            x = xs[d - e]
            for i in range(m):
                for k in range(m):
                    terms = bs[e][i][k]
                    if not terms:
                        continue
                    for j in range(m):
                        acc = xd[i][j]
                        get = acc.get
                        for K2, b in x[k][j].items():
                            for K, a in terms:
                                key = K + K2
                                acc[key] = get(key, 0) + a * b
        xs.append(
            [[{K: c for K, c in part.items() if c} for part in row] for row in xd]
        )
    dens = [L ** (1 + d) for d in range(D + 1)]
    unpack = pk.unpack
    return JetMatrix(
        [
            [
                Jet(
                    n,
                    {unpack(K): Q(den * c, dens[d])
                     for d, x in enumerate(xs) for K, c in x[i][j].items()},
                    D,
                )
                for j in range(m)
            ]
            for i in range(m)
        ]
    )


def _invert_rational(mat):
    """Exact inverse of a square rational matrix (Gaussian elimination)."""
    m = len(mat)
    a = [[as_q(mat[i][j]) for j in range(m)] for i in range(m)]
    inv = [[Q(1) if i == j else ZERO for j in range(m)] for i in range(m)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col] != 0), None)
        if pivot is None:
            raise NonInvertibleError("singular constant term")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv
