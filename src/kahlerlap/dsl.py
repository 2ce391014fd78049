"""A small expression language for potentials.

Grammar (whitespace and # comments ignored):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := rational
              | 'z' '(' int ')'
              | 'conj' '(' expr ')'
              | 'modsq' '(' expr ')'
              | 'log' '(' expr ')'
              | 'det' '(' '[' row (';' row)* ']' ')'
              | 'radial' '(' rational (',' rational)* ')'
              | '(' expr ')'
    row      := expr (',' expr)*
    rational := int ('/' int)?

There is no unary minus (write 0 - e) and no division of expressions;
rational literals may carry a denominator.  radial(c0, c1, ...) denotes a
polynomial profile c0 + c1 t + ... evaluated at t = |z_1|^2 + ... + |z_n|^2;
its literals, padded with zeros through t^ceil(D/2), are the t-series that
substitute_radial takes.

Elaboration maps an expression tree and a dimension/degree to a potential
jet.  Each subtree evaluates to a jet on the potential's packing, cut at its
degree (_evaluate), with the jet operations: conj, products, one n-ary sum
per +/- chain (jets._sum), log1p, JetMatrix.det and substitute_radial.
Additive constants inside log are normalized away (potentials are defined
up to an additive constant): log(c + s) elaborates as log(1 + s/c) for a
positive rational constant term c.
"""

from __future__ import annotations

import re
from itertools import accumulate

from .jets import InputError, Jet, JetMatrix, ValidityError, _sum, log1p, substitute_radial
from .rationals import MAX_DIGITS, MAX_NESTING, Q, ZERO, Record


class PotentialSyntaxError(InputError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ElaborationError(InputError):
    pass


# -- expression tree ---------------------------------------------------------


class Lit(Record):
    __slots__ = ("value",)


class Coord(Record):
    __slots__ = ("index",)  # 1-based in the surface syntax


class Conj(Record):
    __slots__ = ("arg",)


class ModSq(Record):
    __slots__ = ("arg",)


class Log(Record):
    __slots__ = ("arg",)


class Add(Record):
    __slots__ = ("left", "right")


class Sub(Record):
    __slots__ = ("left", "right")


class Mul(Record):
    __slots__ = ("left", "right")


class Det(Record):
    __slots__ = ("rows",)  # tuple of tuples of expressions


class Radial(Record):
    __slots__ = ("coeffs",)  # rational Taylor coefficients of the profile, c0 first


# -- tokenizer ---------------------------------------------------------------

# A line, less its comment, splits into pieces that cover it: ASCII digit
# runs (int() would read other digits too), words, single blanks, and any
# other single character.  _KINDS gives the kind of the common pieces ("" for
# a blank, which is dropped); _kind classifies the rest.
_PIECE = re.compile(r"[0-9]+|[^\W\d_]\w*|[ \t\r]|.")
_KINDS = {
    **{c: c for c in "+-*/(),;[]"}, **{c: "" for c in " \t\r"},
    **{str(i): "int" for i in range(10)},
    **{w: "ident" for w in ("z", "conj", "modsq", "log", "det", "radial")},
}

def _kind(piece, line, col):
    if "0" <= piece[0] <= "9":
        if len(piece) > MAX_DIGITS:
            raise PotentialSyntaxError(f"integer of more than {MAX_DIGITS} digits", line, col)
        return "int"
    if piece[0].isalpha():  # a word may open with a numeric such as "²"
        return "ident"
    raise PotentialSyntaxError(f"unexpected character {piece[0]!r}", line, col)


def _tokenize(text, line):
    tokens = []
    for line, row in enumerate(text.split("\n"), line):
        pieces = _PIECE.findall(row.partition("#")[0])
        cols = accumulate(map(len, pieces), initial=1)
        tokens += [
            (kind or _kind(piece, line, col), piece, line, col)
            for kind, piece, col in zip(map(_KINDS.get, pieces), pieces, cols)
            if kind != ""
        ]
    tokens.append(("end", "", line, sum(map(len, pieces)) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise PotentialSyntaxError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                tok[2],
                tok[3],
            )
        self.pos += 1
        return tok

    def expr(self, depth):
        if depth > MAX_NESTING:  # depth: the levels of brackets around it
            raise PotentialSyntaxError(f"over {MAX_NESTING} nested brackets", *self.peek()[2:])
        node = self.term(depth)
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term(depth)
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self, depth):
        node = self.factor(depth)
        while self.peek()[0] == "*":
            self.take()
            node = Mul(node, self.factor(depth))
        return node

    def rational(self):
        tok = self.take("int")
        num = int(tok[1])
        if self.peek()[0] == "/":
            self.take()
            den_tok = self.take("int")
            den = int(den_tok[1])
            if den == 0:
                raise PotentialSyntaxError(
                    "zero denominator", den_tok[2], den_tok[3]
                )
            return Q(num, den)
        return Q(num)

    def factor(self, depth):
        kind, value, line, col = self.peek()
        if kind == "int":
            return Lit(self.rational())
        if kind == "(":
            self.take()
            node = self.expr(depth + 1)
            self.take(")")
            return node
        if kind == "ident":
            self.take()
            if value == "z":
                self.take("(")
                idx_tok = self.take("int")
                self.take(")")
                idx = int(idx_tok[1])
                if idx < 1:
                    raise PotentialSyntaxError(
                        "coordinate indices start at 1", idx_tok[2], idx_tok[3]
                    )
                return Coord(idx)
            if value in ("conj", "modsq", "log"):
                self.take("(")
                node = self.expr(depth + 1)
                self.take(")")
                return {"conj": Conj, "modsq": ModSq, "log": Log}[value](node)
            if value == "det":
                self.take("(")
                self.take("[")
                rows = [self.row(depth + 1)]
                while self.peek()[0] == ";":
                    self.take()
                    rows.append(self.row(depth + 1))
                self.take("]")
                self.take(")")
                return Det(tuple(rows))
            if value == "radial":
                self.take("(")
                coeffs = [self.rational()]
                while self.peek()[0] == ",":
                    self.take()
                    coeffs.append(self.rational())
                self.take(")")
                return Radial(tuple(coeffs))
            raise PotentialSyntaxError(f"unknown identifier {value!r}", line, col)
        raise PotentialSyntaxError(
            f"expected a factor, found {value or 'end of input'!r}", line, col
        )

    def row(self, depth):
        items = [self.expr(depth)]
        while self.peek()[0] == ",":
            self.take()
            items.append(self.expr(depth))
        return tuple(items)


def parse(text, first_line=1) -> object:
    """Parse an expression, or raise PotentialSyntaxError with position,
    counting the lines of text from first_line."""
    parser = _Parser(_tokenize(text, first_line))
    node = parser.expr(0)
    tok = parser.peek()
    if tok[0] != "end":
        raise PotentialSyntaxError(
            f"trailing input starting at {tok[1]!r}", tok[2], tok[3]
        )
    return node


def elaborate(node, n, valid_degree) -> Jet:
    """Evaluate an expression tree to a potential jet in n variables."""
    pk = Jet.zero(n, valid_degree).pk  # refuses n < 1 and valid_degree < 0
    return _evaluate(node, pk, valid_degree)


def _evaluate(node, pk, D):
    """The value of node as a jet on packing pk, cut at degree D."""
    n = pk.n
    if isinstance(node, Lit):
        c = node.value
        parts = [{0: c.numerator} if c else {}] + [{} for _ in range(D)]
        return Jet._of(n, pk, c.denominator, parts)
    if isinstance(node, Coord):
        if not 1 <= node.index <= n:
            raise ElaborationError(
                f"coordinate z({node.index}) out of range for dimension {n}"
            )
        if D < 1:
            raise ValidityError(f"monomial of degree 1 exceeds valid_degree {D}")
        return Jet._of(n, pk, 1, [{}, {pk.units[node.index - 1]: 1}] + [{} for _ in range(D - 1)])
    if isinstance(node, Conj):
        return _evaluate(node.arg, pk, D).conj()
    if isinstance(node, ModSq):
        x = _evaluate(node.arg, pk, D)
        return x * x.conj()
    if isinstance(node, (Add, Sub)):
        spine = []  # a long sum is a deep left spine: walk it, not recurse
        while isinstance(node, (Add, Sub)):
            spine.append(node)
            node = node.left
        terms = [_evaluate(node, pk, D)]
        for op in reversed(spine):
            term = _evaluate(op.right, pk, D)
            terms.append(term if isinstance(op, Add) else -term)
        return _sum(terms)
    if isinstance(node, Mul):
        spine = []  # so is a long product
        while isinstance(node, Mul):
            spine.append(node.right)
            node = node.left
        value = _evaluate(node, pk, D)
        for right in reversed(spine):
            value = value * _evaluate(right, pk, D)
        return value
    if isinstance(node, Log):
        x = _evaluate(node.arg, pk, D)
        c = x.parts[0].get(0, 0)
        if c <= 0:
            raise ElaborationError(
                f"log needs a positive rational constant term, got {Q(c, x.den)}"
            )
        # log(c/den + s) = log(c/den) + log(1 + s'/c), s' = den s; the
        # additive constant is dropped
        return log1p(Jet._of(n, pk, c, [{}] + x.parts[1:]))
    if isinstance(node, Det):
        rows = [[_evaluate(e, pk, D) for e in row] for row in node.rows]
        if any(len(row) != len(rows) for row in rows):
            raise ElaborationError("det needs a square matrix")
        return JetMatrix(rows).det()
    if isinstance(node, Radial):
        pad = (ZERO,) * ((D + 1) // 2 + 1 - len(node.coeffs))
        return substitute_radial(node.coeffs + pad, n, D)
    raise TypeError(f"not an expression node: {node!r}")


def parse_potential_file(text):
    """Parse a .pot file: first line 'dim n', the rest one expression."""
    lines = text.splitlines()
    body_start = None
    n = None
    for i, raw in enumerate(lines):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        ascii_int = len(parts) == 2 and parts[1].isascii() and parts[1].isdigit()
        if not ascii_int or parts[0] != "dim":
            raise PotentialSyntaxError(
                "first line must be 'dim n'", i + 1, 1
            )
        _kind(parts[1], i + 1, raw.index(parts[1]) + 1)  # refuses too many digits
        n = int(parts[1])
        if n < 1:
            raise PotentialSyntaxError(
                f"dimension must be at least 1, got 'dim {n}'", i + 1, 1
            )
        body_start = i + 1
        break
    if n is None:
        raise PotentialSyntaxError("missing 'dim n' header", 1, 1)
    body = lines[body_start:]
    if not any(raw.split("#", 1)[0].strip() for raw in body):
        raise PotentialSyntaxError("missing potential expression", body_start + 1, 1)
    return n, parse("\n".join(body), body_start + 1)
