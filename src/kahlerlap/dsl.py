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
polynomial profile c0 + c1 t + ... evaluated at t = |z_1|^2 + ... + |z_n|^2.

Elaboration maps an expression tree and a dimension/degree to a potential
jet.  Additive constants inside log are normalized away (potentials are
defined up to an additive constant): log(c + s) elaborates as log(1 + s/c)
for a positive rational constant term c.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jets import Jet, JetMatrix, log1p, substitute_radial
from .rationals import Q
from .series import TSeries


class PotentialSyntaxError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ElaborationError(ValueError):
    pass


# -- expression tree ---------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: object


@dataclass(frozen=True)
class Coord:
    index: int  # 1-based in the surface syntax


@dataclass(frozen=True)
class Conj:
    arg: object


@dataclass(frozen=True)
class ModSq:
    arg: object


@dataclass(frozen=True)
class Log:
    arg: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Det:
    rows: tuple  # tuple of tuples of expressions


@dataclass(frozen=True)
class Radial:
    coeffs: tuple  # rational Taylor coefficients of the profile, c0 first


# -- tokenizer ---------------------------------------------------------------

_SYMBOLS = set("+-*/(),;[]")


def _tokenize(text, line):
    tokens = []
    col = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: int() would read other digits too
            start = i
            while i < len(text) and "0" <= text[i] <= "9":
                i += 1
            tokens.append(("int", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha():
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i], line, col))
            col += i - start
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise PotentialSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", "", line, col))
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

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            self.take()
            node = Mul(node, self.factor())
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

    def factor(self):
        kind, value, line, col = self.peek()
        if kind == "int":
            return Lit(self.rational())
        if kind == "(":
            self.take()
            node = self.expr()
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
                node = self.expr()
                self.take(")")
                return {"conj": Conj, "modsq": ModSq, "log": Log}[value](node)
            if value == "det":
                self.take("(")
                self.take("[")
                rows = [self.row()]
                while self.peek()[0] == ";":
                    self.take()
                    rows.append(self.row())
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

    def row(self):
        items = [self.expr()]
        while self.peek()[0] == ",":
            self.take()
            items.append(self.expr())
        return tuple(items)


def parse(text, first_line=1) -> object:
    """Parse an expression, or raise PotentialSyntaxError with position,
    counting the lines of text from first_line."""
    parser = _Parser(_tokenize(text, first_line))
    node = parser.expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise PotentialSyntaxError(
            f"trailing input starting at {tok[1]!r}", tok[2], tok[3]
        )
    return node


def elaborate(node, n, valid_degree) -> Jet:
    """Evaluate an expression tree to a potential jet in n variables."""
    if isinstance(node, Lit):
        return Jet.constant(n, node.value, valid_degree)
    if isinstance(node, Coord):
        if not 1 <= node.index <= n:
            raise ElaborationError(
                f"coordinate z({node.index}) out of range for dimension {n}"
            )
        return Jet.variable(n, node.index - 1, valid_degree)
    if isinstance(node, Conj):
        return elaborate(node.arg, n, valid_degree).conj()
    if isinstance(node, ModSq):
        inner = elaborate(node.arg, n, valid_degree)
        return inner * inner.conj()
    if isinstance(node, (Add, Sub)):
        spine = []  # a long sum is a deep left spine: walk it, not recurse
        while isinstance(node, (Add, Sub)):
            spine.append(node)
            node = node.left
        acc = elaborate(node, n, valid_degree)
        for op in reversed(spine):
            term = elaborate(op.right, n, valid_degree)
            acc = acc + term if isinstance(op, Add) else acc - term
        return acc
    if isinstance(node, Mul):
        return elaborate(node.left, n, valid_degree) * elaborate(
            node.right, n, valid_degree
        )
    if isinstance(node, Log):
        inner = elaborate(node.arg, n, valid_degree)
        c = inner.eval0()
        if c <= 0:
            raise ElaborationError(
                f"log needs a positive rational constant term, got {c}"
            )
        # log(c + s) = log c + log(1 + s/c); the additive constant is dropped
        s = inner - Jet.constant(n, c, valid_degree)
        return log1p(s if c == 1 else s / c)
    if isinstance(node, Det):
        rows = [
            [elaborate(e, n, valid_degree) for e in row] for row in node.rows
        ]
        if any(len(row) != len(rows) for row in rows):
            raise ElaborationError("det needs a square matrix")
        return JetMatrix(rows).det()
    if isinstance(node, Radial):
        order = max((valid_degree + 1) // 2, len(node.coeffs) - 1)
        return substitute_radial(
            TSeries(list(node.coeffs), order), n, valid_degree
        )
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
