import random

import pytest

from kahlerlap.dsl import (
    MAX_NESTING,
    Add,
    Conj,
    Coord,
    Det,
    ElaborationError,
    Lit,
    Log,
    ModSq,
    Mul,
    PotentialSyntaxError,
    Radial,
    Sub,
    elaborate,
    parse,
    parse_potential_file,
)
from kahlerlap import jets
from kahlerlap.jets import Jet
from kahlerlap.rationals import Q

from dense_oracles import ref_elaborate, ref_truncated


def pretty(node) -> str:
    """Render a tree back to surface syntax; parse(pretty(e)) == e."""
    return _pretty(node, 0)


def _pretty(node, context):
    # precedence levels: 0 sum, 1 product, 2 atom
    if isinstance(node, Lit):
        text = str(node.value)
        return f"({text})" if "/" in text and context >= 1 else text
    if isinstance(node, Coord):
        return f"z({node.index})"
    if isinstance(node, Conj):
        return f"conj({_pretty(node.arg, 0)})"
    if isinstance(node, ModSq):
        return f"modsq({_pretty(node.arg, 0)})"
    if isinstance(node, Log):
        return f"log({_pretty(node.arg, 0)})"
    if isinstance(node, Det):
        rows = "; ".join(
            ", ".join(_pretty(e, 0) for e in row) for row in node.rows
        )
        return f"det([{rows}])"
    if isinstance(node, Radial):
        return "radial(" + ", ".join(str(c) for c in node.coeffs) + ")"
    if isinstance(node, Add):
        text = f"{_pretty(node.left, 0)} + {_pretty(node.right, 1)}"
        return f"({text})" if context >= 1 else text
    if isinstance(node, Sub):
        text = f"{_pretty(node.left, 0)} - {_pretty(node.right, 1)}"
        return f"({text})" if context >= 1 else text
    if isinstance(node, Mul):
        text = f"{_pretty(node.left, 1)} * {_pretty(node.right, 2)}"
        return f"({text})" if context >= 2 else text
    raise TypeError(f"not an expression node: {node!r}")


class TestParse:
    def test_log_modsq(self):
        assert parse("log(1 + modsq(z(1)))") == Log(Add(Lit(Q(1)), ModSq(Coord(1))))

    def test_det_matrix(self):
        node = parse("det([1 + modsq(z(1)), z(2); conj(z(2)), 1])")
        assert isinstance(node, Det)
        assert len(node.rows) == 2 and len(node.rows[0]) == 2
        assert node.rows[1] == (Conj(Coord(2)), Lit(Q(1)))

    def test_precedence(self):
        assert parse("1 + 2 * z(1)") == Add(Lit(Q(1)), Mul(Lit(Q(2)), Coord(1)))
        assert parse("1 - 2 - 3") == Sub(Sub(Lit(Q(1)), Lit(Q(2))), Lit(Q(3)))

    def test_rational_literal(self):
        assert parse("3/4") == Lit(Q(3, 4))

    def test_radial_factor(self):
        assert parse("radial(0, 1, 1/2)") == Radial((Q(0), Q(1), Q(1, 2)))

    def test_syntax_error_position(self):
        with pytest.raises(PotentialSyntaxError) as exc:
            parse("log(")
        assert exc.value.col == 5

    def test_unknown_identifier(self):
        with pytest.raises(PotentialSyntaxError):
            parse("exp(z(1))")

    def test_trailing_input(self):
        with pytest.raises(PotentialSyntaxError):
            parse("1 + 1) + 2")

    def test_comment_and_whitespace(self):
        assert parse("1 +  # comment\n modsq(z(1))") == parse("1 + modsq(z(1))")

    def test_nesting_past_the_cap_is_a_syntax_error(self):
        # far deeper than the interpreter's recursion limit
        with pytest.raises(PotentialSyntaxError) as exc:
            parse("(" * 3000 + "modsq(z(1))" + ")" * 3000)
        # the expression inside the (MAX_NESTING + 1)-th bracket
        assert (exc.value.line, exc.value.col) == (1, MAX_NESTING + 2)

    @pytest.mark.parametrize(
        "wrap", ["({})", "conj({})", "modsq({})", "det([{}])", "1 - ({})"]
    )
    def test_nesting_up_to_the_cap_parses_and_elaborates(self, wrap):
        text = "z(1)"
        for _ in range(MAX_NESTING):
            text = wrap.format(text)
        elaborate(parse(text), 1, 2)
        with pytest.raises(PotentialSyntaxError, match=f"over {MAX_NESTING} nested brackets"):
            parse(wrap.format(text))


class TestPretty:
    CASES = [
        "log(1 + modsq(z(1)))",
        "det([1, z(1); conj(z(1)), 1])",
        "0 - log(1 - modsq(z(1)))",
        "radial(0, 1, 1/2)",
        "1/2 * log(1 + modsq(z(2)))",
        "(1 + z(1)) * (1 - z(1))",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        tree = parse(text)
        assert parse(pretty(tree)) == tree

    def test_random_trees(self):
        rng = random.Random(99)

        def gen(depth):
            if depth == 0:
                return rng.choice([Lit(Q(rng.randint(0, 5), rng.randint(1, 3))),
                                   Coord(rng.randint(1, 2))])
            op = rng.randrange(6)
            if op == 0:
                return Add(gen(depth - 1), gen(depth - 1))
            if op == 1:
                return Sub(gen(depth - 1), gen(depth - 1))
            if op == 2:
                return Mul(gen(depth - 1), gen(depth - 1))
            if op == 3:
                return Conj(gen(depth - 1))
            if op == 4:
                return ModSq(gen(depth - 1))
            return Det(((gen(depth - 1), gen(depth - 1)),
                        (gen(depth - 1), gen(depth - 1))))

        for _ in range(200):
            tree = gen(rng.randint(1, 4))
            assert parse(pretty(tree)) == tree


class TestElaborate:
    def test_fubini_study_line(self):
        jet = elaborate(parse("log(1 + modsq(z(1)))"), 1, 4)
        assert jet == Jet.monomial(1, (1,), (1,), 1, 4) + Jet.monomial(
            1, (2,), (2,), Q(-1, 2), 4
        )

    def test_polynomial(self):
        jet = elaborate(parse("modsq(z(1)) + modsq(z(1)) * modsq(z(2))"), 2, 4)
        assert jet == Jet.monomial(2, (1, 0), (1, 0), 1, 4) + Jet.monomial(
            2, (1, 1), (1, 1), 1, 4
        )

    def test_log_constant_normalized_away(self):
        # log(2 + s) and log(1 + s/2) give the same potential
        a = elaborate(parse("log(2 + modsq(z(1)))"), 1, 4)
        b = elaborate(parse("log(1 + 1/2 * modsq(z(1)))"), 1, 4)
        assert a == b

    def test_log_requires_positive_constant(self):
        with pytest.raises(ElaborationError):
            elaborate(parse("log(modsq(z(1)))"), 1, 4)
        with pytest.raises(ElaborationError):
            elaborate(parse("log(0 - 1 + modsq(z(1)))"), 1, 4)

    def test_index_out_of_range(self):
        with pytest.raises(ElaborationError):
            elaborate(parse("modsq(z(3))"), 2, 4)

    def test_radial_elaborates(self):
        from kahlerlap.jets import substitute_radial

        jet = elaborate(parse("radial(0, 1, 1/2)"), 2, 6)
        assert jet == substitute_radial((0, 1, Q(1, 2), 0), 2, 6)

    def test_det_non_square_rejected(self):
        with pytest.raises(ElaborationError):
            elaborate(parse("det([1, z(1)])"), 1, 4)

    def test_long_sum_does_not_recurse_on_its_length(self):
        # far more terms than the interpreter's recursion limit
        text = " + ".join(["modsq(z(1))"] * 3000) + " - modsq(z(1)) - 1"
        jet = elaborate(parse(text), 1, 2)
        assert jet == Jet.monomial(1, (1,), (1,), 2999, 2) - 1

    @pytest.mark.parametrize("text", [
        "z(1) * conj(z(2)) * 1/3 * (1 + z(2)) * modsq(z(1))",
        "2 * z(1) * z(1) * conj(z(1)) * log(1 + modsq(z(2)))",
    ])
    def test_short_product_multiplies_left_to_right(self, text):
        factors = [elaborate(parse(f), 2, 6) for f in text.split(" * ")]
        expected = factors[0]
        for factor in factors[1:]:
            expected = expected * factor
        assert elaborate(parse(text), 2, 6) == expected == ref_elaborate(parse(text), 2, 6)

    def test_nested_log_keeps_its_denominator_small(self):
        # each level's den is the next level's ls: unreduced, its bit length
        # doubles per level
        text = "log(1 + " * 30 + "z(1) + 1/3*modsq(z(1))" + ")" * 30
        assert elaborate(parse(text), 1, 6).den.bit_length() < 10_000

    def test_nested_log_reduced_equals_unreduced(self, monkeypatch):
        text = "log(1 + " * 6 + "z(1) + 1/3*modsq(z(1)) + 2*z(2)*conj(z(1))" + ")" * 6
        reduced = elaborate(parse(text), 2, 6)
        monkeypatch.setattr(jets, "_reduced", lambda den, entries: (den, entries))
        unreduced = elaborate(parse(text), 2, 6)
        assert reduced.den < unreduced.den
        assert reduced.coeffs == unreduced.coeffs

    def test_degree_monotone(self):
        text = "log(1 + modsq(z(1)) + 4 * modsq(z(1) * z(2)))"
        deep = elaborate(parse(text), 2, 8)
        shallow = elaborate(parse(text), 2, 4)
        assert ref_truncated(deep, 4) == shallow


class TestPotFiles:
    def test_parse_file(self):
        text = "# sample potential\ndim 2\nlog(1 + modsq(z(1)) + modsq(z(2)))\n"
        n, expr = parse_potential_file(text)
        assert n == 2
        assert expr == parse("log(1 + modsq(z(1)) + modsq(z(2)))")

    def test_multiline_body(self):
        text = "dim 1\nlog(1 +\n  modsq(z(1)))\n"
        n, expr = parse_potential_file(text)
        assert expr == parse("log(1 + modsq(z(1)))")

    def test_missing_header(self):
        with pytest.raises(PotentialSyntaxError):
            parse_potential_file("log(1 + modsq(z(1)))\n")

    def test_zero_dimension_reported_at_the_header(self):
        with pytest.raises(PotentialSyntaxError) as info:
            parse_potential_file("# empty space\ndim 0\nmodsq(z(1))\n")
        assert str(info.value) == (
            "dimension must be at least 1, got 'dim 0' (line 2, column 1)"
        )

    @pytest.mark.parametrize(
        "text,message",
        [
            ("dim 1\n1/0 * modsq(z(1))\n", "zero denominator (line 2, column 3)"),
            ("dim 1\nmodsq(z(1)) 5\n", "trailing input starting at '5' (line 2, column 13)"),
            ("# header comment\ndim 1\n1/0 * modsq(z(1))\n",
             "zero denominator (line 3, column 3)"),
            ("# header comment\ndim 1\n# body comment\nlog(1 +\n  modsq(z(1)) 5)\n",
             "expected ')', found '5' (line 5, column 15)"),
            # only ASCII digits are numbers: int() would read these too
            ("dim 1\nlog(1 + modsq(z(\u00b2)))\n", "unexpected character '\u00b2' (line 2, column 17)"),
            ("dim 1\nmodsq(z(\u0661))\n", "unexpected character '\u0661' (line 2, column 9)"),
            ("dim \u00b2\nmodsq(z(1))\n", "first line must be 'dim n' (line 1, column 1)"),
        ],
    )
    def test_body_errors_report_file_lines(self, text, message):
        with pytest.raises(PotentialSyntaxError) as info:
            parse_potential_file(text)
        assert str(info.value) == message

    def test_comment_line_before_the_body(self):
        n, expr = parse_potential_file("dim 1\n# the Fubini-Study line\nlog(1 + modsq(z(1)))\n")
        assert n == 1 and expr == parse("log(1 + modsq(z(1)))")

    def test_missing_body(self):
        with pytest.raises(PotentialSyntaxError):
            parse_potential_file("dim 2\n# nothing\n")
