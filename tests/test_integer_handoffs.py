"""The integer handoffs between the kernels of the check path.

dsl.elaborate evaluates every subtree with the jet operations, on integer
parts over one denominator, and hands log arguments to the integer log1p
kernel; it must give the jet, or the refusal, of the node-by-node rational
evaluation (dense_oracles.ref_elaborate).  The tokenizer is one regex; it
must give the tokens and errors of the character-by-character reference
(dense_oracles.ref_tokenize).  The metric keeps g_inv as jets of integer
parts over Lg, the parts its pullback index reads; the check, radial and
dual commands must never build the rational view Jet.coeffs.  The diagonal
walk is grown once per packing and sliced.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerlap import cli, fit, jets, metric
from kahlerlap.dsl import (
    Add, Conj, Coord, Det, Lit, Log, ModSq, Mul, PotentialSyntaxError, Radial, Sub,
    _tokenize, elaborate, parse,
)
from kahlerlap.jets import _Packing, diagonal_keys, packing
from kahlerlap.rationals import Q

sys.path.insert(0, str(Path(__file__).parent))
from dense_oracles import ref_diagonal_keys, ref_elaborate, ref_tokenize  # noqa: E402

GOLDEN = json.loads(
    Path(__file__).with_name("golden_check_reports.json").read_text(encoding="utf-8")
)
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
BENCH_GOLDEN = json.loads(WORKLOADS.with_name("golden.json").read_text(encoding="utf-8"))


def _outcome(fn, *args):
    """What fn returns, or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# -- tokenizer -----------------------------------------------------------------

# ASCII tokens and blanks, and the characters the tokenizer must refuse or
# read as letters: non-ASCII digits (superscript two, Arabic-Indic one), a
# vulgar fraction, a non-ASCII letter, underscore, other whitespace
ALPHABET = "z(1)+-*/,;[]#  \t\r\n09azlogdetmodsq" "²١½é_\x0b\xa0"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.text(alphabet=ALPHABET, max_size=40), st.integers(min_value=1, max_value=3))
def test_tokenizer_matches_the_character_walk(text, first_line):
    def tokens(fn):
        try:
            return fn(text, first_line)
        except PotentialSyntaxError as exc:
            return str(exc), exc.line, exc.col

    assert tokens(_tokenize) == tokens(ref_tokenize)


@pytest.mark.parametrize(
    "text", ["z(²)", "z(١)", "a² + ²a", "1 # note", "1\n# note\n  ", ""]
)
def test_tokenizer_edge_cases(text):
    def tokens(fn):
        try:
            return fn(text, 1)
        except PotentialSyntaxError as exc:
            return str(exc)

    assert tokens(_tokenize) == tokens(ref_tokenize)


# -- elaboration -----------------------------------------------------------------

N_MAX = 3
rationals = st.builds(
    Q, st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=6)
)
leaves = st.one_of(
    st.builds(Lit, rationals),
    st.builds(Coord, st.integers(min_value=1, max_value=N_MAX + 1)),
)


def _grow(inner):
    return st.one_of(
        st.builds(Conj, inner),
        st.builds(ModSq, inner),
        st.builds(Add, inner, inner),
        st.builds(Sub, inner, inner),
        st.builds(Mul, inner, inner),
        # log(c + s), c of any sign, often not 1
        st.builds(lambda c, s: Log(Add(Lit(c), s)), st.sampled_from(
            [Q(1), Q(2), Q(3, 2), Q(1, 3), Q(0), Q(-1, 2)]), inner),
        st.builds(Log, inner),
        st.builds(lambda a, b, c, d: Det(((a, b), (c, d))), inner, inner, inner, inner),
        st.builds(lambda a, b: Det(((a, b),)), inner, inner),  # not square
        st.builds(Radial, st.lists(rationals, min_size=1, max_size=4).map(tuple)),
    )


trees = st.recursive(leaves, _grow, max_leaves=8)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(trees, st.integers(min_value=1, max_value=N_MAX), st.integers(min_value=0, max_value=6))
def test_integer_elaboration_matches_the_rational_nodes(tree, n, D):
    got = _outcome(elaborate, tree, n, D)
    expected = _outcome(ref_elaborate, tree, n, D)
    assert got == expected
    if not isinstance(got, tuple):
        assert got.pk is expected.pk


POLYNOMIAL_BODIES = [
    "modsq(z(1)) + 2/3*modsq(z(2)) + 5/7*modsq(z(1)*z(2)) - 1/4*modsq(z(1)*z(1))",
    "modsq(conj(modsq(z(1) - 1/2*z(2))) + z(3)) + modsq(z(2))",
    "(1/2 + 1/3*z(1)) * (3/2 - conj(z(2))) * modsq(z(1) + z(3))",
    "log(3/2 + 3/2*modsq(z(1)) + 1/5*modsq(z(2))*modsq(z(3)))",
    "2/3*log(5 + modsq(z(1) + 1/2*conj(z(2))))*log(1 + modsq(z(3)))",
    "log(det([2 + modsq(z(1)), 1/2*z(1)*conj(z(2)); 1/2*z(2)*conj(z(1)), 1 + modsq(z(2))]))",
    "radial(0, 1, 1/3, 2/5) + 4/5*modsq(z(1)*z(2))",
]


@pytest.mark.parametrize("body", POLYNOMIAL_BODIES)
@pytest.mark.parametrize("D", [2, 5, 8])
def test_pot_bodies_match_the_rational_nodes(body, D):
    tree = parse(body)
    assert elaborate(tree, 3, D) == ref_elaborate(tree, 3, D)


@pytest.mark.parametrize(
    "body,message",
    [
        ("log(modsq(z(1)))", "log needs a positive rational constant term, got 0"),
        ("log(1/2 - 1 + modsq(z(1)))", "log needs a positive rational constant term, got -1/2"),
        ("modsq(z(4))", "coordinate z(4) out of range for dimension 3"),
        ("det([1, z(1)])", "det needs a square matrix"),
        ("det([1, z(1); z(2)])", "det needs a square matrix"),
    ],
)
def test_refusals_match_the_rational_nodes(body, message):
    tree = parse(body)
    assert _outcome(elaborate, tree, 3, 6)[1] == message
    assert _outcome(elaborate, tree, 3, 6) == _outcome(ref_elaborate, tree, 3, 6)


# -- integer parts on the check path ---------------------------------------------------


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _pot_texts():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [text for seed in (1, 2) for text in module.pot_texts(seed)]


@pytest.fixture(scope="module")
def check_argvs(tmp_path_factory):
    argvs = [["check", label, "--degree", "6", "--json"] for label in sorted(GOLDEN)]
    argvs += [
        ["check", "sp:N=3", "--degree", "8", "--kmax", "3", "--json"],
        ["check", "dual(so2n:N=4)", "--degree", "8", "--json"],
        ["radial", "--name", "fubini-study", "--n", "3", "--kmax", "8", "--json"],
        ["radial", "--coeffs", "0,1,1/2,1/3", "--n", "2", "--kmax", "4", "--json"],
        ["dual", "grassmannian:k=2,N=4", "--json"],
        ["dual", "quadric-even:N=4", "--json"],
    ]
    workdir = tmp_path_factory.mktemp("pots")
    for i, text in enumerate(_pot_texts()):
        path = workdir / f"seeded{i}.pot"
        path.write_text(text, encoding="utf-8")
        argvs.append(["check", str(path), "--degree", "6", "--json"])
    return argvs


def test_the_check_path_never_builds_the_fraction_view(monkeypatch, check_argvs):
    shipped = [_run(argv) for argv in check_argvs]

    def refuse(self):
        raise AssertionError("Fraction view built")

    monkeypatch.setattr(jets.Jet, "coeffs", property(refuse))
    assert [_run(argv) for argv in check_argvs] == shipped
    for argv, (code, out, _) in zip(check_argvs, shipped):
        if argv[0] == "check" and argv[1] in GOLDEN and argv[3] == "6":
            assert {"exit": code, "stdout": out} == GOLDEN[argv[1]]


def test_the_view_is_the_integer_parts_over_lg():
    m = metric.metric_from_potential(
        elaborate(parse("log(1 + 2/3*modsq(z(1)) + modsq(z(2)) + 1/5*modsq(z(1)*z(2)))"), 2, 6)
    )
    metric._complete_index(m)  # no permutation symmetry: every term is indexed
    lg, index, lo = m._pullback
    assert lg > 1 and lo == 0 and m._ginv is None
    pk = m.potential.pk
    # what the pullback index holds, as (i, j, packed key) -> integer
    indexed = {
        (shift_i // pk.bits - m.n, shift_j // pk.bits, KU + (KV << pk.half)): c
        for KU, halves in index.items()
        for KV, hits in halves.items()
        for c, shift_j, shift_i, _ in zip(*[iter(hits)] * 4)
    }
    entries = {}
    for i, row in enumerate(m.g_inv.entries):
        for j, entry in enumerate(row):
            assert entry.den == lg and entry.pk is pk
            for part in entry.parts:
                entries.update(((i, j, K), c) for K, c in part.items())
    assert entries == indexed
    assert all(type(c) is int for c in entries.values())


# -- the diagonal walk --------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 4])
def test_diagonal_walk_is_built_once_per_degree(n):
    fresh = _Packing(n, packing(n, 12).bits)  # not the shared one: no walk cached
    walks = {p: diagonal_keys(_Packing(n, fresh.bits), p) for p in range(7)}
    for p in (2, 5, 1, 6, 0, 3, 5):
        assert diagonal_keys(fresh, p) == walks[p]
        assert diagonal_keys(fresh, p) is diagonal_keys(fresh, p)


@pytest.mark.parametrize("n", range(1, 7))
def test_diagonal_walk_is_the_walk_by_tails(n):
    """Each degree p <= 6 of the successor walk is degree p of the walk of
    every degree at once, in the same order, with the same P!."""
    pk = packing(n, 12)
    assert [diagonal_keys(pk, p) for p in range(7)] == ref_diagonal_keys(pk, 6)


def test_a_fit_that_stops_in_degree_2_never_walks_degree_3(monkeypatch):
    """check sp:N=3 --degree 8 --kmax 3 prints its golden report and its
    fits ask the diagonal walk for degrees 1 and 2 alone: the k = 3
    witness comes first in degree 2."""
    argv = ["check", "sp:N=3", "--degree", "8", "--kmax", "3", "--json"]
    asked = []

    def recorded(pk, p):
        asked.append(p)
        return diagonal_keys(pk, p)

    monkeypatch.setattr(fit, "diagonal_keys", recorded)
    code, out, _ = _run(argv)
    assert {"exit": code, "stdout": out} == BENCH_GOLDEN[" ".join(argv)]
    assert sorted(set(asked)) == [1, 2]
