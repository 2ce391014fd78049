"""The closed-form g_inv of the Bergman catalog families.

catalog.build_space builds g_inv of flat, cp, ch, grassmannian, sp, so2n and
of the dual of each as the Bergman operator of the Jordan triple
(catalog.bergman_inverse), a polynomial of degree 4; the quadrics, products,
.pot files and the radial command keep the graded inverse of g.  The closed
form must equal the graded inverse term for term, and the guard below shows
which path each entry point takes by making the graded inverse fail.  The
closed form is stored as its pullback index, written from its upper
triangle, and MetricJet.g_inv is built only when read: a second guard
refuses JetMatrix construction on the check path, and a Hermitian graded
inverse written from its upper triangle, or stored as its column 0 when
every permutation fixes it, must read as the whole of it.  A third guard
keeps every command off the rational Gaussian elimination: the graded
inverse of a potential reads g(0)^{-1} off its degree-2 terms.  A fourth
refuses to index the column in every slot on the check path of cp:n=10
and cp:n=3, whose g_inv is stored and read as its column 0.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from kahlerlap import catalog, cli, jets, metric
from kahlerlap.jets import NonInvertibleError
from kahlerlap.dsl import elaborate, parse
from kahlerlap.metric import (
    _complete_index, _hessian_inverse, _laplacian_functional, _pullback_index, einstein_constant,
    fifth_order_check, metric_from_potential, metric_with_inverse,
)

sys.path.insert(0, str(Path(__file__).parent))
from dense_oracles import (  # noqa: E402
    expand_orbits, jet_matrix, ref_bergman_inverse, scanned_orbits, sorted_hits, whole_ginv,
)

GOLDEN = json.loads(
    Path(__file__).with_name("golden_check_reports.json").read_text(encoding="utf-8")
)
BENCH_GOLDEN = json.loads(
    (Path(__file__).parent.parent / "perfbench" / "golden.json").read_text(
        encoding="utf-8"
    )
)


def assert_closed_form_is_the_graded_inverse(label, D):
    desc = catalog.parse_space(label)
    m = catalog.build_space(desc, D).metric
    ref = metric_from_potential(catalog.potential_jet(desc, D))
    assert m.g_inv.valid_degree == ref.g_inv.valid_degree == D - 2
    assert m.g_inv == ref.g_inv
    pk = m.potential.pk
    for row in m.g_inv.entries:
        for e in row:
            assert e.pk is pk
            # each term sits in the part of its degree, read from its exponents
            for d, part in enumerate(e.parts):
                assert all(sum(map(sum, pk.unpack(K))) == d for K in part)
    assert pullback(m) == pullback(ref)
    assert (m.origin_diag, m.cubic_free) == (ref.origin_diag, ref.cubic_free)


def pullback(m):
    """m._pullback up to the order of the hits of each (U, V)."""
    lg, index, lo = m._pullback
    return lg, sorted_hits(index), lo


@pytest.mark.parametrize("family", ["flat", "cp", "ch"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 10])
def test_closed_form_equals_the_graded_inverse(family, n):
    for D in range(2, 13):
        assert_closed_form_is_the_graded_inverse(f"{family}:n={n}", D)


SMALL = [
    "grassmannian:k=1,N=3", "grassmannian:k=2,N=4", "sp:N=1", "sp:N=2",
    "so2n:N=2", "so2n:N=3", "dual(flat:n=2)", "dual(cp:n=3)", "dual(ch:n=2)",
    "dual(grassmannian:k=2,N=4)", "dual(sp:N=2)", "dual(so2n:N=3)",
    "dual(dual(sp:N=1))",
]
LARGE = [
    "grassmannian:k=2,N=5", "sp:N=3", "so2n:N=4", "dual(sp:N=3)",
    "dual(so2n:N=4)",
]


@pytest.mark.parametrize("label", SMALL + LARGE)
def test_matrix_closed_form_equals_the_graded_inverse(label):
    for D in (2, 3, 6, 8) if label in LARGE else range(2, 11):
        assert_closed_form_is_the_graded_inverse(label, D)


@pytest.fixture
def graded_inverse_fails(monkeypatch):
    """Make jets._graded_inverse raise, wherever a kahlerlap module holds it."""
    orig = jets._graded_inverse

    def singular(*args):
        raise NonInvertibleError("graded inverse called")

    for name, mod in list(sys.modules.items()):
        if name.startswith("kahlerlap") and getattr(mod, "_graded_inverse", None) is orig:
            monkeypatch.setattr(mod, "_graded_inverse", singular)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("label", ["cp:n=3", "ch:n=2", "flat:n=2"])
def test_radial_catalog_spaces_skip_the_graded_inverse(graded_inverse_fails, label):
    code, out, _ = run(["check", label, "--degree", "6", "--json"])
    assert {"exit": code, "stdout": out} == GOLDEN[label]


@pytest.mark.parametrize(
    "label",
    ["grassmannian:k=2,N=4", "grassmannian:k=2,N=5", "sp:N=2", "so2n:N=4",
     "dual(grassmannian:k=2,N=4)"],
)
def test_matrix_catalog_spaces_skip_the_graded_inverse(graded_inverse_fails, label):
    code, out, _ = run(["check", label, "--degree", "6", "--json"])
    assert {"exit": code, "stdout": out} == GOLDEN[label]


def test_dual_command_skips_the_graded_inverse(graded_inverse_fails):
    argv = ["dual", "grassmannian:k=2,N=4", "--json"]
    code, out, _ = run(argv)
    assert {"exit": code, "stdout": out} == BENCH_GOLDEN[" ".join(argv)]


BERGMAN = [label for label in sorted(GOLDEN) if not label.startswith(("quadric", "product"))]


def test_the_check_path_never_builds_the_jet_matrix(monkeypatch):
    """check on each Bergman family and its dual, the dual command and the
    sp:N=3 check print their reports with JetMatrix construction refused:
    the closed form is kept as given, its upper triangle one dict per
    degree (its column 0 when every permutation fixes it), and indexed as
    the tables read it; completed, the index is the one the whole triangle
    writes, and MetricJet.g_inv is built only when read, from that store,
    as the oracle."""
    argvs = [["check", label, "--degree", "6", "--json"] for label in BERGMAN]
    argvs += [["check", f"dual({label})", "--degree", "6", "--json"] for label in BERGMAN]
    argvs += [["dual", "grassmannian:k=2,N=4", "--json"],
              ["check", "sp:N=3", "--degree", "8", "--kmax", "3", "--json"]]
    shipped = [run(argv) for argv in argvs]
    goldens = {**{f"check {label} --degree 6 --json": GOLDEN[label] for label in GOLDEN},
               **BENCH_GOLDEN}
    for argv, (code, out, _) in zip(argvs, shipped):  # a dual without one: as shipped
        if " ".join(argv) in goldens:
            assert {"exit": code, "stdout": out} == goldens[" ".join(argv)]

    def refuse(*args):
        raise AssertionError("JetMatrix built")

    monkeypatch.setattr(jets.JetMatrix, "__init__", refuse)
    assert [run(argv) for argv in argvs] == shipped
    metrics = {}
    for label in BERGMAN + [f"dual({label})" for label in BERGMAN]:
        desc = catalog.parse_space(label)
        m = metrics[desc] = catalog.build_space(desc, 6).metric
        den, stored = catalog.bergman_inverse(*catalog._bergman(desc), m.potential, 6,
                                              "column" if m._orbits else "upper")
        if m._orbits:
            assert len(stored) == m.n and all(len(row) == 1 for row in stored)
        else:
            assert m._ginv == (den, stored) and all(stored[a][b] is None
                                                    for a in range(m.n) for b in range(a))
            assert all(len(e) == 5 for row in stored for e in row if e)  # degrees 0..4
            lg, index = _pullback_index(m.potential.pk, den, stored, 0)
            _complete_index(m)
            assert m._ginv is None and (lg, sorted_hits(index)) == pullback(m)[:2]
    monkeypatch.undo()
    for desc, m in metrics.items():
        assert m.g_inv == jet_matrix(
            m.potential.pk, *ref_bergman_inverse(desc, m.potential, 6))


def test_the_check_path_never_fills_the_column(monkeypatch):
    """check on cp:n=10 at D = 8 (the cp-fit rung) and on cp:n=3 at D = 6
    prints its golden report with the column indexed in every slot refused
    (metric._pullback_index at lo = 0 on an n x 1 store): the S_n-fixed
    g_inv is stored as its column 0, an n x 1 matrix, and read through its
    window, as are the readers of a built metric up to table D // 2.  Only
    a deeper table and MetricJet.g_inv index it in every slot, the latter
    on first read, giving the oracle's whole g_inv."""
    cases = [(["check", "cp:n=10", "--degree", "8", "--kmax", "4", "--json"], 8),
             (["check", "cp:n=3", "--degree", "6", "--json"], 6)]
    goldens = {**{f"check {label} --degree 6 --json": GOLDEN[label] for label in GOLDEN},
               **BENCH_GOLDEN}
    metrics = {}
    for argv, D in cases:
        desc = catalog.parse_space(argv[1])
        m = metrics[desc] = catalog.build_space(desc, D).metric
        assert m._orbits and len(m._ginv[1]) == m.n and all(len(row) == 1 for row in m._ginv[1])

    orig = metric._pullback_index

    def windowed(pk, den, stored, lo):
        if lo == 0 and len(stored[0]) == 1 < len(stored):
            raise AssertionError("column filled")
        return orig(pk, den, stored, lo)

    monkeypatch.setattr(metric, "_pullback_index", windowed)
    for argv, _ in cases:
        code, out, _ = run(argv)
        assert {"exit": code, "stdout": out} == goldens[" ".join(argv)]
    for m in metrics.values():  # the readers of a built metric take the column too
        einstein_constant(m)
        fifth_order_check(m)
        _laplacian_functional(m, m.valid_degree // 2)
        with pytest.raises(AssertionError, match="column filled"):
            m.g_inv
    cp3 = metrics[catalog.parse_space("cp:n=3")]
    with pytest.raises(AssertionError, match="column filled"):
        _laplacian_functional(cp3, 4)  # every slot, as k = 4 >= n + 1
    monkeypatch.undo()
    assert _laplacian_functional(cp3, 4) and cp3._pullback[2] == 0
    for desc, m in metrics.items():
        ref = ref_bergman_inverse(desc, m.potential, m.valid_degree)
        assert m.g_inv == jet_matrix(m.potential.pk, *ref)


def test_no_command_inverts_a_rational_matrix(monkeypatch, tmp_path):
    """check, dual and radial print their reports with jets._invert_rational
    refused wherever a kahlerlap module holds it: the potential's A_0 is
    diagonal, read off its degree-2 terms.  JetMatrix.inverse keeps it."""
    bodies = ["radial(0, 1, 1/2)", HERMITIAN_TEXTS[0],
              "2*modsq(z(1)) + 1/3*modsq(z(2)) + modsq(z(1)*z(2))",  # unequal d_i
              "modsq(z(1)) + modsq(z(2)) + 1/3*z(1)*z(1)*conj(z(1)*z(2))"]  # not real
    pots = [tmp_path / f"case{i}.pot" for i in range(len(bodies))]
    for pot, body in zip(pots, bodies):
        pot.write_text(f"dim 2\n{body}\n")
    argvs = [["check", label, "--json"] for label in (
        "quadric-even:N=4", "quadric-odd:N=5", "product(cp:n=1;cp:n=1)",
        "product(cp:n=1;quadric-even:N=4)", "cp:n=3", "sp:N=2", "dual(quadric-odd:N=4)")]
    argvs += [["check", str(pot), "--json"] for pot in pots]
    argvs += [["dual", "quadric-even:N=4", "--json"], ["dual", "cp:n=2", "--json"],
              ["radial", "--name", "fubini-study", "--n", "3", "--json"],
              ["radial", "--coeffs", "0,2,3,-5/7,1/9", "--n", "2", "--kmax", "4", "--json"]]
    shipped = [run(argv) for argv in argvs]
    assert all(code in (0, 1) for code, _, _ in shipped)

    def refuse(*args):
        raise AssertionError("a rational matrix inverted")

    orig = jets._invert_rational
    for name, mod in list(sys.modules.items()):
        if name.startswith("kahlerlap") and getattr(mod, "_invert_rational", None) is orig:
            monkeypatch.setattr(mod, "_invert_rational", refuse)
    assert [run(argv) for argv in argvs] == shipped
    one = jets.Jet.constant(1, 1, 2)
    with pytest.raises(AssertionError, match="a rational matrix inverted"):
        jets.JetMatrix([[one]]).inverse()


# no permutation symmetry, then symmetric under z(1) <-> z(2); both with odd-degree g_inv
HERMITIAN_TEXTS = [
    "modsq(z(1)) + modsq(z(2)) + 1/2*modsq(z(1)*z(2))"
    " + z(1)*z(1)*z(2)*conj(z(1)*z(1)) + z(1)*z(1)*conj(z(1)*z(1)*z(2))"
    " + 2*z(2)*z(2)*z(2)*conj(z(1)*z(2)) + 2*z(1)*z(2)*conj(z(2)*z(2)*z(2))",
    "log(1 + modsq(z(1)) + modsq(z(2)) + 1/3*modsq(z(1)*z(2)))"
    " + z(1)*z(1)*z(2)*conj(z(1)*z(2)) + z(1)*z(2)*conj(z(1)*z(1)*z(2))"
    " + z(2)*z(2)*z(1)*conj(z(2)*z(1)) + z(2)*z(1)*conj(z(2)*z(2)*z(1))",
]


@pytest.mark.parametrize("text", HERMITIAN_TEXTS)
def test_the_upper_triangle_reads_as_both(text):
    """A Hermitian g_inv written into the pullback index from its upper
    triangle, each term with its mate (metric._pullback_index), or, when
    every permutation of the coordinates fixes it, stored as its column 0,
    reads as the same g_inv solved whole (the full solve, with the S_n
    verdict off): the same pullback index up to the order of its hits,
    Einstein report, fifth-order value, tables (written back onto every
    key) and JetMatrix, whether the triangle or column comes from
    metric_from_potential or is handed to metric_with_inverse as the closed
    form is.  The verdict, read off the potential, is the scan of the whole
    g_inv (dense_oracles.scanned_orbits)."""
    phi = elaborate(parse(text), 2, 5)

    def whole():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metric, "_potential_symmetry", lambda phi: (True, False))
            return metric_with_inverse(phi, lambda phi, solve: _hessian_inverse(phi, "full"), 5)

    def handed(phi, solve):
        full = whole()
        if solve == "column":
            return full._pullback[0], [row[:1] for row in whole_ginv(full)]
        return full._pullback[0], [[e if a <= b else None for b, e in enumerate(row)]
                                   for a, row in enumerate(whole_ginv(full))]

    assert metric_from_potential(phi)._orbits == scanned_orbits(whole())
    for m in (metric_from_potential(phi), metric_with_inverse(phi, handed, 5)):
        full = whole()
        assert not full._orbits and [len(row) for row in full._ginv[1]] == [2, 2]
        assert [len(row) for row in m._ginv[1]] == ([1, 1] if m._orbits else [2, 2])
        assert m._pullback[0] == full._pullback[0]
        assert einstein_constant(m) == einstein_constant(full)
        assert fifth_order_check(m) == fifth_order_check(full) != 0
        for k in range(1, 4):  # at D = 5, k = 3 widens an orbit metric's index to every slot
            assert expand_orbits(m, k) == _laplacian_functional(full, k)
        assert m.g_inv == full.g_inv  # each index completed first
        assert pullback(m) == pullback(full) and m._pullback[2] == 0


def test_radial_command_and_pot_files_keep_the_graded_inverse(graded_inverse_fails, tmp_path):
    code, out, err = run(["radial", "--name", "fubini-study", "--n", "2"])
    assert (code, out, err) == (3, "", "error: internal: graded inverse called\n")
    pot = tmp_path / "fs.pot"
    pot.write_text("dim 2\nradial(0, 1, 1/2)\n")
    code, out, err = run(["check", str(pot)])
    assert (code, out, err) == (3, "", "error: internal: graded inverse called\n")


@pytest.mark.parametrize(
    "argv",
    [["check", "quadric-even:N=4"], ["check", "quadric-odd:N=4"],
     ["check", "product(cp:n=1;cp:n=1)"], ["dual", "quadric-even:N=4"]],
)
def test_quadrics_and_products_keep_the_graded_inverse(graded_inverse_fails, argv):
    assert run(argv) == (3, "", "error: internal: graded inverse called\n")


def _graded(desc, s, potential, D, solve, blocks=None):  # desc at sign s, a dual at -s
    desc = desc if catalog._bergman(desc)[1] == s else catalog.dual(desc)
    m = metric_from_potential(catalog.potential_jet(desc, D))
    ginv = whole_ginv(m)
    return m._pullback[0], [row[:1] for row in ginv] if solve == "column" else ginv


@pytest.mark.parametrize(
    "label", sorted(GOLDEN) + ["dual(sp:N=2)", "dual(so2n:N=4)", "dual(cp:n=2)"]
)
def test_reports_do_not_depend_on_the_inverse_path(monkeypatch, label):
    """check --json prints the same with the closed form as with the graded
    inverse of the same potential, at every degree 2..8 and its largest kmax."""
    argvs = [
        ["check", label, "--degree", str(D), "--kmax", str(D // 2), "--json"]
        for D in range(2, 9)
    ]
    shipped = [run(argv) for argv in argvs]
    monkeypatch.setattr(catalog, "bergman_inverse", _graded)
    assert [run(argv) for argv in argvs] == shipped
