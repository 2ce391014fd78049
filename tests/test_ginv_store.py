"""One store for a g_inv that no permutation of the coordinates fixes.

The terms of the closed form (catalog.bergman_inverse, its upper triangle
one dict per degree) and of the upper and full graded solves
(metric._hessian_inverse) are kept as given, MetricJet._ginv, and written
into the lap^k pullback index (metric._indexed) one degree at a time, as
the tables read them: before step k the index holds the degrees up to
2k - 3, and step k pairs degree 2k - 2 with table k - 1 (metric._pair).
MetricJet.g_inv completes the index, drops the store and reads g_inv back
from the index.  An S_n-fixed g_inv keeps its column 0 as the kernel gave
it, (den, column), which the window widening reads: the index writer is
the one reducer of every store, and a guard refuses jets._reduced to
metric while check and dual run on the orbit spaces.

The guard runs commands that build such metrics and checks each one: the
store kept until the index is complete, and g_inv, read back from the
index, equal to a second path (dense_oracles.ref_bergman_inverse for a
closed form, JetMatrix.inverse of g differentiated from the potential for
a graded solve).  The oracle test compares the completed index with
dense_oracles.naive_index of the g_inv of that second path, the hits of
each (U, V) as a multiset, at D = 2..10.  The tables of the paired index
equal those of a copy indexed whole at build (dense_oracles.eager_index)
on every store kind, and check so2n:N=6 never indexes degree 4.
"""

import contextlib
import io
import json
import sys
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from kahlerlap import catalog, cli, jets, metric
from kahlerlap.dsl import elaborate, parse_potential_file
from kahlerlap.jets import InputError, _reduced
from kahlerlap.metric import (
    _complete_index, _laplacian_functional, _pullback_index, metric_from_potential,
)

sys.path.insert(0, str(Path(__file__).parent))
from dense_oracles import (  # noqa: E402
    eager_copy, metric_matrix, naive_index, ref_bergman_inverse, sorted_hits,
)
from report_sweep import POT_FILES  # noqa: E402
from test_acceptance import ALL_LABELS  # noqa: E402
from test_graded_inverse import potentials  # noqa: E402
from test_orbit_tables import BREAKERS, NON_REAL, SYMMETRIC, asymmetric_bodies  # noqa: E402

GOLDEN = json.loads(
    Path(__file__).with_name("golden_check_reports.json").read_text(encoding="utf-8"))
BENCH_GOLDEN = json.loads(
    (Path(__file__).parent.parent / "perfbench" / "golden.json").read_text(encoding="utf-8"))

# g_inv with no permutation symmetry: not Hermitian (the full solve), and
# Hermitian with unequal d_i and mixed denominators (the upper solve)
ASYMMETRIC_POTS = [
    "dim 2\nmodsq(z(1)) + modsq(z(2)) + 1/3*z(1)*z(1)*conj(z(1)*z(2))"
    " + 1/2*modsq(z(1)*z(2))\n",
    "dim 3\n2*modsq(z(1)) + modsq(z(2)) + 1/2*modsq(z(3))"
    " + log(1 + 1/3*modsq(z(1)*z(2)) + modsq(z(2)*z(3)*z(3)))\n",
]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def integer_parts(jm, lg, pk):
    """The entries of the rational JetMatrix jm times lg, as integer graded
    parts on packing pk; each product must be an integer."""
    out = []
    for row in jm.entries:
        out.append([])
        for e in row:
            parts = []
            for part in e._parts_on(pk, jm.valid_degree):
                parts.append({})
                for K, c in part.items():
                    parts[-1][K], rest = divmod(c * lg, e.den)
                    assert not rest
            out[-1].append(parts)
    return out


def second_path(m, desc):
    """(Lg, whole integer g_inv) by a path that writes no index: the closed
    form with both triangles multiplied out, then reduced, or the rational
    inverse of g over the lcm of its denominators."""
    if desc is not None and catalog._bergman(desc) is not None:
        return _reduced(*ref_bergman_inverse(desc, m.potential, m.valid_degree))
    inv = metric_matrix(m.potential).inverse()
    lg = lcm(*(c.denominator for row in inv.entries for e in row for c in e.coeffs.values()))
    return lg, integer_parts(inv, lg, m.potential.pk)


def test_no_metric_without_the_symmetry_keeps_its_store_once_indexed(monkeypatch, tmp_path):
    """Each command prints its golden report (or, for the .pot files, the
    report of the unpatched run), and every metric it builds is one that no
    permutation fixes, keeps its store (den, per-degree parts) only until
    MetricJet.g_inv completes the index, and reads back from that index
    the g_inv of the second path: closed forms, a quadric, the dual
    command's pair and two asymmetric .pot files, on both graded solves."""
    pots = []
    for i, text in enumerate(ASYMMETRIC_POTS):
        pots.append(tmp_path / f"asymmetric{i}.pot")
        pots[-1].write_text(text, encoding="utf-8")
    argvs = [["check", "sp:N=3", "--degree", "8", "--kmax", "3", "--json"],
             ["check", "so2n:N=4", "--json"], ["check", "quadric-odd:N=4", "--json"],
             ["dual", "grassmannian:k=2,N=4", "--json"]]
    argvs += [["check", str(pot), "--json"] for pot in pots]
    shipped = [run(argv) for argv in argvs]
    goldens = {**{f"check {label} --json": GOLDEN[label] for label in GOLDEN}, **BENCH_GOLDEN}
    built = []  # (descriptor or None, metric) of every metric a command builds
    build_space, generic = catalog.build_space, metric.metric_from_potential

    def recorded_build(desc, D=6):
        space = build_space(desc, D)
        built.append((desc, space.metric))
        return space

    def recorded_generic(potential):
        m = generic(potential)
        built.append((None, m))
        return m

    for name, mod in list(sys.modules.items()):
        if name.startswith("kahlerlap"):
            for attr, orig, new in (("build_space", build_space, recorded_build),
                                    ("metric_from_potential", generic, recorded_generic)):
                if getattr(mod, attr, None) is orig:
                    monkeypatch.setattr(mod, attr, new)
    for argv, before in zip(argvs, shipped):
        assert run(argv) == goldens.get(" ".join(argv), before)
    monkeypatch.undo()
    descs = {id(m): desc for desc, m in built if desc is not None}
    metrics = {id(m): m for _, m in built}
    assert len(metrics) == 7  # sp, so2n, the quadric, the dual pair and two .pot files
    for key, m in metrics.items():
        assert not m._orbits and m._ginv is not None and m._pullback[2] == 0
        lg, whole = second_path(m, descs.get(key))
        assert m._pullback[0] == lg
        assert [[e.parts for e in row] for row in m.g_inv.entries] == whole
        assert m._ginv is None
        assert all(e.den == lg for row in m.g_inv.entries for e in row)


BERGMAN = [label for label in ALL_LABELS if catalog._bergman(catalog.parse_space(label))]
INDEXED = (BERGMAN + [f"dual({label})" for label in BERGMAN]
           + [f"so2n:N={N}" for N in range(3, 7)] + [f"sp:N={N}" for N in range(1, 5)]
           + ["grassmannian:k=2,N=4", "grassmannian:k=2,N=5", "grassmannian:k=3,N=5",
              "grassmannian:k=3,N=6", "quadric-even:N=4", "quadric-odd:N=4",
              "product(sp:N=2;cp:n=1)"])


@pytest.mark.parametrize("source", list(dict.fromkeys(INDEXED)) + ASYMMETRIC_POTS)
def test_the_written_index_is_the_naive_index_of_the_second_path(source):
    """At D = 2..10 the metric's pullback index (for an S_n-fixed g_inv,
    the one built from its column in every slot; for any other, the index,
    empty at build, completed) holds the hits of the second path's whole
    g_inv indexed entry by entry, over the same Lg."""
    for D in range(2, 11):
        if source in ASYMMETRIC_POTS:
            n, node = parse_potential_file(source)
            desc, m = None, metric_from_potential(elaborate(node, n, D))
        else:
            desc = catalog.parse_space(source)
            m = catalog.build_space(desc, D).metric
        if m._orbits:
            index = _pullback_index(m.potential.pk, *m._ginv, 0)[1]
        else:  # the index, completed (no table has read it yet)
            assert m._ginv is not None and not m._pullback[1]
            _complete_index(m)
            assert m._ginv is None and m._pullback[2] == 0
            index = m._pullback[1]
        pk, lg = m.potential.pk, m._pullback[0]
        ref_lg, whole = second_path(m, desc)
        assert (lg, sorted_hits(index)) == (ref_lg, sorted_hits(naive_index(pk, whole))), D


def test_an_orbit_column_is_reduced_only_by_the_index_writer(monkeypatch):
    """check and dual print the same on every orbit space of INDEXED with
    jets._reduced refused to metric: the column reaches _pullback_index
    unreduced, and the writer divides its terms by the one gcd."""
    labels = [label for label in INDEXED
              if catalog.build_space(catalog.parse_space(label), 6).metric._orbits]
    assert {"cp:n=3", "dual(cp:n=3)", "so2n:N=3"} <= set(labels)
    argvs = [[command, label, "--json"] for label in labels for command in ("check", "dual")]
    shipped = [run(argv) for argv in argvs]
    reduced = jets._reduced

    def refused_to_metric(*args):
        if sys._getframe(1).f_globals["__name__"] == metric.__name__:
            raise AssertionError("metric reduced g_inv")
        return reduced(*args)

    for mod in (jets, metric):
        monkeypatch.setattr(mod, "_reduced", refused_to_metric, raising=False)
    assert [run(argv) for argv in argvs] == shipped


# the non-Hermitian body, which takes the full store, and a Hermitian one
# whose g_inv[0][1] has a term on the diagonal key z1 zb1, which table 1
# reaches, so that step 2 pairs it for the entry and for its mate
NOT_REAL = "dim 2\nlog(1 + modsq(z(1)) + modsq(z(2))) + z(1)*z(1)*conj(z(1)*z(2))\n"
TILTED = ("dim 2\nlog(1 + modsq(z(1)) + modsq(z(2))) + z(1)*z(1)*conj(z(1)*z(2))"
          " + z(1)*z(2)*conj(z(1)*z(1))\n")
PAIRED_LABELS = list(dict.fromkeys(
    ALL_LABELS + [f"dual({label})" for label in ALL_LABELS]
    + [f"so2n:N={N}" for N in range(3, 7)] + [f"sp:N={N}" for N in range(1, 5)]
    + [label for label in INDEXED if label.startswith("grassmannian")]))
PAIRED_POTS = list(dict.fromkeys(
    ASYMMETRIC_POTS + [NOT_REAL, TILTED] + [f"{SYMMETRIC} + {extra}\n" for extra in BREAKERS] + NON_REAL
    + list(POT_FILES.values())))


def paired_metric(source, D):
    """The metric of a label or .pot body at truncation D, None if the
    body is refused or every permutation of the coordinates fixes g_inv."""
    if source in PAIRED_POTS:
        try:
            m = metric_from_potential(body_jet(source, D))
        except InputError:
            return None
    else:
        m = catalog.build_space(catalog.parse_space(source), D).metric
    return None if m._orbits else m


def assert_paired_tables_are_eager(m, kmax):
    """Tables 1..kmax of m, whose store no table has read, equal those of
    its copy indexed whole at build (dense_oracles.eager_copy), and its
    index, completed afterwards, is the copy's."""
    eager = eager_copy(m)
    for k in range(1, kmax + 1):
        assert _laplacian_functional(m, k) == _laplacian_functional(eager, k), k
    assert m._ginv is not None
    _complete_index(m)
    assert m._pullback[0] == eager._pullback[0]
    assert sorted_hits(m._pullback[1]) == sorted_hits(eager._pullback[1])


@pytest.mark.parametrize("source", PAIRED_LABELS + PAIRED_POTS)
def test_the_paired_index_gives_the_eager_tables(source):
    """At D = 2..10, tables k = 1..D // 2 + 1 (dual --degree 4 builds table
    3) of every metric without the S_n symmetry: the closed forms' upper
    stores, the upper and full graded solves of the quadrics and .pot
    bodies."""
    built = 0
    for D in range(2, 11):
        if (m := paired_metric(source, D)) is not None:
            assert_paired_tables_are_eager(m, D // 2 + 1)
            built += 1
    assert built or source in POT_FILES.values() or catalog.build_space(
        catalog.parse_space(source), 10).metric._orbits


def body_jet(text, D=6):
    n, node = parse_potential_file(text)
    return elaborate(node, n, D)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(potentials().map(lambda case: case[1]), asymmetric_bodies().map(body_jet)))
def test_paired_tables_on_random_potentials(phi):
    """The same on random potentials of every kind (test_graded_inverse)
    and random asymmetric .pot bodies (test_orbit_tables) that no
    permutation fixes."""
    m = metric_from_potential(phi)
    assume(not m._orbits)
    assert_paired_tables_are_eager(m, m.valid_degree // 2 + 1)


def test_check_so2n_6_never_indexes_degree_4(monkeypatch):
    """check so2n:N=6 --json (D = 6, k = 3) leaves no term of g_inv's
    degree 4 in the index: step 3 pairs it.  Completed, the index is the
    naive index of the whole closed form."""
    built = []
    build_space = catalog.build_space

    def recorded(desc, D=6):
        built.append(space := build_space(desc, D))
        return space

    monkeypatch.setattr(catalog, "build_space", recorded)
    shipped = run(["check", "so2n:N=6", "--json"])
    assert shipped["exit"] in (0, 1) and [s.descriptor.label() for s in built] == ["so2n:N=6"]
    m = built[0].metric
    pk, index = m.potential.pk, m._pullback[1]
    assert 3 in m._functionals and m._ginv is not None
    degrees = {(U | V << pk.half) % pk.mask for U, halves in index.items() for V in halves}
    assert degrees == {0, 2}  # g_inv has even degrees alone, and 3 is below 4
    _complete_index(m)
    lg, whole = second_path(m, catalog.parse_space("so2n:N=6"))
    assert (m._pullback[0], sorted_hits(m._pullback[1])) == (lg, sorted_hits(naive_index(pk, whole)))
