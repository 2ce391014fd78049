"""The closed-form g_inv of the radial catalog families.

catalog.build_space builds g_inv for flat, cp and ch as
psi1(t) delta_ij - psi2(t) z_j zb_i (radial.inverse_metric); every other
potential keeps the graded inverse of g.  The closed form must equal the
graded inverse term for term, and the guard below shows which path each
entry point takes by making the graded inverse fail.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from kahlerlap import catalog, cli, jets
from kahlerlap.jets import NonInvertibleError, ValidityError
from kahlerlap.metric import metric_from_potential
from kahlerlap.radial import inverse_metric, named_profile

GOLDEN = json.loads(
    Path(__file__).with_name("golden_check_reports.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("family", ["flat", "cp", "ch"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 10])
def test_closed_form_equals_the_graded_inverse(family, n):
    desc = catalog.parse_space(f"{family}:n={n}")
    for D in range(2, 13):
        m = catalog.build_space(desc, D).metric
        ref = metric_from_potential(m.potential)
        assert m.g_inv.valid_degree == ref.g_inv.valid_degree == D - 2
        assert m.g_inv == ref.g_inv
        assert all(e.pk is m.potential.pk for row in m.g_inv.entries for e in row)
        assert m._pullback == ref._pullback
        assert (m.origin_diag, m.normal_gauge, m.cubic_free) == (
            ref.origin_diag, ref.normal_gauge, ref.cubic_free
        )


def test_closed_form_needs_the_profile_deep_enough():
    phi = catalog.potential_jet(catalog.parse_space("cp:n=2"), 6)
    with pytest.raises(ValueError):  # psi2 needs Phi''
        inverse_metric(named_profile("fubini-study", 1), phi.truncated(2))
    with pytest.raises(ValidityError):  # psi1 to t^2 needs Phi to t^3
        inverse_metric(named_profile("fubini-study", 2), phi)
    assert inverse_metric(named_profile("fubini-study", 3), phi) == (
        metric_from_potential(phi).g_inv
    )


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


def test_radial_command_and_pot_files_keep_the_graded_inverse(graded_inverse_fails, tmp_path):
    code, out, err = run(["radial", "--name", "fubini-study", "--n", "2"])
    assert (code, out, err) == (3, "", "error: internal: graded inverse called\n")
    pot = tmp_path / "fs.pot"
    pot.write_text("dim 2\nradial(0, 1, 1/2)\n")
    code, out, err = run(["check", str(pot)])
    assert (code, out, err) == (3, "", "error: internal: graded inverse called\n")
