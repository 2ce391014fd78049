""".pot text drawn from the grammar of kahlerlap.dsl, run through check.

Every outcome is one of two kinds: exit 0 or 1 with a JSON report, or exit
2 or 3 with a typed error object whose kind is never "internal" or
"ValueError".  No outcome is a traceback.  Draws have dimension 1 or 2 and
at most 4 levels of nesting, over log, det (1 x 1 or 2 x 2), radial, conj,
modsq and rationals; most start from sum |z_i|^2, so that they pass the
gauge and reach the engine.  check runs at --degree 2, 4, 5 or 6, with
--kmax 1, 2 or 3 cut to the depth the degree allows.

A draw that gets a report must get the same one, but for its "space", with
h + conj(h) added, h a holomorphic monomial of degree 3, 4, 5 or 6 in its
variables: a pluriharmonic term leaves g, and every check, alone.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from kahlerlap import cli

# now and then a zero denominator, which the parser refuses
RATIONALS = st.builds(
    lambda p, q: str(p) if q == 1 else f"{p}/{q}",
    st.integers(0, 9), st.sampled_from([1, 2, 3, 4, 1, 0]),
)


def expressions(dim, depth):
    """Expression text of at most depth levels of nesting in z(1)..z(dim),
    with an occasional coordinate past dim."""
    coords = st.sampled_from([*range(1, dim + 1)] * 4 + [dim + 1])
    leaf = st.one_of(RATIONALS, coords.map("z({})".format))
    if depth == 0:
        return leaf
    sub = expressions(dim, depth - 1)
    return st.one_of(
        leaf,
        st.builds("{} + {}".format, sub, sub),
        st.builds("{} - {}".format, sub, sub),
        st.builds("{} * {}".format, sub, sub),
        sub.map("({})".format),
        sub.map("log(1 + {})".format),
        sub.map("log({})".format),
        sub.map("conj({})".format),
        sub.map("modsq({})".format),
        sub.map("det([{}])".format),
        st.builds("det([{}, {}; {}, {}])".format, sub, sub, sub, sub),
        st.lists(RATIONALS, min_size=1, max_size=4).map(
            lambda cs: f"radial({', '.join(cs)})"
        ),
    )


@st.composite
def pot_files(draw):
    dim = draw(st.sampled_from([1, 2, 2]))
    body = draw(expressions(dim, draw(st.integers(0, 4))))
    if draw(st.integers(0, 4)):  # most draws: sum |z_i|^2 plus a perturbation
        gauge = " + ".join(f"modsq(z({i}))" for i in range(1, dim + 1))
        body = draw(st.sampled_from([
            f"{gauge} + {body}",
            f"log(1 + {gauge}) + {body}",
            f"{gauge} + ({body}) * modsq(z(1) * z({dim}))",  # past the gauge
        ]))
    return f"dim {dim}\n{body}\n"


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(text=pot_files(), degree=st.sampled_from([6, 5, 4, 2]), kmax=st.sampled_from([3, 2, 1]))
def test_every_outcome_is_a_report_or_a_typed_error(tmp_path, text, degree, kmax):
    kmax = min(kmax, max(1, degree // 2))  # most draws reach the fit
    pot = tmp_path / "fuzz.pot"
    pot.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", str(pot), "--json", "--degree", str(degree),
                         "--kmax", str(kmax)])
    printed = json.loads(out.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        assert "error" not in printed and printed["delta"]
    else:
        assert code in (2, 3)
        assert printed["error"]["exit"] == code
        assert printed["error"]["kind"] not in ("internal", "ValueError")


def check_report(tmp_path, text):
    """(exit code, report without its "space") of check --json on text."""
    pot = tmp_path / "fuzz.pot"
    pot.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["check", str(pot), "--json"])
    report = json.loads(out.getvalue())
    report.pop("space", None)
    return code, report


@st.composite
def holomorphic_monomials(draw, dim, degree):
    """c z^E as text, E of total degree degree in z(1)..z(dim), c > 0."""
    coords = draw(st.lists(st.integers(1, dim), min_size=degree, max_size=degree))
    c = draw(st.builds(lambda p, q: str(p) if q == 1 else f"{p}/{q}",
                       st.integers(1, 9), st.sampled_from([1, 2, 3, 7])))
    return "*".join([c, *(f"z({i})" for i in sorted(coords))])


@pytest.mark.parametrize("degree", [3, 4, 5, 6])
@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(data=st.data())
def test_a_pluriharmonic_term_leaves_the_report_alone(tmp_path, degree, data):
    # h + conj(h), h holomorphic, adds nothing to g = d dbar Phi
    text = data.draw(pot_files())
    code, report = check_report(tmp_path, text)
    assume(code in (0, 1))
    h = data.draw(holomorphic_monomials(int(text.split()[1]), degree))
    assert check_report(tmp_path, f"{text.rstrip()} + {h} + conj({h})\n") == (code, report)
