import ast
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from kahlerlap import catalog, cli, dsl, metric, radial
from kahlerlap.dsl import elaborate, parse_potential_file
from kahlerlap.jets import InputError, JetError, NonInvertibleError
from kahlerlap.rationals import MAX_NESTING

# the directory the tests import kahlerlap from, so the child runs the same code
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])


def error_object(kind, message, code):
    """The stdout of a --json run that exits 2 or 3, parsed."""
    return {"error": {"kind": kind, "message": message, "exit": code}}


def run_cli(*args):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "kahlerlap.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


class TestCatalogCommand:
    def test_table_lists_families(self):
        r = run_cli("catalog")
        assert r.returncode == 0
        for name in ("grassmannian", "sp", "so2n", "quadric-even",
                     "quadric-odd", "cp", "ch", "flat"):
            assert name in r.stdout

    def test_json_array(self):
        r = run_cli("catalog", "--json")
        rows = json.loads(r.stdout)
        assert isinstance(rows, list) and len(rows) == 8

    def test_family_filter(self):
        r = run_cli("catalog", "--family", "grassmannian", "--json")
        rows = json.loads(r.stdout)
        assert len(rows) == 1 and rows[0]["family"] == "grassmannian"


class TestCheckCommand:
    def test_cp1_passes(self):
        r = run_cli("check", "cp:n=1", "--kmax", "3")
        assert r.returncode == 0
        assert "p_2 = x^2 + 2*x" in r.stdout
        assert "p_3 = x^3 + 10*x^2 + 8*x" in r.stdout

    def test_grassmannian_violation_exit_code(self):
        r = run_cli("check", "grassmannian:k=2,N=4", "--kmax", "3")
        assert r.returncode == 1
        assert "VIOLATED" in r.stdout
        assert "val1 - 2*val2 = 16" in r.stdout

    def test_unknown_space_usage_error(self):
        r = run_cli("check", "missing:x=1")
        assert r.returncode == 2
        assert "error" in r.stderr

    @pytest.mark.parametrize(
        "label,key", [("cp:n=1,n=2", "n"), ("grassmannian:k=1,N=3,k=2", "k")]
    )
    def test_repeated_parameter_usage_error(self, label, key):
        r = run_cli("check", label, "--kmax", "1", "--json")
        assert r.returncode == 2
        message = f"{label.partition(':')[0]} parameter {key!r} is repeated"
        assert json.loads(r.stdout) == error_object("CatalogError", message, 2)
        assert r.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("label", ["cp:n=--2", "cp:n=\u00b2"])
    def test_malformed_parameter_value_usage_error(self, label):
        r = run_cli("check", label)
        assert r.returncode == 2
        assert r.stderr == f"error: bad parameter {label[3:]!r} in {label!r}\n"

    def test_low_degree_usage_error(self):
        r = run_cli("check", "cp:n=1", "--kmax", "3", "--degree", "4")
        assert r.returncode == 2

    def test_json_schema(self):
        r = run_cli("check", "grassmannian:k=2,N=4", "--json")
        report = json.loads(r.stdout)
        assert report["space"] == "grassmannian:k=2,N=4"
        assert report["dim"] == 4 and report["truncation"] == 6
        assert report["einstein"] == {"lambda": "4", "residual": "0"}
        delta = report["delta"]
        assert delta[0]["pk"] == {"1": "1"}
        assert delta[1]["pk"] == {"1": "4", "2": "1"}
        assert delta[2]["status"] == "violated"
        w = delta[2]["witness"]
        assert set(w) == {"P", "Q", "kind", "lhs", "expected"}
        assert report["obstruction"] == {
            "lambda": "4",
            "mu": ["1", "1"],
            "val1": "64",
            "val2": "24",
            "requirement": "16",
        }
        assert report["engine"]["version"]

    def test_determinism_and_round_trip(self):
        a = run_cli("check", "sp:N=2", "--json")
        b = run_cli("check", "sp:N=2", "--json")
        assert a.stdout == b.stdout
        report = json.loads(a.stdout)
        assert json.loads(json.dumps(report)) == report

    def test_pot_file(self, tmp_path):
        pot = tmp_path / "line.pot"
        pot.write_text("# Fubini-Study line\ndim 1\nlog(1 + modsq(z(1)))\n")
        r = run_cli("check", str(pot), "--kmax", "2")
        assert r.returncode == 0
        assert "p_2 = x^2 + 2*x" in r.stdout

    @pytest.mark.parametrize(
        "body,where",
        [("1/0 * modsq(z(1))", "zero denominator (line 3, column 3)"),
         ("modsq(z(1)) 5", "trailing input starting at '5' (line 3, column 13)")],
    )
    def test_pot_syntax_error_reports_the_file_line(self, tmp_path, body, where):
        pot = tmp_path / "broken.pot"
        pot.write_text(f"# a comment line\ndim 1\n{body}\n")
        r = run_cli("check", str(pot))
        assert r.returncode == 2
        assert r.stderr == f"error: {where}\n"

    def test_bad_pot_file(self, tmp_path):
        pot = tmp_path / "broken.pot"
        pot.write_text("dim 1\nlog(\n")
        r = run_cli("check", str(pot))
        assert r.returncode == 2

    def test_engine_fault_exit_code(self, monkeypatch, capsys):
        def singular(potential):
            raise NonInvertibleError("singular constant term")

        # the quadrics are not Bergman families: their g_inv comes from
        # metric_from_potential
        monkeypatch.setattr(catalog, "metric_from_potential", singular)
        assert cli.main(["check", "quadric-even:N=4", "--json"]) == 3
        out = capsys.readouterr()
        assert json.loads(out.out) == error_object(
            "NonInvertibleError", "singular constant term", 3
        )
        assert out.err == "error: internal: singular constant term\n"

    def test_engine_fault_in_the_closed_form_exit_code(self, monkeypatch, capsys):
        def singular(desc, s, potential, D, solve, blocks=None):
            raise NonInvertibleError("singular constant term")

        monkeypatch.setattr(catalog, "bergman_inverse", singular)
        assert cli.main(["check", "grassmannian:k=1,N=2", "--json"]) == 3
        out = capsys.readouterr()
        assert json.loads(out.out) == error_object(
            "NonInvertibleError", "singular constant term", 3
        )
        assert out.err == "error: internal: singular constant term\n"

    def test_truncation_error_suggests_degree(self, capsys):
        argv = ["check", "grassmannian:k=2,N=4", "--kmax", "2"]
        assert cli.main(argv + ["--degree", "5"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "error: potential valid_degree 5 < 6 needed for k=3 "
            "(rerun with --degree 6)\n"
        )
        assert cli.main(argv + ["--degree", "6"]) == 0

    def test_out_flag_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        r = run_cli("check", "cp:n=1", "--json", "--out", str(out))
        assert r.returncode == 0 and r.stdout == ""
        assert json.loads(out.read_text())["space"] == "cp:n=1"

    def test_unwritable_out_path_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "report.json"
        assert cli.main(["check", "cp:n=1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file" in err

    def test_directory_as_pot_file_is_usage_error(self, tmp_path, capsys):
        pot = tmp_path / "some_dir.pot"
        pot.mkdir()
        assert cli.main(["check", str(pot)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err

    def test_a_byte_that_is_not_utf8_is_a_syntax_error(self, tmp_path, capsys):
        # it reads as U+FFFD: refused where the parser reads it, not in a comment
        pot = tmp_path / "latin1.pot"
        pot.write_bytes("dim 1\nmodsq(z(1)) \xe9\n".encode("latin-1"))
        assert cli.main(["check", str(pot), "--json"]) == 2
        out = capsys.readouterr()
        message = "unexpected character '\ufffd' (line 2, column 13)"
        assert json.loads(out.out) == error_object("PotentialSyntaxError", message, 2)
        assert out.err == f"error: {message}\n"
        pot.write_bytes("dim 1\nmodsq(z(1)) # \xe9\n".encode("latin-1"))
        assert cli.main(["check", str(pot), "--json"]) == 0

    def test_pot_file_outside_bochner_form_is_refused(self, monkeypatch, tmp_path, capsys):
        # CP^1 in a shifted chart: its (2, 1) and (1, 2) terms once read as
        # a k=2 violation at z^[1] zb^[2]
        pot = tmp_path / "shifted.pot"
        pot.write_text("dim 1\nlog(1 + modsq(1/2 + z(1)))\n")

        def build(*args):
            raise AssertionError("built a metric or ran a fit")

        for name in ("metric_from_potential", "check_delta_property"):
            monkeypatch.setattr(cli, name, build)
        assert cli.main(["check", str(pot), "--kmax", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "error: potential is not in Bochner form: term z^[2] zb^[1] has "
            "bidegree (2, 1)\n"
        )


class TestJsonErrorObject:
    """Under --json, a run that exits 2 or 3 also prints the error object on
    stdout; stderr keeps its line, and without --json stdout stays empty."""

    CASES = [
        (["check", "cp:n=0"], "CatalogError", "cp parameters must be positive integers",
         "error: cp parameters must be positive integers\n"),
        (["dual", "cp:n=2", "--degree", "2"], "TruncationError",
         "inverse metric valid below degree 2",
         "error: inverse metric valid below degree 2 (rerun with --degree 4)\n"),
    ]

    @pytest.mark.parametrize("argv,kind,message,err", CASES)
    def test_error_object(self, capsys, argv, kind, message, err):
        assert cli.main(argv + ["--json"]) == 2
        out = capsys.readouterr()
        assert json.loads(out.out) == error_object(kind, message, 2)
        assert out.err == err
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", err)

    @pytest.mark.parametrize("flag", ["--js", "--jso"])
    @pytest.mark.parametrize("argv", [["check"], ["nosuch"], ["check", "cp:n=1", "--bogus"]])
    def test_a_prefix_of_json_on_an_argv_that_does_not_parse(self, capsys, argv, flag):
        """--json is named as parse_args names it, by a unique prefix too,
        before argv is read: the refusal is one error object."""
        assert cli.main(argv + [flag]) == 2
        out = capsys.readouterr()
        message = out.err.removeprefix("error: ").removesuffix("\n")
        assert out.err.count("\n") == 1
        assert json.loads(out.out) == error_object("UsageError", message, 2)

    def test_any_other_exception_is_an_internal_fault(self, capsys, monkeypatch):
        def fault(*args):
            raise KeyError("slot")

        # a call inside metric_with_inverse after the gauge check and the inverse
        monkeypatch.setattr(metric, "_pullback_index", fault)
        assert cli.main(["check", "cp:n=2", "--json"]) == 3
        out = capsys.readouterr()
        assert json.loads(out.out) == error_object("internal", "KeyError: 'slot'", 3)
        assert out.err == "error: internal: KeyError: 'slot'\n"
        assert cli.main(["check", "cp:n=2"]) == 3
        assert capsys.readouterr().out == ""

    def test_a_bare_value_error_is_an_internal_fault(self, capsys, monkeypatch):
        # an engine bug, not a refused input: it must not be blamed on the user
        def fault(*args):
            raise ValueError("slot")

        monkeypatch.setattr(metric, "_pullback_index", fault)
        assert cli.main(["check", "cp:n=2", "--json"]) == 3
        out = capsys.readouterr()
        assert json.loads(out.out) == error_object("internal", "ValueError: slot", 3)
        assert out.err == "error: internal: ValueError: slot\n"

    def test_every_refusal_is_an_input_error(self):
        refusals = (cli.UsageError, catalog.CatalogError, metric.GaugeError,
                    metric.TruncationError, dsl.PotentialSyntaxError, dsl.ElaborationError,
                    radial.SeriesError)
        assert all(issubclass(cls, InputError) for cls in refusals)
        assert not issubclass(JetError, InputError)

    def test_a_long_product_is_read_without_a_traceback(self, tmp_path):
        # one Mul node per factor: far more than the interpreter's recursion limit
        pot = tmp_path / "long.pot"
        pot.write_text("dim 1\nmodsq(z(1)) + " + "*".join(["z(1)"] * 3000) + "\n")
        r = run_cli("check", str(pot), "--json")
        assert (r.returncode, r.stderr) == (0, "")
        flat = run_cli("check", "flat:n=1", "--json")
        assert json.loads(r.stdout)["delta"] == json.loads(flat.stdout)["delta"]

    def test_pot_syntax_error(self, tmp_path):
        pot = tmp_path / "broken.pot"
        pot.write_text("dim 1\nlog(\n")
        message = "expected a factor, found 'end of input' (line 2, column 5)"
        r = run_cli("check", str(pot), "--json")
        assert r.returncode == 2
        assert json.loads(r.stdout) == error_object("PotentialSyntaxError", message, 2)
        assert r.stderr == f"error: {message}\n"

    def test_nesting_past_the_cap_is_a_syntax_error(self, tmp_path):
        pot = tmp_path / "deep.pot"
        pot.write_text("dim 1\n" + "(" * 3000 + "modsq(z(1))" + ")" * 3000 + "\n")
        message = "over 100 nested brackets (line 2, column 102)"
        r = run_cli("check", str(pot), "--json")
        assert r.returncode == 2
        assert json.loads(r.stdout) == error_object("PotentialSyntaxError", message, 2)
        assert r.stderr == f"error: {message}\n"

    # a label nested by dual and one by product, each with an unnested label
    # of the same report at the cap, and the flags they run with there:
    # product(...;flat:n=1) 100 times around cp:n=1 is C x C^100, n = 101
    NESTED = [
        ("dual({})", "cp:n=1", ["--json"]),
        ("product({};flat:n=1)", "product(cp:n=1;flat:n=100)",
         ["--degree", "4", "--kmax", "1", "--json"]),
    ]

    @staticmethod
    def nested(wrap, depth):
        label = "cp:n=1"
        for _ in range(depth):
            label = wrap.format(label)
        return label

    @pytest.mark.parametrize("wrap, same, argv", NESTED)
    def test_a_label_nested_to_the_cap_runs(self, capsys, wrap, same, argv):
        reports = []
        for label in (self.nested(wrap, MAX_NESTING), same):
            assert cli.main(["check", label, *argv]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report.pop("space") == label
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1200])
    @pytest.mark.parametrize("wrap", [wrap for wrap, _, _ in NESTED])
    def test_a_label_nested_past_the_cap_is_a_catalog_error(self, capsys, wrap, depth):
        # refused before it is read: 1200 levels would exhaust the stack
        message = f"label nested over {MAX_NESTING} brackets deep"
        assert cli.main(["check", self.nested(wrap, depth), "--json"]) == 2
        out = capsys.readouterr()
        assert json.loads(out.out) == error_object("CatalogError", message, 2)
        assert out.err == f"error: {message}\n"

    def test_error_object_goes_to_stdout_under_out(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert cli.main(["check", "cp:n=0", "--json", "--out", str(report)]) == 2
        out = capsys.readouterr()
        assert json.loads(out.out)["error"]["kind"] == "CatalogError"
        assert not report.exists()


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_catalog_and_seeded_potentials_are_balanced():
    """Every term has |P| = |Q|, so the Bochner-form refusal leaves the
    reports of the golden labels and of the benchmark's seeded .pot files
    as they were."""
    golden = json.loads(
        (Path(__file__).parent / "golden_check_reports.json").read_text(encoding="utf-8")
    )
    jets_ = [catalog.potential_jet(catalog.parse_space(label), 6) for label in golden]
    workloads = _load_workloads()
    for seed in range(8):
        for text in workloads.pot_texts(seed):
            n, expr = parse_potential_file(text)
            jets_.append(elaborate(expr, n, workloads.POT_DEGREE))
    for phi in jets_:
        assert all(sum(P) == sum(Q_) for P, Q_ in phi.coeffs)


def test_consecutive_main_calls_print_what_fresh_processes_print():
    runs = [
        ["catalog"],
        ["check", "cp:n=1", "--kmax", "2"],
        ["check"],
        ["nosuch"],
        ["check", "missing:x=1"],
        ["check", "sp:N=2", "--json"],
        ["dual", "cp:n=1", "--degree", "7"],
        ["radial", "--name", "flat", "--n", "1", "--kmax", "2", "--json"],
        ["check", "-h"],
    ]
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        fresh = run_cli(*argv)
        assert (code, out.getvalue(), err.getvalue()) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        )


DIGITS = "9" * 5000  # past int()'s default limit of 4300 digits


def parsed(command, **fields):
    """The namespace parse_args gives for command with fields set."""
    defaults = {
        "catalog": {"family": None},
        "check": {"space": None, "kmax": 3, "degree": None},
        "radial": {"name": None, "coeffs": None, "n": None, "kmax": 3, "degree": None},
        "dual": {"space": None, "degree": 6},
    }[command]
    common = {"json": False, "out": None, "help": False}
    return SimpleNamespace(command=command, **{**defaults, **common, **fields})


class TestArgv:
    """The argv parser: every accepted form, every refused one, and -h."""

    ACCEPTED = [
        (["catalog"], parsed("catalog")),
        (["catalog", "--family", "cp", "--json"], parsed("catalog", family="cp", json=True)),
        (["check", "cp:n=1"], parsed("check", space="cp:n=1")),
        (["check", "cp:n=1", "--kmax", "4", "--degree", "8"],
         parsed("check", space="cp:n=1", kmax=4, degree=8)),
        (["check", "cp:n=1", "--kmax=4", "--degree=8", "--out=r.json"],
         parsed("check", space="cp:n=1", kmax=4, degree=8, out="r.json")),
        # unique prefixes
        (["check", "cp:n=1", "--km", "4", "--deg=8", "--js", "--o", "r"],
         parsed("check", space="cp:n=1", kmax=4, degree=8, json=True, out="r")),
        # the last of a repeated flag wins
        (["check", "cp:n=1", "--kmax", "2", "--kmax", "5", "--json", "--json"],
         parsed("check", space="cp:n=1", kmax=5, json=True)),
        # flags before the positional
        (["check", "--json", "--kmax", "2", "sp:N=2"],
         parsed("check", space="sp:N=2", kmax=2, json=True)),
        (["dual", "--degree", "4", "cp:n=2"], parsed("dual", space="cp:n=2", degree=4)),
        # a value is the next token, whatever it looks like
        (["check", "cp:n=1", "--kmax", "-1"], parsed("check", space="cp:n=1", kmax=-1)),
        (["check", "--out", "--json", "cp:n=1"], parsed("check", space="cp:n=1", out="--json")),
        (["check", "-"], parsed("check", space="-")),
        (["radial", "--n", "-1", "--name", "flat"], parsed("radial", n=-1, name="flat")),
        # --n is exact, --na a prefix of --name
        (["radial", "--na=hyperbolic", "--n=2", "--coeffs", "0,1"],
         parsed("radial", name="hyperbolic", n=2, coeffs="0,1")),
        (["radial", "--coeffs", "0,1,-1/2", "--n", "007"],
         parsed("radial", coeffs="0,1,-1/2", n=7)),
    ]

    @pytest.mark.parametrize("argv,expected", ACCEPTED)
    def test_accepted(self, argv, expected):
        assert cli.parse_args(argv) == expected

    REFUSED = [
        [],
        ["nosuch"],
        ["-x", "check", "cp:n=1"],
        ["check", "cp:n=1", "--bogus"],
        ["check", "cp:n=1", "-k", "2"],
        ["check", "cp:n=1", "--"],
        ["check", "cp:n=1", "--kmax"],
        ["check"],
        ["check", "cp:n=1", "sp:N=2"],
        ["catalog", "cp"],
        ["check", "cp:n=1", "--kmax", "1.5"],
        ["check", "cp:n=1", "--kmax", "\u0663"],
        ["check", "cp:n=1", "--kmax", " 3"],
        ["check", "cp:n=1", "--kmax", "3_0"],
        ["check", "cp:n=1", "--degree", DIGITS],
        ["check", "cp:n=1", "--json=yes"],
        ["radial", "--name", "foo", "--n", "1"],
        ["radial", "--name", "flat"],
        ["radial", "--name", "flat", "--n", "two"],
    ]

    @pytest.mark.parametrize("argv", REFUSED)
    def test_refused(self, capsys, argv):
        with pytest.raises(cli.UsageError):
            cli.parse_args(argv)
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        # under --json the same refusal is the error object too
        assert cli.main(argv + ["--json"]) == 2
        out = capsys.readouterr()
        message = out.err.removeprefix("error: ").removesuffix("\n")
        assert out.err.count("\n") == 1
        assert json.loads(out.out) == error_object("UsageError", message, 2)

    HELP = {
        None: ["catalog", "check", "radial", "dual"],
        "catalog": ["--family", "--json", "--out", "--help"],
        "check": ["SPACE", "--kmax", "--degree", "--json", "--out", "--help"],
        "radial": ["--name", "--coeffs", "--n", "--kmax", "--degree", "--json", "--out",
                   "--help"],
        "dual": ["SPACE", "--degree", "--json", "--out", "--help"],
    }

    @pytest.mark.parametrize("command", list(HELP))
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help(self, capsys, command, flag):
        argv = [command, flag] if command else [flag]
        assert cli.main(argv) == 0
        out = capsys.readouterr()
        assert out.err == "" and out.out.startswith("usage: kahlerlap ")
        for name in self.HELP[command]:
            assert name in out.out
        # help ends the reading of argv, before a missing argument is noticed
        assert cli.main(argv + ["--kmax", "x"]) == 0
        assert capsys.readouterr().out == out.out

    def test_an_int_flag_past_the_digit_limit_is_refused_before_int(self, capsys):
        assert cli.main(["check", "cp:n=1", "--kmax", DIGITS, "--json"]) == 2
        out = capsys.readouterr()
        message = f"--kmax needs an integer, got {DIGITS!r}"
        assert json.loads(out.out) == error_object("UsageError", message, 2)
        assert out.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "body,where",
    [(f"dim 1\nmodsq(z(1)) + {DIGITS}*modsq(z(1))\n", "line 2, column 15"),
     (f"dim 1\nmodsq(z({DIGITS}))\n", "line 2, column 9"),
     (f"# a comment line\n  dim {DIGITS}\nmodsq(z(1))\n", "line 2, column 7")],
)
def test_pot_integer_past_the_digit_limit_is_a_syntax_error(tmp_path, capsys, body, where):
    pot = tmp_path / "long.pot"
    pot.write_text(body)
    assert cli.main(["check", str(pot), "--json"]) == 2
    out = capsys.readouterr()
    message = f"integer of more than 4300 digits ({where})"
    assert json.loads(out.out) == error_object("PotentialSyntaxError", message, 2)
    assert out.err == f"error: {message}\n"


def test_label_parameter_past_the_digit_limit_is_a_catalog_error(capsys):
    label = f"cp:n={DIGITS}"
    assert cli.main(["check", label, "--json"]) == 2
    out = capsys.readouterr()
    message = f"bad parameter {'n=' + DIGITS!r} in {label!r}"
    assert json.loads(out.out) == error_object("CatalogError", message, 2)
    assert out.err == f"error: {message}\n"


SEVENS = "7" * 3000  # a square of it has 6001 digits


@contextlib.contextmanager
def no_digit_limit():
    """Lift int's string-conversion limit, to read the long values back."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_result_past_the_digit_limit_prints_exactly(capsys, tmp_path):
    # g = a + 4t for Phi = a t + t^2, so Ric(0) = -4/a = lambda g(0)
    a, limit = int(SEVENS), sys.get_int_max_str_digits()
    pot = tmp_path / "long.pot"
    pot.write_text(f"dim 1\n{SEVENS}*modsq(z(1)) + modsq(z(1)*z(1))\n")
    assert cli.main(["check", str(pot), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert cli.main(["check", str(pot)]) == 0
    text = capsys.readouterr().out
    assert sys.get_int_max_str_digits() == limit
    with no_digit_limit():
        assert Fraction(report["einstein"]["lambda"]) == Fraction(-4, a * a)
        assert f"lambda = {Fraction(-4, a * a)} (residual 0)\n" in text


def test_an_error_message_past_the_digit_limit_keeps_its_type(capsys, tmp_path):
    a, limit = int(SEVENS), sys.get_int_max_str_digits()
    pot = tmp_path / "long.pot"
    pot.write_text(f"dim 1\n0 - {SEVENS}*{SEVENS}*modsq(z(1))\n")
    assert cli.main(["check", str(pot), "--json"]) == 2
    out = capsys.readouterr()
    assert sys.get_int_max_str_digits() == limit
    error = json.loads(out.out)["error"]
    assert (error["kind"], error["exit"]) == ("GaugeError", 2)
    assert out.err == f"error: {error['message']}\n"
    value = error["message"].removeprefix("g(0,0)(0) = ").removesuffix(" is not positive")
    with no_digit_limit():
        assert Fraction(value) == -a * a


# each refused input by name: its argv, and the .pot body it reads (written
# to {pot}) if any
REFUSED_INPUTS = {
    "bad-label-value": (["check", "cp:n=0"], None),
    "repeated-label-parameter": (["check", "cp:n=1,n=2"], None),
    "unknown-family": (["check", "nope:x=1"], None),
    "long-label-parameter": (["check", f"cp:n={DIGITS}"], None),
    "long-kmax": (["check", "cp:n=1", "--kmax", DIGITS], None),
    "low-degree": (["check", "cp:n=1", "--degree", "2"], None),
    "truncated-dual": (["dual", "cp:n=2", "--degree", "2"], None),
    "no-profile": (["radial", "--n", "1"], None),
    "coeffs-zero-denominator": (["radial", "--coeffs", "0,1/0", "--n", "2"], None),
    "coeffs-decimal": (["radial", "--coeffs", "0,1,0.5", "--n", "1"], None),
    "coeffs-long-numerator": (
        ["radial", "--coeffs", "0,1," + "7" * 5000, "--n", "1", "--kmax", "2"], None),
    "coeffs-long-denominator": (
        ["radial", "--coeffs", "0,1,1/" + "7" * 5000, "--n", "1", "--kmax", "2"], None),
    "coeffs-negative-slope": (["radial", "--coeffs", "0,-1", "--n", "2"], None),
    "coeffs-zero-slope": (["radial", "--coeffs", "0,0,1", "--n", "2"], None),
    "coeffs-no-slope": (["radial", "--coeffs", "1", "--n", "2"], None),
    "no-variables": (["radial", "--name", "flat", "--n", "0"], None),
    "pot-syntax": (["check", "{pot}"], "dim 1\nlog(\n"),
    "pot-long-literal": (["check", "{pot}"], f"dim 1\nmodsq(z(1)) + {DIGITS}*modsq(z(1))\n"),
    "pot-non-diagonal": (
        ["check", "{pot}"], "dim 2\nlog(1 + modsq(z(1)) + modsq(z(1) + z(2)))\n"),
    "pot-long-negative-gauge": (
        ["check", "{pot}"], f"dim 1\n0 - {SEVENS}*{SEVENS}*modsq(z(1))\n"),
}


@pytest.mark.parametrize("argv,body", REFUSED_INPUTS.values(), ids=REFUSED_INPUTS)
def test_a_refused_input_is_a_typed_error(capsys, tmp_path, argv, body):
    if body is not None:
        pot = tmp_path / "input.pot"
        pot.write_text(body)
        argv = [str(pot) if word == "{pot}" else word for word in argv]
    assert cli.main(argv + ["--json"]) == 2
    out = capsys.readouterr()
    error = json.loads(out.out)["error"]
    assert error["kind"] != "ValueError"
    assert "set_int_max_str_digits" not in error["message"] + out.err


class TestRadialCommand:
    def test_named_profile(self):
        r = run_cli("radial", "--name", "fubini-study", "--n", "2", "--kmax", "3")
        assert r.returncode == 0
        assert "p_2 = x^2 + 3*x" in r.stdout
        assert "verdict: equal" in r.stdout

    def test_coefficient_profile(self):
        r = run_cli("radial", "--coeffs", "0,1,1/2", "--n", "1", "--kmax", "3")
        assert r.returncode == 0
        assert "verdict: equal" in r.stdout

    def test_one_variable_to_kmax_8(self):
        # lap^8 reaches z^8 zb^8, within the 5-bit slots of the degree-16 metric
        args = ("--name", "fubini-study", "--n", "1", "--kmax", "8", "--json")
        r = run_cli("radial", *args)
        assert r.returncode == 0
        assert json.loads(r.stdout)["radial"]["equal"] is True

    def test_zero_denominator_in_coeffs_is_usage_error(self):
        r = run_cli("radial", "--coeffs", "0,1/0", "--n", "2")
        assert r.returncode == 2
        assert r.stderr.startswith("error: bad --coeffs")
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "item",
        ["1e30000000", "1e2", "0.5", "\u0663", "1_000",
         pytest.param("7" * 5000, id="long-numerator"),
         pytest.param("1/" + "7" * 5000, id="long-denominator")],
    )
    def test_coeffs_outside_the_integer_grammar_are_usage_errors(self, item):
        # refused before a Fraction is built: Fraction("1e30000000") would
        # build 10^30000000
        r = run_cli("radial", "--coeffs", f"0,1,{item}", "--n", "1", "--kmax", "2")
        assert r.returncode == 2
        assert r.stderr == f"error: bad --coeffs: {item!r} is not an integer or p/q\n"

    def test_negative_slope_rejected(self):
        r = run_cli("radial", "--coeffs", "0,-1", "--n", "1")
        assert r.returncode == 2

    def test_requires_exactly_one_source(self):
        r = run_cli("radial", "--n", "1")
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "args", [("--name", "flat", "--n", "0"),
                 ("--name", "fubini-study", "--n", "-1")],
    )
    def test_nonpositive_dimension_is_usage_error(self, args):
        r = run_cli("radial", *args)
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and "n >= 1" in r.stderr
        assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "argv",
    [["check", "sp:N=4", "--degree", "8", "--kmax", "0"],
     ["check", "cp:n=1", "--kmax", "-1", "--json"],
     ["radial", "--name", "fubini-study", "--n", "2", "--kmax", "0"]],
)
def test_nonpositive_kmax_refused_before_any_build(monkeypatch, capsys, argv):
    def build(*args):
        raise AssertionError("built a potential or a metric")

    monkeypatch.setattr(catalog, "build_space", build)
    for name in ("metric_from_potential", "named_profile", "potential_jet",
                 "radial_pk"):
        monkeypatch.setattr(cli, name, build)
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    if "--json" in argv:
        assert json.loads(out.out) == error_object("UsageError", "k_max must be >= 1", 2)
    else:
        assert out.out == ""
    assert out.err == "error: k_max must be >= 1\n"


BELOW_EINSTEIN = "inverse metric valid below degree 2"
CUBIC_POT = "dim 1\nmodsq(z(1)) + z(1)*z(1)*z(1) + conj(z(1)*z(1)*z(1))\n"


@pytest.mark.parametrize(
    "target,degree",
    [(label, degree) for label in ("cp:n=1", "quadric-odd:N=4", "product(cp:n=1;ch:n=1)",
                                   "dual(sp:N=2)") for degree in (2, 3)]
    + [("cubic-free.pot", 2), ("cubic-free.pot", 3), ("cubic.pot", 2), ("cubic.pot", 3)],
)
def test_a_degree_below_the_einstein_test_is_refused_before_any_build(
        monkeypatch, capsys, tmp_path, target, degree):
    # einstein_constant needs degree 4 of a cubic-free potential, which
    # every catalog one is; a .pot is elaborated first to see its cubic
    # terms, and a pluriharmonic cubic (cubic.pot) does not reach g
    (tmp_path / "cubic-free.pot").write_text("dim 2\nlog(1 + modsq(z(1)) + 2*modsq(z(2)))\n")
    (tmp_path / "cubic.pot").write_text(CUBIC_POT)
    target = str(tmp_path / target) if target.endswith(".pot") else target
    argv = ["check", target, "--degree", str(degree), "--kmax", "1"]
    err = f"error: {BELOW_EINSTEIN} (rerun with --degree 4)\n"
    shipped = [cli.main(argv + flag) for flag in ([], ["--json"])]
    out = capsys.readouterr()
    assert shipped == [2, 2] and out.err == err * 2
    assert json.loads(out.out) == error_object("TruncationError", BELOW_EINSTEIN, 2)

    def build(*args):
        raise AssertionError("built a metric")

    monkeypatch.setattr(catalog, "build_space", build)
    for mod in (cli, catalog):
        monkeypatch.setattr(mod, "metric_from_potential", build)
    assert [cli.main(argv + flag) for flag in ([], ["--json"])] == shipped
    assert capsys.readouterr() == out


def test_a_gauge_refusal_still_comes_first_below_degree_4(monkeypatch, capsys, tmp_path):
    # CP^2 in a chart whose g(0) is not diagonal: refused by the gauge, as
    # when the metric build raised it, and still before any build
    pot = tmp_path / "chart.pot"
    pot.write_text("dim 2\nlog(1 + modsq(z(1)) + modsq(z(1) + z(2)))\n")

    def build(*args):
        raise AssertionError("built a metric")

    monkeypatch.setattr(cli, "metric_from_potential", build)
    for degree in (2, 3):
        assert cli.main(["check", str(pot), "--degree", str(degree), "--kmax", "1"]) == 2
        assert capsys.readouterr().err == "error: g(0) is not diagonal: entry (0,1) = 1\n"


def test_a_pluriharmonic_cubic_leaves_the_report_alone(tmp_path, capsys):
    # h + conj(h), h a holomorphic cubic, leaves g alone, so the Einstein
    # and parallel checks run and the report is that of CP^2
    reports = []
    for extra in ("", " + z(1)*z(1)*z(2) + conj(z(1)*z(1)*z(2))"):
        pot = tmp_path / f"case{len(reports)}.pot"
        pot.write_text(f"dim 2\nlog(1 + modsq(z(1)) + modsq(z(2))){extra}\n")
        assert cli.main(["check", str(pot), "--json"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
        del reports[-1]["space"]
    assert reports[1] == reports[0]
    assert reports[1]["einstein"] == {"lambda": "3", "residual": "0"}
    assert reports[1]["parallel"] == {"third": "0", "fifth": "0"}
    # the same error object as einstein_constant's own refusal
    m = metric.metric_from_potential(elaborate(parse_potential_file(
        "dim 1\nmodsq(z(1))\n")[1], 1, 3))
    with pytest.raises(metric.TruncationError, match=f"^{BELOW_EINSTEIN}$") as exc:
        metric.einstein_constant(m)
    assert exc.value.required == 4


class TestDualCommand:
    def test_cp1(self):
        r = run_cli("dual", "cp:n=1")
        assert r.returncode == 0
        assert "40 / -40" in r.stdout
        assert "all pairs sum to zero" in r.stdout

    def test_grassmannian(self):
        r = run_cli("dual", "grassmannian:k=2,N=4", "--json")
        assert r.returncode == 0
        rows = json.loads(r.stdout)["dual"]
        assert len(rows) == 10
        for row in rows:
            from fractions import Fraction

            assert Fraction(row["compact"]) + Fraction(row["noncompact"]) == 0

    @pytest.mark.parametrize("label", ["cp:n=2", "grassmannian:k=2,N=4"])
    def test_rows_at_degree_4_and_5_match_degree_6(self, label, capsys):
        # lap^3 at valid_degree 4 or 5 is the one table with k > valid/2:
        # its exponents reach 3, within the 3-bit slots of the degree-4 metric
        rows = {}
        for degree in (4, 5, 6):
            assert cli.main(["dual", label, "--degree", str(degree), "--json"]) == 0
            rows[degree] = json.loads(capsys.readouterr().out)["dual"]
        assert rows[4] == rows[6] and rows[5] == rows[6]

    def test_flat_zeros(self):
        r = run_cli("dual", "flat:n=2", "--json")
        rows = json.loads(r.stdout)["dual"]
        assert all(row["compact"] == "0" for row in rows)


def test_the_engine_raises_no_bare_value_error():
    # a bare ValueError would reach cli.main as an internal fault (exit 3):
    # a refused input raises an InputError, an engine fault a JetError
    sources = sorted(Path(cli.__file__).parent.glob("*.py"))
    bare = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    bare.append(f"{path.name}:{node.lineno}")
    assert len(sources) > 5 and bare == []
