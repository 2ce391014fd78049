"""argv drawn from cli.COMMANDS, run through cli.main.

Every outcome is one of two kinds: exit 0 or 1 with a report (on stdout,
or in the --out file), or exit 2 or 3 with one "error: " line on stderr
and, under --json, a typed error object whose kind is never "internal" or
"ValueError".  No outcome is a traceback.  A run that exits 2 or 3 without
--json is run again with --json appended, which must exit the same and
print a typed object.

Draws mix the commands (and a few that are not), their flags named in full,
by a prefix or ambiguously, with and without '=', values missing, signed
integers, integers longer than MAX_DIGITS, words that are not integers,
nested catalog labels, good and malformed, .pot paths in a temp dir (a
valid file, one that is not UTF-8, a directory, a missing file) and --out
into that dir, into a missing one, or onto a directory.  Every integer that
a command would accept is small: the engine has no size budget yet
(ROADMAP item 7), so a large legal size would only be slow.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from kahlerlap import cli
from kahlerlap.rationals import MAX_DIGITS

SMALL = st.integers(1, 3).map(str)  # a size or a depth that a command accepts
INTEGERS = st.one_of(
    SMALL, SMALL, SMALL, SMALL, st.integers(-2, 8).map(str),
    st.sampled_from(["-0", "+1", "1.5", "٣", "1_0", "", "x"]),
    st.integers(1, 9).map(lambda d: str(d) * (MAX_DIGITS + 1)),  # over-long
    st.integers(1, 9).map(lambda d: "-" + str(d) * (MAX_DIGITS + 1)),
)
NAMES = st.sampled_from(["flat", "fubini-study", "hyperbolic", "euclid"])
COEFFS = st.sampled_from(["0,1,1/2", "0,2,3,-5/7,1/9", "0,1,-1", "1/0", "0,x", "", "0,,1",
                          "0, 1", "0,1e3", "9" * (MAX_DIGITS + 1)])


def labels(depth):
    """Catalog labels of small spaces, nested through dual and product, with
    malformed parameters and brackets now and then."""
    size = st.one_of(SMALL, SMALL, INTEGERS)
    leaf = st.one_of(
        st.builds("{}:n={}".format, st.sampled_from(["flat", "cp", "ch"]), size),
        st.builds("grassmannian:k={},N={}".format, size, st.sampled_from(["2", "3", "4"])),
        st.builds("{}:N={}".format, st.sampled_from(["so2n", "sp"]), size),
        st.builds("{}:N={}".format, st.sampled_from(["quadric-even", "quadric-odd"]),
                  st.sampled_from(["4", "3", "x"])),
        st.sampled_from(["cp", "cp:", "cp:n", "cp:n=", "cp:n=1,n=1", "cp:m=1", "cp: n = 2",
                         "so2n:N=2,k=1", "nope:n=1", "", "dual()", "product()",
                         "dual(cp:n=1", "product(cp:n=1)", "product(cp:n=1;)"]),
    )
    if depth == 0:
        return leaf
    sub = labels(depth - 1)
    return st.one_of(leaf, sub.map("dual({})".format),
                     st.builds("product({};{})".format, sub, sub))


def targets(tmp):
    """check's positional: a label, or a .pot path in tmp."""
    return st.one_of(labels(2), st.sampled_from(
        [f"{tmp}/good.pot", f"{tmp}/latin1.pot", f"{tmp}/dir.pot", f"{tmp}/missing.pot"]))


def values(tmp, flag):
    """A value for flag: mostly one of its own kind, sometimes a label."""
    own = {
        "--kmax": INTEGERS, "--degree": INTEGERS, "--n": INTEGERS, "--name": NAMES,
        "--coeffs": COEFFS, "--family": st.sampled_from(["cp", "so2n", "", "nope"]),
        "--out": st.sampled_from([f"{tmp}/out.txt", f"{tmp}/missing/out.txt", tmp,
                                  f"{tmp}/good.pot/out.txt"]),
    }.get(flag)
    return st.one_of(own, own, own, labels(1)) if own is not None else labels(1)


@st.composite
def argvs(draw, tmp):
    """A command (now and then none), most often with the arguments it needs
    first, then up to 4 more tokens: flags named in full, by a prefix of 3
    or 4 characters or with '=', each with a value, a missing one, or a
    positional."""
    command = draw(st.sampled_from([*cli.COMMANDS] * 8 + ["chek", "-h", "--help", "", "-"]))
    spec = cli.COMMANDS.get(command, cli.COMMANDS["check"])[2]
    flags = [name for name in spec if name[0] == "-"]
    argv = [command]
    if draw(st.integers(0, 5)):
        argv += {
            "check": lambda: [draw(targets(tmp))],
            "dual": lambda: [draw(labels(2))],
            "radial": lambda: ["--n", draw(SMALL)] + draw(st.one_of(
                NAMES.map(lambda v: ["--name", v]), COEFFS.map(lambda v: ["--coeffs", v]))),
        }.get(command, list)()
    for _ in range(draw(st.integers(0, 4))):
        choice = draw(st.integers(0, 15))
        if choice == 0:
            argv.append(draw(targets(tmp)))
            continue
        flag = draw(st.sampled_from(flags + ["-h", "--x", "--"] if choice == 1 else flags))
        name = draw(st.sampled_from([flag[:3], flag[:4]])) if choice == 2 else flag
        if spec.get(flag, (bool,))[0] is bool:
            argv.append(name if choice != 3 else f"{name}=1")
        elif choice == 3:
            argv.append(f"{name}={draw(values(tmp, flag))}")
        elif choice == 4:  # the value missing, or taken from the next token
            argv.append(name)
        else:
            argv += [name, draw(values(tmp, flag))]
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_typed_error(code, out, err):
    assert code in (2, 3)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    error = json.loads(out)["error"]
    assert error["exit"] == code
    assert error["kind"] not in ("internal", "ValueError"), error


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_every_argv_gives_a_report_or_a_typed_error(tmp_path, data):
    tmp = tmp_path.as_posix()
    (tmp_path / "good.pot").write_text("dim 2\nlog(1 + modsq(z(1)) + modsq(z(2)))\n")
    (tmp_path / "latin1.pot").write_bytes("dim 1\nmodsq(z(1)) # \xe9\n".encode("latin-1"))
    (tmp_path / "dir.pot").mkdir(exist_ok=True)
    argv = data.draw(argvs(tmp))
    with contextlib.chdir(tmp_path):  # a label taken as the --out value is written here
        code, out, err = run(argv)
        assert "Traceback" not in err
        if code in (0, 1):
            args = cli.parse_args(argv)
            written = None if args.help else Path(args.out) if args.out else None
            text = written.read_text(encoding="utf-8") if written else out
            assert text and "error" not in text.partition("\n")[2][:12]
            if text.startswith(("{", "[")):
                assert json.loads(text)
        elif out:
            assert_typed_error(code, out, err)
        else:  # --json right after the command, where no flag can take it as a value
            again = run([argv[0], "--json", *argv[1:]])
            assert again[0] == code
            assert_typed_error(*again)
