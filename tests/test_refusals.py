"""Each argument refusal of the engine, by its error type and message.

One parametrized test calls each refusing function on an input it refuses,
among them a JetMatrix whose entries differ in validity or packing: a
JetMatrix holds entries of one validity on one packing.  The refusals
that a command can reach (a missing .pot file, and two .pot syntax errors)
are also run through the command line: exit 2, the message on stderr, and
the same message in the --json error object.
"""

import json

import pytest

from kahlerlap import cli
from kahlerlap.catalog import build_space, parse_space
from kahlerlap.dsl import PotentialSyntaxError, parse_potential_file
from kahlerlap.fit import check_delta_property, fit_pk
from kahlerlap.jets import DimensionMismatch, Jet, JetError, JetMatrix, ValidityError, packing
from kahlerlap.metric import delta_power_at0, laplacian_apply
from kahlerlap.radial import SeriesError, named_profile, radial_pk


def _cp2():
    return build_space(parse_space("cp:n=2"), 6).metric


def _z(n, D):
    return Jet.monomial(n, (1,) + (0,) * (n - 1), (0,) * n, 1, D)


REFUSALS = {
    "dsl: coordinate index 0": (
        lambda: parse_potential_file("dim 1\nlog(1 + modsq(z(0)))\n"),
        PotentialSyntaxError, "coordinate indices start at 1 (line 2, column 17)"),
    "dsl: no header": (
        lambda: parse_potential_file("# a comment alone\n"),
        PotentialSyntaxError, "missing 'dim n' header (line 1, column 1)"),
    "radial: unknown profile": (
        lambda: named_profile("spherical", 4), SeriesError, "unknown profile name: 'spherical'"),
    "radial: k_max < 1": (
        lambda: radial_pk(named_profile("flat", 4), 2, 0), SeriesError, "k_max must be >= 1"),
    "fit: k < 1": (lambda: fit_pk(_cp2(), 0), JetError, "k must be >= 1"),
    "fit: k_max < 1": (lambda: check_delta_property(_cp2(), 0), JetError, "k_max must be >= 1"),
    "metric: laplacian_apply of a shallow phi": (
        lambda: laplacian_apply(_cp2(), _z(2, 1)),
        ValidityError, "phi must be valid at least to degree 2"),
    "metric: laplacian_apply in another space": (
        lambda: laplacian_apply(_cp2(), _z(3, 4)),
        DimensionMismatch, "phi lives in a different variable space"),
    "metric: delta_power_at0 at k < 1": (
        lambda: delta_power_at0(_cp2(), _z(2, 4), 0), JetError, "k must be a positive integer"),
    "metric: delta_power_at0 in another space": (
        lambda: delta_power_at0(_cp2(), _z(3, 4), 1),
        DimensionMismatch, "phi lives in a different variable space"),
    "jets: valid_degree < 0": (lambda: Jet.zero(1, -1), ValidityError,
                               "valid_degree must be >= 0"),
    "jets: dz out of range": (lambda: _z(2, 3).dz(2), DimensionMismatch, "no variable 2 among 2"),
    "jets: empty matrix": (lambda: JetMatrix([]), DimensionMismatch, "empty matrix"),
    "jets: ragged rows": (
        lambda: JetMatrix([[_z(1, 2), _z(1, 2)], [_z(1, 2)]]), DimensionMismatch, "ragged rows"),
    "jets: mixed spaces": (
        lambda: JetMatrix([[_z(1, 2), _z(2, 2)]]),
        DimensionMismatch, "entries live in different variable spaces"),
    "jets: mixed validity": (
        lambda: JetMatrix([[_z(1, 2), _z(1, 3)]]),
        JetError, "entries differ in validity or packing"),
    "jets: mixed packing": (
        lambda: JetMatrix([[_z(1, 2), Jet._of(1, packing(1, 8), 1, [{}, {}, {}])]]),
        JetError, "entries differ in validity or packing"),
    "jets: inverse of a non-square matrix": (
        lambda: JetMatrix([[_z(1, 2), _z(1, 2)]]).inverse(),
        DimensionMismatch, "inverse of a non-square matrix"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_refusal_has_its_type_and_message(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


# the refusals a command reaches: the .pot body (None: no file) and the error
COMMAND_REFUSALS = {
    "no such file": (None, "UsageError", "no such potential file: {pot}"),
    "coordinate index 0": ("dim 1\nlog(1 + modsq(z(0)))\n", "PotentialSyntaxError",
                           "coordinate indices start at 1 (line 2, column 17)"),
    "no header": ("# a comment alone\n", "PotentialSyntaxError",
                  "missing 'dim n' header (line 1, column 1)"),
}


@pytest.mark.parametrize("case", COMMAND_REFUSALS)
def test_a_refusal_a_command_reaches_exits_2(capsys, tmp_path, case):
    body, kind, message = COMMAND_REFUSALS[case]
    pot = tmp_path / "input.pot"
    if body is not None:
        pot.write_text(body)
    message = message.format(pot=pot)
    assert cli.main(["check", str(pot)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert cli.main(["check", str(pot), "--json"]) == 2
    out = capsys.readouterr()
    assert out.err == f"error: {message}\n"
    assert json.loads(out.out) == {"error": {"kind": kind, "message": message, "exit": 2}}
