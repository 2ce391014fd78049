"""Byte-for-byte regression of the two large `check --json` reports.

`check cp:n=10 --degree 10 --kmax 5` stresses the graded inverse at D=10
and the k=5 pullback; `check sp:N=4 --degree 8` stresses the inverse and
`log1p` on a 10-variable potential and stops at its k=3 witness.
`check so2n:N=8` (28 variables) and `check sp:N=5 --degree 8` are the
largest potential builds, where the catalog once took a determinant of
jets; their entries were written by that determinant path.
`check so2n:N=3` and its dual at `--degree 12 --kmax 6` pin the reports of
the one Bergman chart whose S_3 symmetry only the potential shows (it is
cp:n=3 in a skew 3 x 3 chart); their entries were written while it still
kept the full tables, before the potential's verdict gave it the orbit
tables and the column build.  grassmannian:k=3,N=6, dual(sp:N=4) and
so2n:N=5 at --degree 8, and product(sp:N=2;cp:n=1) at --degree 6 --kmax 3,
pin matrix families, a dual and a product whose g_inv is not S_n-fixed;
their entries were written while g_inv was still stored as per-degree
parts beside its pullback index.  The expected
stdout and exit code are stored in golden_large_reports.json.
Regenerate them (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden_large_reports.py
"""

import json
from pathlib import Path

import pytest

from test_golden_reports import run_cli

GOLDEN = Path(__file__).with_name("golden_large_reports.json")
LARGE_ARGV = [
    ["check", "cp:n=10", "--degree", "10", "--kmax", "5", "--json"],
    ["check", "sp:N=4", "--degree", "8", "--json"],
    ["check", "so2n:N=8", "--json"],
    ["check", "sp:N=5", "--degree", "8", "--json"],
    ["check", "so2n:N=3", "--degree", "12", "--kmax", "6", "--json"],
    ["check", "dual(so2n:N=3)", "--degree", "12", "--kmax", "6", "--json"],
    ["check", "grassmannian:k=3,N=6", "--degree", "8", "--json"],
    ["check", "dual(sp:N=4)", "--degree", "8", "--json"],
    ["check", "so2n:N=5", "--degree", "8", "--json"],
    ["check", "product(sp:N=2;cp:n=1)", "--degree", "6", "--kmax", "3", "--json"],
]


@pytest.mark.parametrize("argv", LARGE_ARGV, ids=" ".join)
def test_large_report_byte_identical(argv):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_cli(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    reports = {" ".join(argv): run_cli(argv) for argv in LARGE_ARGV}
    GOLDEN.write_text(
        json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(reports)} reports to {GOLDEN}")
