"""Byte-for-byte regression of `check <label> --degree 6 --json` reports.

The expected stdout and exit code of every catalog label are stored in
golden_check_reports.json.  Regenerate them (only when a report is meant to
change) with

    PYTHONPATH=src python tests/test_golden_reports.py

Every CLI case of the benchmark's own goldens in perfbench/golden.json is
run here too, so a report that would fail the benchmark's correctness gate
fails these tests first; this module only reads that file.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from kahlerlap import cli

sys.path.insert(0, str(Path(__file__).parent))
from test_acceptance import ALL_LABELS  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_check_reports.json")
BENCH_GOLDEN = Path(__file__).parent.parent / "perfbench" / "golden.json"
LABELS = ALL_LABELS + ["product(cp:n=1;cp:n=1)", "dual(grassmannian:k=2,N=4)"]
BENCH_CASES = json.loads(BENCH_GOLDEN.read_text(encoding="utf-8"))
# the cases keyed by a command line; the radial_pk case calls the library
BENCH_ARGV = [key.split(" ") for key in sorted(BENCH_CASES)
              if key.split(" ")[0] in ("check", "radial", "dual")]


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def run_check(label):
    return run_cli(["check", label, "--degree", "6", "--json"])


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_label(golden):
    assert sorted(golden) == sorted(LABELS)


@pytest.mark.parametrize("label", LABELS)
def test_check_report_byte_identical(golden, label):
    assert run_check(label) == golden[label]


@pytest.mark.parametrize("argv", BENCH_ARGV, ids=" ".join)
def test_degree8_report_matches_benchmark_golden(argv):
    assert run_cli(argv) == BENCH_CASES[" ".join(argv)]


if __name__ == "__main__":
    reports = {label: run_check(label) for label in LABELS}
    GOLDEN.write_text(
        json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(reports)} reports to {GOLDEN}")
