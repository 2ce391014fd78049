"""Byte-for-byte regression of `check <label> --degree 6 --json` reports.

The expected stdout and exit code of every catalog label are stored in
golden_check_reports.json.  Regenerate them (only when a report is meant to
change) with

    PYTHONPATH=src python tests/test_golden_reports.py
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
LABELS = ALL_LABELS + ["product(cp:n=1;cp:n=1)", "dual(grassmannian:k=2,N=4)"]


def run_check(label):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", label, "--degree", "6", "--json"])
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_label(golden):
    assert sorted(golden) == sorted(LABELS)


@pytest.mark.parametrize("label", LABELS)
def test_check_report_byte_identical(golden, label):
    assert run_check(label) == golden[label]


if __name__ == "__main__":
    reports = {label: run_check(label) for label in LABELS}
    GOLDEN.write_text(
        json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(reports)} reports to {GOLDEN}")
