"""The benchmark harness in perfbench/ looks kahlerlap functions up by name.

perfbench/tracing.py wraps every name in its TRACED table with getattr and
setattr, and perfbench/child.py calls the radial recursion directly, so a
rename or deletion in src/kahlerlap breaks traced benchmark runs.  The name
tests read the harness's tables without installing the tracer.  The smoke
test runs the harness for real in a child process: it installs the tracer,
runs a catalog check, the sp-inverse and cp-fit cases (the Bergman closed
form, the symmetry proof and the orbit tables), a seeded .pot case and the
seed-0 radial recursion case the way perfbench/child.py does, and judges
them with perfbench/checks.py (the fixed ones against golden.json, the
radial one also against the direct fit), so the values the
harness reads (g_inv entries, .coeffs, Jet.monomial on lists,
laplacian_apply) are guarded as well as the names, and that the tracer's
wrapper of delta_power_at0 replaced catalog's module-level import of it.  It also bounds the
C constants the radial case takes: radial_pk builds its recursion matrix
once, with kmax (kmax - 1) of them.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kahlerlap.cli  # noqa: F401  (loads every kahlerlap module, as the tracer does)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
PACKAGE_ROOT = str(Path(kahlerlap.cli.__file__).resolve().parents[1])


def _traced_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


HARNESS_NAMES = [
    (layer, name) for layer, names in _traced_table().items() for name in names
] + [
    ("metric", "_laplacian_functional"),
    ("metric", "TruncationError"),
    ("jets", "Jet.zero"),
    ("jets", "Jet.__mul__"),
    ("jets", "ValidityError"),
    ("radial", "profile_from_coeffs"),
    ("rationals", "Q"),
]


@pytest.mark.parametrize("layer,name", HARNESS_NAMES)
def test_harness_name_resolves(layer, name):
    owner = importlib.import_module(f"kahlerlap.{layer}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


SMOKE = """
import json, sys
from pathlib import Path

import checks, child, tracing, workloads

tracer = tracing.Tracer()
tracer.install()
root = Path.cwd()
pot = next(c for c in workloads.cases("catalog-sweep", 1, root, root) if "pot" in c)
cases = [
    workloads.cli_case(["check", "cp:n=2", "--degree", "6", "--json"]),
    workloads.cli_case(workloads.SP_INVERSE),
    workloads.cli_case(workloads.CP_FIT),
    pot,
    workloads.radial_case(workloads.radial_coeffs(0)),
]
checker = checks.Checker(checks.load_golden())
failures = []
for case in cases:
    code, text = child.run_case(case)
    reason = checker.check(case, {"id": case["id"], "exit": code, "stdout": text})
    if reason is not None:
        failures.append(case["id"] + ": " + reason)
from kahlerlap import catalog, metric
print(json.dumps({
    "failures": failures,
    "counts": tracer.report(0.0)["counts"],
    "obstruction_traced": catalog.delta_power_at0 is metric.delta_power_at0,
}))
"""


def test_traced_harness_checks_pass(tmp_path):
    path = os.pathsep.join(
        filter(None, [str(PERFBENCH), PACKAGE_ROOT, os.environ.get("PYTHONPATH")])
    )
    r = subprocess.run(
        [sys.executable, "-c", SMOKE],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout)
    assert result["failures"] == []
    # catalog's module-level import of delta_power_at0 is rebound to the wrapper
    assert result["obstruction_traced"]
    assert result["counts"]["metric.ginv_terms"] > 0
    assert result["counts"]["catalog.potential_terms"] > 0
    # one recursion matrix: kmax (kmax - 1) C constants at kmax = 12
    assert 0 < result["counts"]["radial.c_constant_calls"] <= 132
