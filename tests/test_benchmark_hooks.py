"""The benchmark harness in perfbench/ looks kahlerlap functions up by name.

perfbench/tracing.py wraps every name in its TRACED table with getattr and
setattr, and perfbench/child.py calls the radial recursion directly, so a
rename or deletion in src/kahlerlap breaks traced benchmark runs.  These
tests read the harness's tables without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import kahlerlap.cli  # noqa: F401  (loads every kahlerlap module, as the tracer does)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
]


@pytest.mark.parametrize("layer,name", HARNESS_NAMES)
def test_harness_name_resolves(layer, name):
    owner = importlib.import_module(f"kahlerlap.{layer}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
