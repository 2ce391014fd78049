"""Start-up guard: importing the CLI loads none of the modules that only the
dataclasses machinery or argparse needs, no package module imports them,
and every package module imports at its top level only.

With no bytecode cache, importing dataclasses (which loads inspect, ast,
dis and tokenize) and running its decorators was about a quarter of the
package's start-up.  Importing argparse (with gettext) took about 3 ms, and
building its parser, which loads locale, about a third of a short check.
No timing is asserted: the host's speed varies too much.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import kahlerlap

PACKAGE = Path(kahlerlap.__file__).resolve().parent
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
ARGPARSE = {"argparse", "gettext", "locale"}

# the imports of perfbench/child.py that load the package
PROBE = """
import sys
before = set(sys.modules)
import kahlerlap.cli
from kahlerlap import radial
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def _probe():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONDONTWRITEBYTECODE="1")
    r = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, check=True
    )
    loaded = set(r.stdout.split())
    assert "kahlerlap.cli" in loaded and "kahlerlap.radial" in loaded
    return loaded


def test_importing_the_cli_loads_no_heavy_module():
    assert not _probe() & HEAVY


def test_importing_the_cli_loads_no_argparse():
    assert not _probe() & ARGPARSE


def _imports():
    """(file name, line, top-level names) of each import in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = {node.module.partition(".")[0]}
            else:
                continue
            yield path.name, node.lineno, names


def test_no_package_module_imports_a_heavy_module():
    for name, line, names in _imports():
        assert not names & HEAVY, f"{name}:{line} imports {names & HEAVY}"


def test_no_package_module_imports_argparse():
    for name, line, names in _imports():
        assert "argparse" not in names, f"{name}:{line} imports argparse"


def test_every_import_is_at_module_level():
    # a function-local import runs on every call and hides a dependency
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert id(node) in top, f"{path.name}:{node.lineno} imports inside a block"


def test_the_catalog_imports_only_jets_metric_and_rationals():
    # every catalog space is built from closed forms, none from surface text:
    # the catalog reads neither dsl nor radial
    used = set()
    for node in ast.walk(ast.parse((PACKAGE / "catalog.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("kahlerlap")):
            module = (node.module or "").removeprefix("kahlerlap").lstrip(".")
            used |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            used |= {alias.name.removeprefix("kahlerlap.") for alias in node.names
                     if alias.name.startswith("kahlerlap")}
    assert used == {"jets", "metric", "rationals"}
