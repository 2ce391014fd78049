"""Fresh-process sweep of the command-line reports of one checkout.

Run it from anywhere, not under pytest (the name does not match test_*.py):

    python tests/report_sweep.py [--root CHECKOUT]

Each run is `python -m kahlerlap.cli ARGV` in a new process with
PYTHONPATH=CHECKOUT/src (the checkout this file is in, by default), JOBS
of them at a time:

  - `check TARGET --degree D --kmax k --json` for D = 2..10 and
    k in {1, D // 2}, on every target;
  - `dual LABEL --degree D --json` for D = 2..10, on every label.

The labels are those of tests/test_catalog.py's ALL_LABELS and the dual of
each, seven wider spaces (three of them S_n-fixed: cp:n=10, ch:n=6 and
flat:n=5, which take the orbit tables; so2n:N=5 a wide upper store) and two
products.  The .pot targets are the
fixed bodies of POT_FILES, written to a temporary directory that is each
run's working directory, so that argv and reports name them by a relative
path.  The script prints the count of each exit code and one SHA-1 over
(argv, exit code, stdout, stderr) of every run, in the order listed: two
checkouts whose reports are byte-identical print the same lines.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _all_labels():
    """ALL_LABELS of tests/test_catalog.py, read without importing it."""
    tree = ast.parse((HERE / "test_catalog.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["ALL_LABELS"])


ALL_LABELS = _all_labels()
LABELS = (ALL_LABELS + [f"dual({label})" for label in ALL_LABELS]
          + ["so2n:N=3", "so2n:N=5", "sp:N=3", "grassmannian:k=3,N=6", "cp:n=10", "ch:n=6",
             "flat:n=5",
             "product(cp:n=1;ch:n=1)", "product(sp:N=2;quadric-even:N=4)"])

# name -> body: fits, a non-unit gauge, a pluriharmonic cubic, det and
# radial builtins, a potential that is not real (the full solve of g_inv), and
# the refusals of the gauge, Bochner and syntax checks
POT_FILES = {
    "line.pot": "# Fubini-Study line\ndim 1\nlog(1 + modsq(z(1)))\n",
    "gauge.pot": "dim 2\nlog(1 + modsq(z(1)) + 2*modsq(z(2)))\n",
    "cubic.pot": "dim 1\nmodsq(z(1)) + z(1)*z(1)*z(1) + conj(z(1)*z(1)*z(1))\n",
    "det.pot": "dim 2\nlog(det([1 + modsq(z(1)), z(1)*conj(z(2)); "
               "z(2)*conj(z(1)), 1 + modsq(z(2))]))\n",
    "radial.pot": "dim 2\nradial(0, 1, 1/2, 1/3, 1/4, 1/5)\n",
    "chart.pot": "dim 2\nlog(1 + modsq(z(1)) + modsq(z(1) + z(2)))\n",
    "full.pot": "dim 2\nlog(1 + modsq(z(1)) + modsq(z(2))) + z(1)*z(1)*conj(z(1)*z(2))\n",
    "bochner.pot": "dim 1\nmodsq(z(1)) + z(1)*z(1)*conj(z(1)) + z(1)*conj(z(1)*z(1))\n",
    "index.pot": "dim 1\nlog(1 + modsq(z(0)))\n",
    "header.pot": "# a comment and no 'dim n' header\n",
}

DEGREES = range(2, 11)
JOBS = 2


def sweep_argvs():
    """Every argv of the sweep, in its fixed order."""
    argvs = []
    for target in LABELS + list(POT_FILES):
        for D in DEGREES:
            for k in sorted({1, D // 2}):
                argvs.append(["check", target, "--degree", str(D), "--kmax", str(k), "--json"])
    for label in LABELS:
        for D in DEGREES:
            argvs.append(["dual", label, "--degree", str(D), "--json"])
    return argvs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=HERE.parent,
                        help="checkout whose src/ is run (default: this one)")
    args = parser.parse_args()
    env = {**os.environ, "PYTHONPATH": str(args.root.resolve() / "src")}
    argvs = sweep_argvs()
    with tempfile.TemporaryDirectory() as work:
        for name, body in POT_FILES.items():
            Path(work, name).write_text(body, encoding="utf-8")

        def run(argv):
            done = subprocess.run([sys.executable, "-m", "kahlerlap.cli", *argv], cwd=work,
                                  env=env, capture_output=True, text=True)
            return done.returncode, done.stdout, done.stderr

        with ThreadPoolExecutor(JOBS) as pool:
            results = list(pool.map(run, argvs))
    digest, codes = hashlib.sha1(), Counter()
    for argv, (code, out, err) in zip(argvs, results):
        digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
        codes[code] += 1
    print(f"runs: {len(argvs)}")
    print("exit codes: " + ", ".join(f"{code}: {codes[code]}" for code in sorted(codes)))
    print(f"sha1: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
