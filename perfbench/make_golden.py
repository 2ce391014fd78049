"""Regenerate perfbench/golden.json: the expected output of every fixed case.

    python3 perfbench/make_golden.py

Run from the root of a checkout of the commit whose outputs are the
reference.  The outputs are captured exactly as the benchmark captures them,
in a child process, and stored with their exit codes.
"""

import json
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    from checks import GOLDEN

    cases = workloads.fixed_cases()
    rep = run.spawn(cases)
    golden = {
        case["id"]: {"exit": out["exit"], "stdout": out["stdout"]}
        for case, out in zip(cases, rep["outputs"])
    }
    raised = [k for k, v in golden.items() if isinstance(v["exit"], str)]
    if raised:
        sys.exit(f"cases raised: {raised}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}")


if __name__ == "__main__":
    main()
