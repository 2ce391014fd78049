"""Compare two benchmark records metric by metric.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Each argument is a record written to .perfbench-out/ by run.py (or the
record line run.py prints before its last line).  A comparison counts only
between records from the same Python version, rational backend and core
count; when they differ, the difference is printed and the exit code is 1.
"""

import json
import sys
from pathlib import Path

SAME = ("workload", "trace", "python", "backend", "nproc", "machine")


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    mismatched = [k for k in SAME if before.get(k) != after.get(k)]
    for key in mismatched:
        print(f"NOT COMPARABLE: {key} {before.get(key)!r} vs {after.get(key)!r}")
    for name, m in before["metrics"].items():
        a = m["value"]
        b = after["metrics"].get(name, {}).get("value")
        if b is None:
            print(f"{name:28s} {a:12.6g} {'missing':>12s}")
            continue
        ratio = f"{b / a:8.3f}x" if a else ""
        print(f"{name:28s} {a:12.6g} {b:12.6g} {m['unit']:6s} {ratio}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
