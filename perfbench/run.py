"""The kahlerlap benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a kahlerlap checkout; it imports the engine from
./src and needs no build.  Workloads and metric names are listed in
BENCHMARK.json and explained in perfbench/README.md.

Each repetition runs the workload's cases in a fresh single-threaded child
process (perfbench/child.py), one child at a time, until --seconds have
passed.  Outputs are checked after the children finish, outside the timed
region.  Times are scaled to a nominal host speed by a reference loop run
in each child (see REF_NOMINAL_STEP_S).  With --trace 0 the end-to-end metrics
are medians over the repetitions.  With --trace 1 half the time goes to
untraced repetitions and half to traced ones, plus one repetition under
tracemalloc when the workload fits; the per-layer metrics come from the
traced repetition with the median wall time.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The line before it is the full record (Python version, rational
backend, nproc, seed, per-repetition samples scaled and unscaled), also written to
.perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
CHILD_TIMEOUT_S = 150
# Set-up-only children spawned before and again after the timed repetitions,
# so that set-up samples span the whole run and not one phase of host load.
SETUP_PROBES = 5
# Time per step of child.reference_s() on the 2-core VM the bounds were set
# on, at its fast end.  Every time is reported scaled to this host speed; see
# "Host speed" in README.md.
REF_NOMINAL_STEP_S = 4.2e-6


def spawn(cases, trace=False, memtrace=False):
    """Run one repetition in a fresh child process and return its record."""
    spec = json.dumps({"cases": cases, "trace": trace, "memtrace": memtrace})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned = time.time()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), repr(spawned)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=env, text=True,
    )
    try:
        out, err = proc.communicate(spec, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out)


def repeat(cases, seconds, **kw):
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(spawn(cases, **kw))
    return reps


class Tally:
    """Counts attempted and failed cases over repetitions."""

    def __init__(self, checker):
        self.checker = checker
        self.attempted = 0
        self.failures = []

    def add(self, cases, rep, reference=None):
        for i, (case, out) in enumerate(zip(cases, rep["outputs"])):
            self.attempted += 1
            reason = self.checker.check(case, out)
            if reason is None and reference is not None:
                ref = reference["outputs"][i]
                if (ref["exit"], ref["stdout"]) != (out["exit"], out["stdout"]):
                    reason = "traced output differs from the untraced run"
            if reason is not None:
                self.failures.append(f"{case['id']}: {reason}")


def samples(reps, key):
    return [r[key] for r in reps]


def speed(rep):
    """Factor that scales a repetition's times to the nominal host speed,
    from the reference loop run before, during and after its cases."""
    return REF_NOMINAL_STEP_S / rep["ref_step_s"]


def scaled_walls(reps):
    return [r["wall_s"] * speed(r) for r in reps]


def scaled_setup(rep):
    return rep["setup_s"] * REF_NOMINAL_STEP_S / rep["ref_step_after_setup_s"]


def setup_probes():
    return [spawn([]) for _ in range(SETUP_PROBES)]


def end_to_end(cases, seconds, tally):
    before = setup_probes()
    reps = repeat(cases, seconds)
    children = before + reps + setup_probes()
    for rep in reps:
        tally.add(cases, rep)
    raw = {
        "wall_s": scaled_walls(reps),
        "setup_s": [scaled_setup(r) for r in children],
        "peak_rss_mb": samples(reps, "peak_rss_mb"),
        "unscaled_wall_s": samples(reps, "wall_s"),
        "unscaled_setup_s": samples(children, "setup_s"),
        "ref_step_s": samples(children, "ref_step_s"),
    }
    values = {name: statistics.median(raw[name]) for name in ("wall_s", "setup_s", "peak_rss_mb")}
    values["correct_frac"] = (tally.attempted - len(tally.failures)) / tally.attempted
    return values, raw, reps[0]["backend"], {}


def per_layer(cases, seconds, tally):
    import tracing

    plain = repeat(cases, seconds / 2)
    traced = repeat(cases, seconds / 2, trace=True)
    for rep in plain:
        tally.add(cases, rep)
    for rep in traced:
        tally.add(cases, rep, reference=plain[0])
    walls = scaled_walls(traced)
    layers = []
    for rep in traced:
        m = tracing.layer_metrics(rep["spans"], rep["counts"], rep["pauses"])
        layers.append({k: v * speed(rep) if k.endswith("_s") else v for k, v in m.items()})
    # the repetition with the median traced wall time supplies every value,
    # so the per-layer times add up within one repetition
    mid = sorted(range(len(traced)), key=walls.__getitem__)[(len(traced) - 1) // 2]
    values = dict(layers[mid])
    values["fit.peak_mb"] = 0.0
    if values["fit.walk_s"] > 0:
        mem = spawn(cases, memtrace=True)
        tally.add(cases, mem, reference=plain[0])
        values["fit.peak_mb"] = mem["counts"]["fit.peak_mb"]
    values["trace.wall_s"] = walls[mid]
    values["trace.overhead_s"] = walls[mid] - statistics.median(scaled_walls(plain))
    raw = {"wall_s": scaled_walls(plain), "trace.wall_s": walls,
           "unscaled_wall_s": samples(plain, "wall_s"),
           "unscaled_trace.wall_s": samples(traced, "wall_s"), "layers": layers}
    spans = {"spans": [r["spans"] for r in traced], "counts": [r["counts"] for r in traced]}
    return values, raw, plain[0]["backend"], spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "kahlerlap" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a kahlerlap checkout "
              "(needs src/kahlerlap and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import checks

    tally = Tally(checks.Checker(checks.load_golden()))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        cases = workloads.cases(args.workload, args.seed, workdir, ROOT)
        measure = per_layer if args.trace else end_to_end
        values, raw, backend, spans = measure(cases, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    failed = len(tally.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "backend": backend,
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "cases": [c["id"] for c in cases], "attempted": tally.attempted,
        "failed": failed, "failed_frac": failed / tally.attempted,
        "failures": tally.failures[:20], "metrics": metrics, "samples": raw,
        "sample_medians": {k: statistics.median(v) for k, v in raw.items() if k != "layers"},
        **spans,
    }
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for failure in tally.failures[:20]:
        print(f"FAILED {failure}")
    for key, m in metrics.items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: v for k, v in record.items() if k not in spans}))
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
