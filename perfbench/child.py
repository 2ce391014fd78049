"""One repetition of a workload, in a fresh single-threaded process.

    python3 perfbench/child.py <spawn time.time()>   < spec.json

The parent passes the wall-clock time at which it spawned this process, so
set-up time covers interpreter start plus the import of kahlerlap.cli.  The
spec on stdin is {"cases": [...], "trace": bool, "memtrace": bool}.  The
child prints one JSON object on stdout: set-up and wall times, the time per
step of the reference loop (see HostSampler), peak RSS, the captured output
of every case and, when traced, the spans and counts.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time
from fractions import Fraction

import kahlerlap.cli
from kahlerlap import radial

READY = time.time()


REF_STEPS = 10_000  # reference steps just after set-up and after the cases
TICK_STEPS = 1_000  # reference steps at each tick while the cases run
TICK_S = 0.25


def reference_s(steps):
    """Seconds taken by `steps` steps of stdlib Fraction and dict work.

    It uses no kahlerlap code, so a change to the engine cannot move it, and
    it does the same kind of work as the engine, so it slows down with the
    host as the engine does.
    """
    start = time.perf_counter()
    acc = {}
    third = Fraction(1, 3)
    for i in range(steps):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + third * Fraction(i % 11 + 1, i % 7 + 1)
    return time.perf_counter() - start


class HostSampler:
    """Times the reference loop every TICK_S seconds from a SIGALRM handler.

    The host's speed changes within seconds, so a long repetition needs
    samples from throughout its run, not only from its ends.  The handler's
    intervals are kept in `pauses` and left out of the wall time and spans.
    """

    def __init__(self):
        self.steps = 0
        self.seconds = 0.0
        self.pauses = []  # (start, end) of each tick

    def run(self, steps):
        took = reference_s(steps)
        self.steps += steps
        self.seconds += took
        return took

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.run(TICK_STEPS)
        self.pauses.append((start, time.perf_counter()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_case(case):
    """Run one case; returns (exit code or error text, stdout text)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if case["kind"] == "cli":
                code = kahlerlap.cli.main(case["argv"])
            else:
                code = _run_radial(case)
    except Exception as exc:  # a raising case is a failed case, not a crash
        return f"raised {type(exc).__name__}: {exc}", out.getvalue()
    return code, out.getvalue()


def _run_radial(case):
    profile = radial.profile_from_coeffs(case["coeffs"], order=case["kmax"] + 2)
    polys = radial.radial_pk(profile, case["n"], case["kmax"])
    rows = [
        {"k": p.k, "pk": {str(l): str(p.coefficient(l)) for l in range(1, p.k + 1)}}
        for p in polys
    ]
    sys.stdout.write(json.dumps(rows, indent=2) + "\n")
    return 0


def main():
    spawned = float(sys.argv[1])
    spec = json.load(sys.stdin)
    tracer = None
    if spec.get("trace") or spec.get("memtrace"):
        import tracing

        tracer = tracing.Tracer(memtrace=spec.get("memtrace", False))
        tracer.install()
    outputs = []
    host = HostSampler()
    after_setup = host.run(REF_STEPS) / REF_STEPS
    # tracemalloc would count the sampler's allocations, so it samples only
    # at the ends there
    sampling = host if not spec.get("memtrace") else contextlib.nullcontext()
    t0 = time.perf_counter()
    with sampling:
        for case in spec["cases"]:
            code, text = run_case(case)
            outputs.append({"id": case["id"], "exit": code, "stdout": text})
    wall = time.perf_counter() - t0 - sum(end - start for start, end in host.pauses)
    host.run(REF_STEPS)
    result = {
        "setup_s": READY - spawned,
        "wall_s": wall,
        "ref_step_after_setup_s": after_setup,
        "ref_step_s": host.seconds / host.steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": kahlerlap.rationals.Q.__module__,
        "outputs": outputs,
    }
    if tracer is not None:
        result.update(tracer.report(t0))
        result["pauses"] = [[start - t0, end - t0] for start, end in host.pauses]
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
