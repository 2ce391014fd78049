"""Spans and counts around the calls into each kahlerlap module.

Nothing inside src/kahlerlap is edited: Tracer.install() replaces each
traced public function, wherever a kahlerlap module holds a reference to it,
with a wrapper that records a span (name, start, end, parent).  Spans and
counts stay in memory and leave the process once, at the end of the run.

Span names are "<module>.<function>"; the module is the layer.  A recursive
call to the function already on top of the stack (dsl.elaborate) gets no
span of its own.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import Counter
from math import comb

TRACED = {
    "cli": ["main"],
    "catalog": [
        "parse_space", "build_space", "potential_jet", "obstruction_report",
        "dual_compare", "dual_potential",
    ],
    "dsl": ["parse_potential_file", "elaborate"],
    "metric": [
        "metric_from_potential", "einstein_constant", "delta_power_at0",
        "laplacian_apply", "third_deriv_obstruction", "fifth_order_check",
    ],
    "fit": ["check_delta_property", "fit_pk"],
    "radial": ["radial_pk", "recursion_step", "c_constant", "psi_functions",
               "potential_jet"],
    "jets": ["JetMatrix.inverse", "JetMatrix.det", "substitute_radial", "log1p"],
}
LAYERS = list(TRACED)


class Tracer:
    """Records spans and counts in one child process; see install()."""

    def __init__(self, memtrace=False):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.memtrace = memtrace
        self._fits = {}  # MetricJet -> (k, test-set pairs, table terms) at largest k

    def call(self, name, fn, *args, **kwargs):
        stack = self.stack
        if stack and self.spans[stack[-1]][0] == name:
            return fn(*args, **kwargs)
        span = [name, time.perf_counter(), None, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def install(self):
        import kahlerlap.cli  # noqa: F401  (loads every kahlerlap module)
        from kahlerlap import jets, metric

        self._delta = metric.delta_power_at0
        self._functional = metric._laplacian_functional
        self._zero = jets.Jet.zero
        self._fit_errors = (metric.TruncationError, jets.ValidityError)
        mods = {n: m for n, m in sys.modules.items() if n.startswith("kahlerlap")}
        special = {
            "metric.metric_from_potential": self._metric_from_potential,
            "catalog.potential_jet": self._catalog_potential,
            "fit.fit_pk": self._fit_pk,
            "radial.c_constant": self._c_constant,
        }
        for layer, names in TRACED.items():
            mod = mods[f"kahlerlap.{layer}"]
            for name in names:
                owner, attr = mod, name
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(mod, cls_name)
                orig = getattr(owner, attr)
                span = f"{layer}.{name}"
                wrapper = special.get(span, self._plain)(span, orig)
                setattr(owner, attr, wrapper)
                if owner is mod:  # also rebind names imported with "from ... import"
                    for other in mods.values():
                        for key, value in list(vars(other).items()):
                            if value is orig:
                                setattr(other, key, wrapper)
        mul = jets.Jet.__mul__
        counts = self.counts
        jet_type = jets.Jet

        def counted_mul(a, b):
            if isinstance(b, jet_type):
                counts["jets.mul_calls"] += 1
            return mul(a, b)

        jets.Jet.__mul__ = counted_mul

    def report(self, t0):
        """Spans (times relative to t0) and counts, folding in the fit records."""
        self.counts["fit.testset_pairs"] = sum(p for _, p, _ in self._fits.values())
        self.counts["metric.functional_terms"] = sum(t for _, _, t in self._fits.values())
        spans = [[n, s - t0, e - t0, p] for n, s, e, p in self.spans]
        return {"spans": spans, "counts": dict(self.counts)}

    # -- wrappers ----------------------------------------------------------

    def _plain(self, span, orig):
        def wrapper(*args, **kwargs):
            return self.call(span, orig, *args, **kwargs)

        return wrapper

    def _metric_from_potential(self, span, orig):
        def wrapper(*args):
            m = self.call(span, orig, *args)
            coeffs = [c for row in m.g_inv.entries for e in row for c in e.coeffs.values()]
            self.counts["metric.ginv_terms"] += len(coeffs)
            bits = max(
                (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
                default=0,
            )
            self.counts["metric.ginv_max_bits"] = max(self.counts["metric.ginv_max_bits"], bits)
            return m

        return wrapper

    def _catalog_potential(self, span, orig):
        def wrapper(*args):
            phi = self.call(span, orig, *args)
            self.counts["catalog.potential_terms"] += len(phi.coeffs)
            return phi

        return wrapper

    def _c_constant(self, span, orig):
        def wrapper(*args):
            self.counts["radial.c_constant_calls"] += 1
            return self.call(span, orig, *args)

        return wrapper

    def _fit_pk(self, span, orig):
        def wrapper(m, k):
            # Build the lap^k table first, in its own span, so that the fit
            # span times the walk over the test set alone.
            try:
                self.call("metric.functional", self._delta,
                          m, self._zero(m.n, 2 * k), k)
            except self._fit_errors:
                pass  # fit_pk itself raises the same error below
            if self.memtrace:
                tracemalloc.start()
            try:
                result = self.call(span, orig, m, k)
            finally:
                if self.memtrace:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.counts["fit.peak_mb"] = max(self.counts["fit.peak_mb"], peak)
            prev = self._fits.get(m)
            if prev is None or prev[0] < k:
                pairs = comb(2 * m.n + 2 * k, 2 * k)
                self._fits[m] = (k, pairs, len(self._functional(m, k)))
            return result

        return wrapper


def layer_metrics(spans, counts, pauses):
    """Per-layer metrics of one traced repetition, with the reference-loop
    pauses (see child.HostSampler) taken out of every span."""

    def paused(start, end):
        return sum(max(0.0, min(end, e) - max(start, s)) for s, e in pauses)

    dur = [end - start - paused(start, end) for _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
    total = Counter()
    self_time = Counter()
    for i, (name, _, _, _) in enumerate(spans):
        total[name] += dur[i]
        self_time[name.split(".")[0]] += dur[i] - covered[i]
    out = {
        "catalog.potential_s": total["catalog.potential_jet"],
        "dsl.elaborate_s": total["dsl.elaborate"],
        "metric.build_s": total["metric.metric_from_potential"],
        "metric.functional_s": total["metric.functional"],
        "metric.parallel_s": total["metric.third_deriv_obstruction"]
        + total["metric.fifth_order_check"],
        "jets.inverse_s": total["jets.JetMatrix.inverse"],
        "fit.walk_s": total["fit.fit_pk"],
        "radial.recursion_s": total["radial.radial_pk"],
        "radial.c_constant_s": total["radial.c_constant"],
    }
    for name in ("catalog.potential_terms", "metric.ginv_terms", "metric.ginv_max_bits",
                 "metric.functional_terms", "jets.mul_calls", "fit.testset_pairs",
                 "radial.c_constant_calls"):
        out[name] = counts.get(name, 0)
    pairs = out["fit.testset_pairs"]
    out["fit.useful_ratio"] = out["metric.functional_terms"] / pairs if pairs else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]
    return out
