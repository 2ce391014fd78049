"""Correctness checks on captured outputs, run outside the timed region.

Fixed cases compare byte-for-byte (stdout and exit code) with golden.json,
which was generated from the engine before any optimisation.  Seeded cases
are checked by an independent path through the public API:

- radial profiles: p_1..p_4 from the recursion must equal the direct fit
  (check_delta_property) on the radial potential jet at degree 8;
- seeded .pot potentials: each witness lhs must equal lap^k of the witness
  monomial computed by iterating laplacian_apply k times, which does not use
  the cached functional table.
"""

from __future__ import annotations

import json
from pathlib import Path

from kahlerlap.dsl import elaborate, parse_potential_file
from kahlerlap.fit import check_delta_property
from kahlerlap.jets import Jet
from kahlerlap.metric import laplacian_apply, metric_from_potential
from kahlerlap.radial import potential_jet, profile_from_coeffs
from kahlerlap.rationals import Q

GOLDEN = Path(__file__).resolve().parent / "golden.json"
RADIAL_CHECK_K = 4
RADIAL_CHECK_DEGREE = 2 * RADIAL_CHECK_K


def load_golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


class Checker:
    """check(case, output) returns None when correct, else a reason."""

    def __init__(self, golden):
        self.golden = golden
        self._memo = {}

    def check(self, case, output):
        key = (case["id"], str(output["exit"]), output["stdout"])
        if key not in self._memo:
            try:
                self._memo[key] = self._check(case, output)
            except (ValueError, KeyError, TypeError) as exc:  # malformed report
                self._memo[key] = f"output could not be checked: {exc!r}"
        return self._memo[key]

    def _check(self, case, output):
        if isinstance(output["exit"], str):
            return output["exit"]
        expected = self.golden.get(case["id"])
        if expected is not None:
            if expected["exit"] != output["exit"]:
                return f"exit {output['exit']}, golden {expected['exit']}"
            if expected["stdout"] != output["stdout"]:
                return "report differs from golden"
        if case["kind"] == "radial":
            return _check_radial(case, output)
        if "pot" in case:
            return _check_pot(case, output)
        return None if expected is not None else "no check defined for this case"


def _check_radial(case, output):
    rows = json.loads(output["stdout"])
    if output["exit"] != 0 or len(rows) != case["kmax"]:
        return "recursion did not produce p_1..p_kmax"
    profile = profile_from_coeffs(case["coeffs"], order=case["kmax"] + 2)
    metric = metric_from_potential(potential_jet(profile, case["n"], RADIAL_CHECK_DEGREE))
    for fit, row in zip(check_delta_property(metric, RADIAL_CHECK_K), rows):
        if not fit.fitted:
            return f"direct fit violated at k={fit.k}"
        direct = {str(l): str(fit.polynomial.coefficient(l)) for l in range(1, fit.k + 1)}
        if direct != row["pk"]:
            return f"recursion p_{fit.k} differs from the direct fit"
    return None


def _check_pot(case, output):
    report = json.loads(output["stdout"])
    violated = [d for d in report["delta"] if d["status"] == "violated"]
    if output["exit"] != (1 if violated else 0):
        return f"exit {output['exit']} does not match the verdict"
    n, expr = parse_potential_file(case["pot"])
    metric = metric_from_potential(elaborate(expr, n, report["truncation"]))
    for entry in violated:
        k, w = entry["k"], entry["witness"]
        phi = Jet.monomial(n, w["P"], w["Q"], 1, 2 * k)
        for _ in range(k):
            phi = laplacian_apply(metric, phi)
        value = phi.eval0()
        if w["kind"] != "off_diagonal_nonzero":
            for d, p, q in zip(metric.origin_diag, w["P"], w["Q"]):
                if d != 1:
                    if (p + q) % 2:
                        return "witness needs an irrational gauge rescaling"
                    value *= d ** ((p + q) // 2)
        if value != Q(w["lhs"]) or value == Q(w["expected"]):
            return f"witness at k={k} not reproduced by iterated laplacian_apply"
    return None
