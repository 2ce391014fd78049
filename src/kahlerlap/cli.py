"""Command-line front end.

Subcommands: catalog (list families), check (Einstein constant, polynomial
fits, parallel-curvature obstructions on a catalog space or a .pot file),
radial (recursion vs direct fit), dual (compact/noncompact order-3 table).

Reports are deterministic: rationals serialize as strings like "3/4",
multi-indices as integer lists, and two runs with identical flags produce
byte-identical output.  Exit codes: 0 all requested checks pass, 1 a check
found a violation, 2 usage error, 3 internal engine fault (a JetError:
exhausted validity, dimension mismatch or a singular inverse).  On exit 2 or
3 the error goes to stderr and, under --json, also to stdout as
{"error": {"kind", "message", "exit"}}.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache
from pathlib import Path

from . import __version__, catalog
from .dsl import elaborate, parse_potential_file
from .fit import check_delta_property
from .jets import JetError
from .metric import (
    GaugeError,
    TruncationError,
    einstein_constant,
    fifth_order_check,
    metric_from_potential,
    require_bochner_form,
    third_deriv_obstruction,
)
from .radial import named_profile, potential_jet, profile_from_coeffs, radial_pk
from .rationals import Q


# one --coeffs item: an integer or p/q, in ASCII digits (Fraction would also
# take decimals, exponents, underscores and other scripts' digits)
_COEFF = re.compile(r"-?[0-9]+(/[0-9]+)?")


class UsageError(Exception):
    pass


def _poly_dict(poly):
    return {str(l): str(poly.coefficient(l)) for l in range(1, poly.k + 1)}


def _witness_dict(w):
    return {
        "P": list(w.P),
        "Q": list(w.Q),
        "kind": w.kind,
        "lhs": str(w.lhs),
        "expected": str(w.expected),
    }


def _delta_section(results):
    out = []
    for r in results:
        if r.fitted:
            out.append({"k": r.k, "status": "fitted", "pk": _poly_dict(r.polynomial)})
        else:
            out.append(
                {"k": r.k, "status": "violated", "witness": _witness_dict(r.witness)}
            )
    return out


def _emit(args, report, human_lines):
    text = (
        json.dumps(report, indent=2) + "\n"
        if args.json
        else "\n".join(human_lines) + "\n"
    )
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _resolve_degree(args, kmax):
    if kmax < 1:
        raise UsageError("k_max must be >= 1")
    if args.degree is None:
        degree = max(6, 2 * kmax)
        if 2 * kmax > 6:
            print(f"note: truncation raised to {degree} for kmax={kmax}", file=sys.stderr)
        return degree
    if args.degree < 2 * kmax:
        raise UsageError(
            f"--degree {args.degree} is below the minimum 2*kmax = {2 * kmax}"
        )
    return args.degree


def cmd_catalog(args):
    rows = []
    for name in catalog.all_family_names():
        if args.family and name != args.family:
            continue
        params, dim, rank = catalog.family_summary(name)
        rows.append({"family": name, "parameters": params, "dim": dim, "rank": rank})
    if args.family and not rows:
        raise UsageError(f"unknown family {args.family!r}")
    lines = [f"{'family':<14} {'parameters':<10} {'dim':<10} rank"]
    lines += [
        f"{r['family']:<14} {r['parameters']:<10} {r['dim']:<10} {r['rank']}"
        for r in rows
    ]
    lines.append("compound spaces: product(a;b;...), dual(space)")
    _emit(args, rows, lines)
    return 0


def _load_check_target(target, degree):
    """Returns (label, dim, metric, catalog space or None)."""
    if target.endswith(".pot"):
        path = Path(target)
        if not path.exists():
            raise UsageError(f"no such potential file: {target}")
        n, expr = parse_potential_file(path.read_text(encoding="utf-8"))
        phi = elaborate(expr, n, degree)
        require_bochner_form(phi)
        return target, n, metric_from_potential(phi), None
    desc = catalog.parse_space(target)
    space = catalog.build_space(desc, degree)
    return desc.label(), desc.complex_dim, space.metric, space


def cmd_check(args):
    kmax = args.kmax
    degree = _resolve_degree(args, kmax)
    label, dim, metric, space = _load_check_target(args.space, degree)
    report = {"space": label, "dim": dim, "truncation": degree}
    lines = [f"space: {label} (dim {dim}, truncation {degree})"]

    try:
        rep = einstein_constant(metric)
        report["einstein"] = {
            "lambda": str(rep.lam) if rep.lam is not None else None,
            "residual": str(rep.residual),
        }
        lines.append(
            f"einstein: lambda = {rep.lam} (residual 0)"
            if rep.lam is not None
            else f"einstein: not Einstein at origin (residual {rep.residual})"
        )
    except GaugeError as exc:
        rep = None
        report["einstein"] = {"lambda": None, "residual": None}
        lines.append("einstein: skipped (gauge: %s)" % exc)

    results = check_delta_property(metric, kmax)
    report["delta"] = _delta_section(results)
    for r in results:
        if r.fitted:
            lines.append(f"delta k={r.k}: fitted p_{r.k} = {r.polynomial}")
        else:
            w = r.witness
            lines.append(
                f"delta k={r.k}: VIOLATED ({w.kind}) at z^{list(w.P)} zb^{list(w.Q)}: "
                f"value {w.lhs}, expected {w.expected}"
            )

    try:
        third = third_deriv_obstruction(metric)
        fifth = fifth_order_check(metric)
        report["parallel"] = {"third": str(third), "fifth": str(fifth)}
        lines.append(f"parallel curvature: third = {third}, fifth = {fifth}")
    except (GaugeError, TruncationError) as exc:
        report["parallel"] = {"third": None, "fifth": None}
        lines.append(f"parallel curvature: skipped ({exc})")

    if space is not None and len(space.frame) >= 2 and rep is not None and rep.lam is not None:
        ob = catalog.obstruction_report(space)
        report["obstruction"] = {
            "lambda": str(ob.lam),
            "mu": [str(x) for x in ob.mu],
            "val1": str(ob.val1),
            "val2": str(ob.val2),
            "requirement": str(ob.delta_requirement),
        }
        lines.append(
            f"obstruction: val1 = {ob.val1}, val2 = {ob.val2}, "
            f"val1 - 2*val2 = {ob.delta_requirement} "
            f"(embedded-line prediction {ob.val1_expected}, {ob.val2_expected})"
        )

    report["engine"] = {"version": __version__}
    violated = any(not r.fitted for r in results)
    lines.append("result: VIOLATED" if violated else "result: all fits succeeded")
    _emit(args, report, lines)
    return 1 if violated else 0


def cmd_radial(args):
    kmax = args.kmax
    degree = _resolve_degree(args, kmax)
    if (args.name is None) == (args.coeffs is None):
        raise UsageError("give exactly one of --name or --coeffs")
    order = max((degree + 1) // 2, kmax + 2)
    if args.name:
        label = args.name
        profile = named_profile(args.name, order)
    else:
        label = f"coeffs {args.coeffs}"
        items = [part.strip() for part in args.coeffs.split(",")]
        for item in items:  # refused before any Fraction is built
            if not _COEFF.fullmatch(item):
                raise UsageError(f"bad --coeffs: {item!r} is not an integer or p/q")
        try:
            coeffs = [Q(item) for item in items]
        except (ValueError, ZeroDivisionError) as exc:  # p/0; past int's digit limit
            raise UsageError(f"bad --coeffs: {exc}")
        profile = profile_from_coeffs(coeffs, order=order)
    n = args.n
    polys = radial_pk(profile, n, kmax)
    metric = metric_from_potential(potential_jet(profile, n, degree))
    fit_results = check_delta_property(metric, kmax)
    equal = all(
        r.fitted and r.polynomial == p for r, p in zip(fit_results, polys)
    ) and len(fit_results) == len(polys)
    report = {
        "space": f"radial({label}, n={n})",
        "dim": n,
        "truncation": degree,
        "radial": {
            "recursion": [
                {"k": p.k, "pk": _poly_dict(p)} for p in polys
            ],
            "fit": _delta_section(fit_results),
            "equal": equal,
        },
        "engine": {"version": __version__},
    }
    lines = [f"radial profile {label}, n = {n}, truncation {degree}"]
    for p in polys:
        lines.append(f"recursion p_{p.k} = {p}")
    for r in fit_results:
        lines.append(
            f"direct fit p_{r.k} = {r.polynomial}"
            if r.fitted
            else f"direct fit k={r.k}: VIOLATED"
        )
    lines.append("verdict: equal" if equal else "verdict: MISMATCH")
    _emit(args, report, lines)
    return 0 if equal else 1


def cmd_dual(args):
    degree = args.degree if args.degree is not None else 6
    desc = catalog.parse_space(args.space)
    rows = catalog.dual_compare(desc, degree)
    all_zero = all(a + b == 0 for _, a, b in rows)
    report = {
        "space": desc.label(),
        "dim": desc.complex_dim,
        "truncation": degree,
        "dual": [
            {"monomial": list(P), "compact": str(a), "noncompact": str(b)}
            for P, a, b in rows
        ],
        "engine": {"version": __version__},
    }
    lines = [f"space: {desc.label()} vs its noncompact dual (truncation {degree})"]
    for P, a, b in rows:
        lines.append(f"|z^{list(P)}|^2: {a} / {b}")
    lines.append(
        "verdict: all pairs sum to zero" if all_zero else "verdict: MISMATCH"
    )
    _emit(args, report, lines)
    return 0 if all_zero else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kahlerlap",
        description="Exact origin computations of iterated Kahler Laplacians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the built-in space families")
    p.add_argument("--family", help="restrict to one family")
    _common_flags(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("check", help="run the polynomial-identity checks")
    p.add_argument("space", help="catalog label like grassmannian:k=2,N=4, or a .pot file")
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--degree", type=int, default=None)
    _common_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("radial", help="radial recursion vs direct fit")
    p.add_argument("--name", choices=["flat", "fubini-study", "hyperbolic"])
    p.add_argument("--coeffs", help="Taylor coefficients of Phi(t), constant first")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--degree", type=int, default=None)
    _common_flags(p)
    p.set_defaults(func=cmd_radial)

    p = sub.add_parser("dual", help="order-3 values on a space and its dual")
    p.add_argument("space")
    p.add_argument("--degree", type=int, default=None)
    _common_flags(p)
    p.set_defaults(func=cmd_dual)
    return parser


def _common_flags(p):
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--out", help="write the report to a file")


_parser = cache(build_parser)  # built once, when main first runs


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except JetError as exc:
        error, code, text = exc, 3, f"internal: {exc}"
    except TruncationError as exc:
        error, code, text = exc, 2, f"{exc} (rerun with --degree {exc.required})"
    except (UsageError, ValueError, OSError) as exc:
        # ValueError covers CatalogError, GaugeError and the .pot file errors
        error, code, text = exc, 2, str(exc)
    print(f"error: {text}", file=sys.stderr)
    if args.json:
        kind, message = type(error).__name__, str(error)
        print(json.dumps({"error": {"kind": kind, "message": message, "exit": code}}, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
