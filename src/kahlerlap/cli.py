"""Command-line front end.

Subcommands: catalog (list families), check (Einstein constant, polynomial
fits, parallel-curvature obstructions on a catalog space or a .pot file),
radial (recursion vs direct fit), dual (compact/noncompact order-3 table).

Reports are deterministic: rationals serialize as strings like "3/4",
multi-indices as integer lists, and two runs with identical flags produce
byte-identical output.  Exit codes: 0 all requested checks pass, 1 a check
found a violation, 2 refused input (an InputError: usage, catalog, gauge,
truncation, .pot syntax or series; or an OSError), 3 internal engine fault
(a JetError: exhausted validity, dimension mismatch or a singular inverse;
or any other exception, a bare ValueError too, of kind "internal" with its
class name in the message).  On exit 2 or 3 the error goes to stderr as one
line and, under --json, also to stdout as {"error": {"kind", "message",
"exit"}}; an argv that does not parse is a usage error like any other.

One table, COMMANDS, gives each command's handler and arguments; parse_args
reads argv by it and usage writes the -h text from it.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from . import __version__, catalog
from .dsl import elaborate, parse_potential_file
from .fit import check_delta_property
from .jets import InputError, JetError
from .metric import (
    GaugeError,
    TruncationError,
    einstein_constant,
    fifth_order_check,
    metric_from_potential,
    require_bochner_form,
    require_diagonal_gauge,
    third_deriv_obstruction,
)
from .radial import named_profile, potential_jet, profile_from_coeffs, radial_pk
from .rationals import MAX_DIGITS, Q


# one --coeffs item: an integer or p/q, in ASCII digits (Fraction would also
# take decimals, exponents, underscores and other scripts' digits), each
# integer at most MAX_DIGITS long
_COEFF = re.compile(rf"-?[0-9]{{1,{MAX_DIGITS}}}(/[0-9]{{1,{MAX_DIGITS}}})?")


class UsageError(InputError):
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
    """Returns (label, dim, metric, catalog space or None).  Below degree 4
    every target is refused before any build: a catalog potential is
    cubic-free, and so is a .pot one that require_bochner_form passed (it
    refuses bidegrees (2, 1) and (1, 2), the cubic terms that reach g)."""
    phi = None
    if target.endswith(".pot"):
        path = Path(target)
        if not path.exists():
            raise UsageError(f"no such potential file: {target}")
        # a byte that is not UTF-8 reads as U+FFFD, which only a comment takes
        n, expr = parse_potential_file(path.read_text(encoding="utf-8", errors="replace"))
        phi = elaborate(expr, n, degree)
        require_bochner_form(phi)
        require_diagonal_gauge(phi)
    else:
        desc = catalog.parse_space(target)
    if degree < 4:
        raise TruncationError("inverse metric valid below degree 2", required=4)
    if phi is not None:
        return target, n, metric_from_potential(phi), None
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
        except ZeroDivisionError as exc:  # p/0
            raise UsageError(f"bad --coeffs: {exc}")
        profile = profile_from_coeffs(coeffs, order=order)
    n = args.n
    if n < 1:
        raise UsageError(f"need n >= 1 variables, got {n}")
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
    degree = args.degree
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


_REQUIRED = object()  # the default of an argument that must be given
# command -> (handler, summary, arguments); each argument maps to its kind
# (int, str, bool or a tuple of choices) and its default.  The argument whose
# name has no leading dashes is the positional.
COMMANDS = {
    "catalog": (cmd_catalog, "list the built-in space families", {"--family": (str, None)}),
    "check": (cmd_check, "run the polynomial-identity checks on a catalog label or a .pot file",
              {"space": (str, _REQUIRED), "--kmax": (int, 3), "--degree": (int, None)}),
    "radial": (cmd_radial, "radial recursion vs direct fit; --coeffs: Phi(t), constant first", {
        "--name": (("flat", "fubini-study", "hyperbolic"), None), "--coeffs": (str, None),
        "--n": (int, _REQUIRED), "--kmax": (int, 3), "--degree": (int, None)}),
    "dual": (cmd_dual, "order-3 values on a space and its dual",
             {"space": (str, _REQUIRED), "--degree": (int, 6)}),
}
_COMMON = {"--json": (bool, False), "--out": (str, None), "--help": (bool, False)}
for _, _, _spec in COMMANDS.values():
    _spec.update(_COMMON)
# an int flag's value: ASCII digits, as in a .pot file (int() would also take
# blanks, underscores and other scripts' digits)
_INT = re.compile(rf"-?[0-9]{{1,{MAX_DIGITS}}}")


def _flags(name, spec):  # the flags of spec that name gives, in full or as a prefix
    return [name] if name in spec else [f for f in spec if len(name) > 2 and f.startswith(name)]


def parse_args(argv):
    """The command of argv and its arguments, as COMMANDS describes them, in
    a namespace; at -h (--help) the rest of argv is not read.

    A flag is named in full or by a unique prefix (argparse's
    abbreviations); its value is the next token or follows '=', and the last
    of a repeated flag wins.  Anything else raises UsageError.
    """
    command, *rest = argv or [None]
    if command in ("-h", "--help"):
        return SimpleNamespace(command=None, help=True)
    if command not in COMMANDS:
        raise UsageError(f"expected a command ({', '.join(COMMANDS)})"
                         + (f", got {command!r}" if argv else ""))
    spec = COMMANDS[command][2]
    args = SimpleNamespace(command=command,
                           **{name.strip("-"): default for name, (_, default) in spec.items()})
    positional = [name for name in spec if name[0] != "-"]
    tokens = iter(rest)
    for token in tokens:
        if token[:1] != "-" or token == "-":
            if not positional:
                raise UsageError(f"unrecognized argument {token!r}")
            name, eq, value = positional.pop(), "=", token
        else:
            name, eq, value = token.partition("=")
            name = "--help" if name == "-h" else name
            if len(hits := _flags(name, spec)) != 1:
                raise UsageError(f"unknown or ambiguous flag {name!r}")
            name = hits[0]
        kind = spec[name][0]
        if kind is bool:
            if eq:
                raise UsageError(f"{name} takes no value")
            value = True
        elif not eq and (value := next(tokens, None)) is None:
            raise UsageError(f"{name} needs a value")
        elif kind is int and not _INT.fullmatch(value):
            raise UsageError(f"{name} needs an integer, got {value!r}")
        elif type(kind) is tuple and value not in kind:
            raise UsageError(f"{name} needs one of {', '.join(kind)}, got {value!r}")
        setattr(args, name.strip("-"), int(value) if kind is int else value)
        if args.help:
            return args
    missing = [name for name in spec if getattr(args, name.strip("-")) is _REQUIRED]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return args


def usage(commands):
    """The -h text: the usage line and summary of each of commands."""
    text = ""
    for command in commands:
        _, summary, spec = COMMANDS[command]
        words = [command]
        for name, (kind, default) in spec.items():
            value = ("N" if kind is int else "{%s}" % ",".join(kind) if type(kind) is tuple
                     else name.strip("-").upper())
            word = value if name[0] != "-" else name if kind is bool else f"{name} {value}"
            words.append(word if default is _REQUIRED else f"[{word}]")
        text += f"usage: kahlerlap {' '.join(words)}\n  {summary}\n"
    return text


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    spec = COMMANDS[argv[0]][2] if argv and argv[0] in COMMANDS else _COMMON
    args = SimpleNamespace(json=any(_flags(t, spec) == ["--json"] for t in argv))  # until read
    # every integer read from input has at most MAX_DIGITS digits, but an
    # exact result built from them may print longer than int's default limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = parse_args(argv)
        if args.help:
            sys.stdout.write(usage([args.command] if args.command else COMMANDS))
            return 0
        return COMMANDS[args.command][0](args)
    except JetError as exc:
        error, code, text = exc, 3, f"internal: {exc}"
    except TruncationError as exc:
        error, code, text = exc, 2, f"{exc} (rerun with --degree {exc.required})"
    except (InputError, OSError) as exc:
        error, code, text = exc, 2, str(exc)
    except Exception as exc:  # any other exception is an engine fault too
        error, code, text = None, 3, f"internal: {type(exc).__name__}: {exc}"
    finally:
        sys.set_int_max_str_digits(limit)
    print(f"error: {text}", file=sys.stderr)
    if args.json:
        kind, message = (("internal", text.removeprefix("internal: ")) if error is None
                         else (type(error).__name__, str(error)))
        print(json.dumps({"error": {"kind": kind, "message": message, "exit": code}}, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
