"""Workload definitions: the cases each workload runs, generated from a seed.

A case is a JSON-serialisable dict the child process executes:

    {"id": ..., "kind": "cli", "argv": [...]}          -> kahlerlap.cli.main(argv)
    {"id": ..., "kind": "radial", "coeffs": [...],
     "n": 3, "kmax": 12}                                -> radial.radial_pk(...)

Fixed cases (the same for every seed) are checked byte-for-byte against
golden.json.  Seeded cases get independent checks (see checks.py).  The
program under test only ever sees the generated inputs; the seed itself is
never passed to it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

# Sizes are chosen so one repetition takes roughly 1-15 s on a 2-core VM,
# which leaves several repetitions per measured run (see README.md).
SP_INVERSE = ["check", "sp:N=3", "--degree", "8", "--kmax", "3", "--json"]
CP_FIT = ["check", "cp:n=10", "--degree", "8", "--kmax", "4", "--json"]

RADIAL_N = 3
RADIAL_KMAX = 12
RADIAL_BASE = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)]

ALL_LABELS = [
    "flat:n=2", "cp:n=1", "cp:n=2", "cp:n=3", "ch:n=1", "ch:n=2",
    "grassmannian:k=2,N=4", "grassmannian:k=2,N=5", "sp:N=2", "so2n:N=4",
    "quadric-even:N=4", "quadric-odd:N=4",
]

SWEEP_POOL = (
    [["check", label, "--degree", "6", "--json"] for label in ALL_LABELS]
    + [
        ["check", "product(cp:n=1;cp:n=1)", "--degree", "6", "--json"],
        ["check", "dual(grassmannian:k=2,N=4)", "--degree", "6", "--json"],
        ["dual", "grassmannian:k=2,N=4", "--json"],
        ["radial", "--name", "fubini-study", "--n", "3", "--kmax", "8", "--json"],
        ["check", "cp:n=4", "--kmax", "4", "--json"],
    ]
)

# Seeded potentials, all with g(0) = I so witnesses need no gauge rescaling.
# {a}, {b} are filled with small positive rationals from the seed.
POT_TEMPLATES = [
    "log(1 + modsq(z(1)) + modsq(z(2)) + {a} * modsq(z(1) * z(2)))",
    "modsq(z(1)) + modsq(z(2)) + {a} * modsq(z(1) * z(1))"
    " + {b} * modsq(z(1)) * modsq(z(2))",
    "log(det([1 + modsq(z(1)), {a} * z(1) * conj(z(2));"
    " {a} * z(2) * conj(z(1)), 1 + modsq(z(2))]))",
    "radial(0, 1, {a}, {b}) + {b} * modsq(z(1) * z(2))",
]
POT_DEGREE = 6


def cli_case(argv):
    return {"id": " ".join(argv), "kind": "cli", "argv": list(argv)}


def radial_case(coeffs):
    return {
        "id": f"radial_pk n={RADIAL_N} kmax={RADIAL_KMAX} coeffs={','.join(coeffs)}",
        "kind": "radial",
        "coeffs": coeffs,
        "n": RADIAL_N,
        "kmax": RADIAL_KMAX,
    }


def radial_coeffs(seed):
    """Seed 0 is the profile 0,1,1/2,1/3,1/5,1/7; other seeds flip the signs
    of its tail, which keeps the rational sizes (and the cost) alike."""
    rng = random.Random(seed)
    signs = [1] * 4 if seed == 0 else [rng.choice((1, -1)) for _ in range(4)]
    return ["0", "1"] + [str(s * c) for s, c in zip(signs, RADIAL_BASE)]


def pot_texts(seed):
    rng = random.Random(seed)
    texts = []
    for template in POT_TEMPLATES:
        a, b = (Fraction(rng.randint(1, 5), rng.randint(1, 7)) for _ in range(2))
        texts.append(f"# seeded potential\ndim 2\n{template.format(a=a, b=b)}\n")
    return texts


def cases(workload, seed, workdir: Path, root: Path):
    """The cases one repetition of `workload` runs, in order.

    Seeded .pot files are written under `workdir` (inside the checkout); the
    CLI receives their paths relative to `root`.
    """
    if workload == "sp-inverse":
        return [cli_case(SP_INVERSE)]
    if workload == "cp-fit":
        return [cli_case(CP_FIT)]
    if workload == "radial-recursion":
        return [radial_case(radial_coeffs(seed))]
    if workload == "catalog-sweep":
        out = [cli_case(argv) for argv in SWEEP_POOL]
        for i, text in enumerate(pot_texts(seed)):
            path = workdir / f"seeded{i}.pot"
            path.write_text(text, encoding="utf-8")
            rel = str(path.relative_to(root))
            case = cli_case(["check", rel, "--degree", str(POT_DEGREE), "--json"])
            case["pot"] = text
            out.append(case)
        random.Random(seed).shuffle(out)
        return out
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ["sp-inverse", "cp-fit", "radial-recursion", "catalog-sweep"]


def fixed_cases():
    """Every case whose expected output is stored in golden.json."""
    out = [cli_case(SP_INVERSE), cli_case(CP_FIT)]
    out += [cli_case(argv) for argv in SWEEP_POOL]
    out.append(radial_case(radial_coeffs(0)))
    return out
