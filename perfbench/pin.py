"""Write pins.json: the pinned references of the rewrite and cli workloads.

The pins hold the answers logcentre gave at the commit that introduced the
benchmark. They are references for later commits, so regenerate them only
when an output is meant to change, and say so where the change is recorded.

    python3 perfbench/pin.py

The query pools are drawn from a fixed generator seed, not from a workload
seed; a run samples its operations from these pools.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import workloads

sys.path.insert(0, str(workloads.SRC))

from logcentre import ncpoly  # noqa: E402

POOL_SEED = "pins-v2"
QUERIES_PER_KIND = 80
COEFFS = (1, 2, 3, -1, -2, Fraction(1, 2))


def _monomial(rng, max_len):
    return "*".join(rng.choice("abc") for _ in range(rng.randint(1, max_len)))


def _expr(rng, terms, max_len):
    parts = [f"({rng.choice(COEFFS)})*{_monomial(rng, max_len)}" for _ in range(terms)]
    return " + ".join(parts)


def _central_candidate(rng):
    # a^2, b^2, c^2 and (a*b - b*a)^2 = 4*c^6 are central, so the first two
    # shapes say "yes"; varied exponents give them new words each time.
    shape = rng.randrange(4)
    if shape == 0:
        c = [rng.choice(COEFFS) for _ in range(4)]
        e = [2 * rng.randint(1, 3) for _ in range(3)]
        return f"({c[0]})*a^{e[0]} + ({c[1]})*b^{e[1]} + ({c[2]})*c^{e[2]} + ({c[3]})"
    if shape == 1:
        i, k = rng.randint(1, 3), rng.randint(1, 3)
        return (f"({rng.choice(COEFFS)})*(a*b - b*a)^2"
                f" + ({rng.choice(COEFFS)})*a^{2 * i}*c^{2 * k}")
    return _expr(rng, rng.randint(1, 3), 3)


def _nf_candidate(rng):
    if rng.random() < 0.5:
        parts = [f"({rng.choice(COEFFS)})*{_monomial(rng, 2)}" for _ in range(rng.randint(2, 3))]
        return f"({' + '.join(parts)})^{rng.randint(2, 3)}"
    return _expr(rng, rng.randint(2, 4), 5)


def _nf_terms(poly):
    return [["".join(word), str(coeff)] for word, coeff in poly.terms()]


def _distinct(rng, draw, gens, seen):
    """The first drawn query whose input words no earlier query has as its
    own, so that no query of a pass repeats the words of another; `draw`
    returns the query's texts."""
    while True:
        texts = draw(rng)
        words = frozenset(
            "".join(word) for text in texts for word, _ in ncpoly.parse_poly(text, gens).terms()
        )
        if words not in seen:
            seen.add(words)
            return texts


def _identity_sides(rng, system):
    lhs = _expr(rng, rng.randint(1, 3), 4)
    gens = system.generators
    reduced = ncpoly.normal_form(ncpoly.parse_poly(lhs, gens), system)
    if rng.random() < 0.5:
        reduced = reduced + ncpoly.parse_poly(_monomial(rng, 3), gens)
    return lhs, str(reduced)


def clifford_queries(system):
    rng = random.Random(POOL_SEED)
    gens = system.generators
    seen = set()
    out = []
    for _ in range(QUERIES_PER_KIND):
        (expr,) = _distinct(rng, lambda r: (_central_candidate(r),), gens, seen)
        verdict = ncpoly.is_central(ncpoly.parse_poly(expr, gens), system)
        out.append({"kind": "central", "expr": expr, "expected": verdict})
    for _ in range(QUERIES_PER_KIND):
        lhs, rhs = _distinct(rng, lambda r: _identity_sides(r, system), gens, seen)
        verdict = ncpoly.verify_identity(
            ncpoly.parse_poly(lhs, gens), ncpoly.parse_poly(rhs, gens), system
        )
        out.append({"kind": "identity", "lhs": lhs, "rhs": rhs, "expected": verdict})
    for _ in range(QUERIES_PER_KIND):
        (expr,) = _distinct(rng, lambda r: (_nf_candidate(r),), gens, seen)
        reduced = ncpoly.normal_form(ncpoly.parse_poly(expr, gens), system)
        out.append({"kind": "nf", "expr": expr, "expected": _nf_terms(reduced)})
    return out


def _both_formats(group, argv):
    return [(group, argv), (group, argv + ["--format", "json"])]


def cli_templates():
    francia, bench = "{dir}/francia.json", "{dir}/bench.json"
    qp = ["--system", f"{bench}#qp"]
    entries = []
    for name in ("francia", "clifford"):
        entries += _both_formats("examples", ["examples", "run", name])
        entries += _both_formats("examples", ["examples", "input", name])
    for e, i in ((2, 1), (3, 2), (5, 4), (8, 3), (12, 7), (20, 5), (27, 11), (40, 9)):
        entries += _both_formats("order", ["order", "omega-center", "--e", str(e), "--i", str(i)])
    for e, m in ((2, 6), (3, 10), (7, 14), (12, 20), (25, 30), (40, 40)):
        entries += _both_formats("order", ["order", "cover-center", "--e", str(e), "--m", str(m)])
    for target in (f"{bench}#ord2", f"{bench}#ord7", f"{bench}#ord40", "{dir}/clifford.json"):
        entries += _both_formats("order", ["order", "discriminant", target])
    toric = [
        ["klt", f"{francia}#base"], ["klt", f"{bench}#square"], ["klt", f"{bench}#plane"],
        ["klt", f"{bench}#edge"], ["klt", f"{bench}#cq5_123"],
        ["cover", f"{francia}#base"], ["cover", f"{bench}#plane"], ["cover", f"{bench}#square"],
        ["qcartier", f"{francia}#base", "--divisor", "K"], ["qcartier", f"{francia}#base"],
        ["qcartier", f"{bench}#square", "--divisor", "K"],
        ["qcartier", f"{bench}#rect23", "--divisor", "1,0,0,0"],
        ["index", f"{francia}#base"], ["index", f"{francia}#base", "--divisor", "K"],
        ["index", f"{bench}#cq7_112", "--divisor", "K"],
        ["canonical", f"{bench}#square"], ["canonical", f"{bench}#rect23"],
        ["canonical", f"{bench}#cq5_123"], ["canonical", f"{bench}#cq7_112"],
        ["canonical", f"{francia}#base"],
        ["dual-gens", f"{francia}#base"], ["dual-gens", f"{bench}#square"],
        ["dual-gens", f"{bench}#rect23"], ["dual-gens", f"{bench}#cq5_123"],
        ["dual-gens", f"{bench}#plane"],
    ]
    for argv in toric:
        entries += _both_formats("toric", ["toric", *argv])
    ncpoly_cmds = [
        ["nf", "b*a"], ["nf", "(a+b)^3"], ["nf", "(a+b+c)^4"], ["nf", "c*b*a"],
        ["nf", "(a*b-b*a)^2"], ["nf", "(x+y)^5", *qp], ["nf", "y^3*x^2", *qp],
        ["central", "a^2 + c^2"], ["central", "a*b"], ["central", "b^2 - 3*c^2"],
        ["central", "a + c"], ["central", "x*y", *qp], ["central", "3", *qp],
        ["identity", "(a*b - b*a)^2", "4*c^6"], ["identity", "b*a", "a*b"],
        ["identity", "c*a", "0 - a*c"], ["identity", "y*x", "2*x*y", *qp],
        ["identity", "y^2*x", "2*x*y^2", *qp],
        ["quotient-check", "francia-algebra"],
    ]
    for argv in ncpoly_cmds:
        entries += _both_formats("ncpoly", ["ncpoly", *argv])
    return entries


def _run_cli(argv, directory):
    done = subprocess.run(
        [sys.executable, "-m", "logcentre", *workloads.cli_argv(argv, directory)],
        env=workloads.child_env(), cwd=workloads.ROOT, capture_output=True, check=False,
    )
    return done.returncode, done.stdout


def cli_pins():
    out = []
    workloads.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.SCRATCH) as first, \
            tempfile.TemporaryDirectory(dir=workloads.SCRATCH) as second:
        for directory in (first, second):
            workloads.write_cli_documents(Path(directory))
        for group, argv in cli_templates():
            code, stdout = _run_cli(argv, first)
            # The pinned bytes must not depend on where the documents live.
            if _run_cli(argv, second) != (code, stdout):
                raise SystemExit(f"output of {argv} depends on the document directory")
            if code not in (0, 3):
                raise SystemExit(f"{argv} exited with {code}; pin only answers, not errors")
            out.append({"group": group, "argv": argv, "exit": code,
                        "stdout_sha256": workloads.digest(stdout), "stdout_bytes": len(stdout)})
    return out


def main():
    system = ncpoly.builtin_system("clifford")
    powers = {}
    for n in workloads.CLIFFORD_POWERS:
        poly = ncpoly.parse_poly(f"(a+b+c)^{n}", system.generators)
        powers[str(n)] = _nf_terms(ncpoly.normal_form(poly, system))
    pins = {
        "clifford_powers": powers,
        "clifford_queries": clifford_queries(system),
        "cli": cli_pins(),
    }
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
