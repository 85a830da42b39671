"""The four benchmark workloads, built from a seed.

Each workload is a list of operations run as a closed loop by ``run.py``.
An operation has ``run()``, which does the timed work and returns its output,
and ``check(output)``, which compares that output with a reference the code
under test does not produce: a closed form from ``refs.py``, or a value
pinned in ``pins.json``. The seed fixes a workload's inputs once, at set-up;
the objects the operations act on (rewrite systems, cones, pairs) are built
anew from those inputs before every pass, so that nothing the code under test
caches on them carries over from one pass to the next. ``logcentre`` is
imported inside the functions that make each workload, so that a set-up probe
times the import too, and library functions are looked up through their
module at call time, so that an installed tracer sees them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import refs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS_PATH = Path(__file__).with_name("pins.json")
CHILD = Path(__file__).with_name("cli_child.py")
SCRATCH = ROOT / ".perfbench"

NAMES = ("corpus", "cones", "rewrite", "cli")

# 1200 rather than 300 pairs: the cost of a batch rests on a few pairs with
# large zonotope boxes, so a 600-pair batch still cost up to a sixth less on
# one seed than on another.
CORPUS_PAIRS = 1200

# Rectangle sides of the Gorenstein cone ladder; each rectangle gets one of
# the three cone operations, rotated by a seeded offset, because the three
# cost about the same on one cone and all three on every rung would make a
# pass too long for a short run.
RECTANGLES = (
    (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5),
    (5, 5), (5, 6), (6, 6), (6, 7), (7, 7), (7, 8), (8, 8),
)
CONE_KINDS = ("canonical", "hilbert", "dual-gens")
QUOTIENT_MAX_R = 11

CLIFFORD_POWERS = (6, 7, 8)
QUANTUM_POWERS = tuple(range(2, 14))
# Unit coefficients only: the seed flips signs, which costs nothing, where
# other rationals change the cost of the largest expansions by up to half.
QUANTUM_COEFFS = (1, -1)
# Sign changes (a, b, c) -> (sa*a, sb*b, sc*c) with sa*sb = sc preserve the
# Clifford relations, so the normal form of the image is the signed image of
# the pinned normal form.
CLIFFORD_SIGNS = ((1, 1, 1), (-1, 1, -1), (-1, -1, 1), (1, -1, -1))
# Exponents of the quantum-plane words y^j x^i (normal forms and identities)
# and x^i y^j (centrality): every small query in a pass has its own words.
QUANTUM_WORD_MAX = 6
QUANTUM_CENTRAL_MAX = 4

QUANTUM_DOC = {
    "version": "1",
    "objects": {
        "qp": {
            "type": "presentation",
            "generators": ["x", "y"],
            "rules": [{"lhs": "y*x", "rhs": "2*x*y"}],
        }
    },
}

# Inputs of the cli workload beyond the two case-study documents.
BENCH_DOC = {
    "version": "1",
    "objects": {
        "square": {"type": "cone_pair", "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]]},
        "rect23": {"type": "cone_pair", "rays": [[0, 0, 1], [2, 0, 1], [0, 3, 1], [2, 3, 1]]},
        "cq5_123": {
            "type": "cone_pair",
            "lattice": [["1/5", "2/5", "3/5"], [0, 1, 0], [0, 0, 1]],
            "rays": [[5, -2, -3], [0, 1, 0], [0, 0, 1]],
        },
        "cq7_112": {
            "type": "cone_pair",
            "lattice": [["1/7", "1/7", "2/7"], [0, 1, 0], [0, 0, 1]],
            "rays": [[7, -1, -2], [0, 1, 0], [0, 0, 1]],
        },
        "plane": {"type": "cone_pair", "rays": [[1, 0], [1, 3]], "boundary": ["1/2", "2/3"]},
        "edge": {"type": "cone_pair", "rays": [[1, 0], [0, 1]], "boundary": [1, "1/2"]},
        "ord2": {"type": "order", "ramification": [{"prime": "p", "e": 2}]},
        "ord7": {"type": "order", "ramification": [{"prime": "p", "e": 7}, {"prime": "q", "e": 3}]},
        "ord40": {"type": "order", "ramification": [{"prime": "p", "e": 40, "blocks": [2] * 40}]},
        "qp": QUANTUM_DOC["objects"]["qp"],
    },
}


class Op:
    """One unit of a closed loop: timed `run`, untimed `check`."""

    __slots__ = ("kind", "label", "run", "check")

    def __init__(self, kind, label, run, check):
        self.kind = kind
        self.label = label
        self.run = run
        self.check = check


class Workload:
    """The ops of one pass, facts for the result line, and a scratch directory.

    `make_ops` builds the op list on new objects from the seeded inputs;
    `renew` calls it before each pass, outside the timed region.
    """

    def __init__(self, make_ops, info, tmpdir=None):
        self.make_ops = make_ops
        self.ops = make_ops()
        self.info = info
        self.tmpdir = tmpdir

    def renew(self) -> None:
        self.ops = self.make_ops()

    def close(self) -> None:
        if self.tmpdir is not None:
            shutil.rmtree(self.tmpdir, ignore_errors=True)
            self.tmpdir = None


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def build(name: str, seed: int) -> Workload:
    make = {"corpus": _corpus, "cones": _cones, "rewrite": _rewrite, "cli": _cli}[name]
    workload = make(random.Random(f"{name}:{seed}"), seed)
    workload.info["ops_per_pass"] = dict(sorted(Counter(op.kind for op in workload.ops).items()))
    return workload


# -- corpus ---------------------------------------------------------------


def _corpus(rng, seed) -> Workload:
    from logcentre import corpus, toric

    pairs = corpus.random_standard_pairs(seed, CORPUS_PAIRS)
    inputs = [(p.cone.lattice.basis, p.cone.rays, p.boundary.coeffs) for p in pairs]

    def make_ops():
        ops = []
        for index, (basis, rays, coeffs) in enumerate(inputs):
            pair = toric.ConePair(toric.Cone(toric.Lattice(basis), rays),
                                  toric.ToricDivisor(coeffs))

            def run(pair=pair):
                return toric.cover_correspondence_check(pair)

            def check(out, pair=pair):
                klt = toric.klt_check(pair).is_klt
                return out is True and klt == refs.klt_closed_form(pair.boundary.coeffs)

            ops.append(Op("correspondence", f"pair{index}", run, check))
        return ops

    simplicial = sum(len(pair.cone.rays) == pair.cone.dim for pair in pairs)
    return Workload(make_ops, {"pairs": len(pairs), "simplicial": simplicial})


# -- cones ----------------------------------------------------------------


def rectangle_rays(a: int, b: int):
    return ((0, 0, 1), (a, 0, 1), (0, b, 1), (a, b, 1))


def quotient_cone_data(r: int, a: int, b: int):
    """Lattice basis and rays of 1/r(1,a,b): the orthant over Z^3 + Z(1,a,b)/r."""
    basis = ((Fraction(1, r), Fraction(a, r), Fraction(b, r)), (0, 1, 0), (0, 0, 1))
    rays = ((r, -a, -b), (0, 1, 0), (0, 0, 1))
    return basis, rays


def _cones(rng, seed) -> Workload:
    from logcentre import toric

    # (kind, label, lattice basis or None, rays, expected), fixed by the seed.
    inputs = []
    offset = rng.randrange(len(CONE_KINDS))
    for index, (a, b) in enumerate(RECTANGLES):
        if rng.random() < 0.5:
            a, b = b, a
        kind = CONE_KINDS[(index + offset) % len(CONE_KINDS)]
        expected = True if kind == "canonical" else refs.rectangle_points(a, b)
        inputs.append((kind, f"rect{a}x{b}", None, rectangle_rays(a, b), expected))
    for r, a, b in refs.cyclic_quotients(QUOTIENT_MAX_R):
        if rng.random() < 0.5:
            a, b = b, a
        basis, rays = quotient_cone_data(r, a, b)
        expected = refs.reid_tai_canonical(r, (1, a, b))
        inputs.append(("reid-tai", f"1/{r}(1,{a},{b})", basis, rays, expected))
    rng.shuffle(inputs)

    def make_ops():
        ops = []
        for kind, label, basis, rays, expected in inputs:
            if basis is None:
                cone = toric.Cone.from_rays(rays)
            else:
                cone = toric.Cone(toric.Lattice(basis), rays)
            if kind in ("canonical", "reid-tai"):
                ops.append(Op(kind, label, lambda c=cone: toric.canonical_check(c),
                              lambda out, e=expected: out is e))
            elif kind == "hilbert":
                ops.append(Op(kind, label, lambda c=cone: toric.hilbert_basis(c),
                              lambda out, e=expected: set(out) == e))
            else:
                dual = toric.dual_cone(cone)
                ops.append(Op(kind, label, lambda d=dual: toric.dual_cone_generators(d),
                              lambda out, e=expected: set(out) == e))
        return ops

    info = {"rectangles": len(RECTANGLES), "quotients": len(inputs) - len(RECTANGLES)}
    return Workload(make_ops, info)


# -- rewrite --------------------------------------------------------------


def _word_sign(word: str, signs) -> int:
    sa, sb, sc = signs
    return sa ** word.count("a") * sb ** word.count("b") * sc ** word.count("c")


def _apply_signs(text: str, signs) -> str:
    """The image of a Clifford expression under (a, b, c) -> (sa*a, sb*b, sc*c)."""
    sign_of = dict(zip("abc", signs))
    return re.sub(r"[abc]", lambda m: m[0] if sign_of[m[0]] > 0 else f"(-{m[0]})", text)


def _as_terms(poly) -> dict:
    return {"".join(word): coeff for word, coeff in poly.terms()}


def _signed_terms(pairs, signs) -> dict:
    return {word: Fraction(coeff) * _word_sign(word, signs) for word, coeff in pairs}


def _query_op(query, system) -> Op:
    """One parse plus normal_form, is_central or verify_identity on `system`.

    `query` is (shape, kind, system name, texts, expected) with shape "nf",
    "central" or "identity"."""
    from logcentre import ncpoly

    shape, kind, _, texts, expected = query

    def parse(text):
        return ncpoly.parse_poly(text, system.generators)

    if shape == "nf":
        (text,) = texts
        return Op(kind, text, lambda: ncpoly.normal_form(parse(text), system),
                  lambda out: _as_terms(out) == expected)
    if shape == "central":
        (text,) = texts
        return Op(kind, text, lambda: ncpoly.is_central(parse(text), system),
                  lambda out: out is expected)
    lhs, rhs = texts
    return Op(kind, f"{lhs} == {rhs}",
              lambda: ncpoly.verify_identity(parse(lhs), parse(rhs), system),
              lambda out: out is expected)


def _rewrite(rng, seed) -> Workload:
    from logcentre import iodoc, ncpoly

    pins = load_pins()
    queries = []

    # Sign automorphisms preserve centrality and identities and commute with
    # rewriting, so each pinned Clifford answer carries over to a seeded image
    # that costs the same to compute.
    for n in CLIFFORD_POWERS:
        signs = rng.choice(CLIFFORD_SIGNS)
        pinned = pins["clifford_powers"][str(n)]
        queries.append(("nf", "clifford-power", "clifford",
                        (_apply_signs(f"(a + b + c)^{n}", signs),), _signed_terms(pinned, signs)))
    for query in pins["clifford_queries"]:
        signs = rng.choice(CLIFFORD_SIGNS)
        shape, kind = query["kind"], f"clifford-{query['kind']}"
        if shape == "identity":
            texts = tuple(_apply_signs(query[side], signs) for side in ("lhs", "rhs"))
        else:
            texts = (_apply_signs(query["expr"], signs),)
        expected = query["expected"]
        if shape == "nf":
            expected = _signed_terms(expected, signs)
        queries.append((shape, kind, "clifford", texts, expected))

    # Quantum plane y*x = 2*x*y: powers against Gaussian binomials, and
    # y^j x^i = 2^(ij) x^i y^j; its centre is the constants because 2 is not
    # a root of unity. Shapes are fixed and coefficients seeded; each word
    # y^j x^i is either a normal-form or an identity query, not both.
    for n in QUANTUM_POWERS:
        c1, c2 = rng.choice(QUANTUM_COEFFS), rng.choice(QUANTUM_COEFFS)
        queries.append(("nf", "quantum-power", "quantum", (f"(({c1})*x + ({c2})*y)^{n}",),
                        refs.quantum_binomial(n, 2, c1, c2)))
    for i, j in product(range(1, QUANTUM_WORD_MAX + 1), repeat=2):
        c = rng.choice(QUANTUM_COEFFS)
        word, value = f"({c})*y^{j}*x^{i}", c * 2 ** (i * j)
        if (i + j) % 2 == 0:
            queries.append(("nf", "quantum-nf", "quantum", (word,), {"x" * i + "y" * j: value}))
        else:
            truth = rng.random() < 0.5
            rhs = f"({value + (0 if truth else 1)})*x^{i}*y^{j}"
            queries.append(("identity", "quantum-identity", "quantum", (word, rhs), truth))
    for i, j in product(range(QUANTUM_CENTRAL_MAX), repeat=2):
        k, c = rng.randint(1, 5), rng.choice(QUANTUM_COEFFS)
        queries.append(("central", "quantum-central", "quantum",
                        (f"{k} + ({c})*x^{i}*y^{j}",), (i, j) == (0, 0)))
    rng.shuffle(queries)
    quantum_text = json.dumps(QUANTUM_DOC)

    def make_ops():
        systems = {
            "clifford": ncpoly.builtin_system("clifford"),
            "quantum": iodoc.loads(quantum_text).objects["qp"],
        }
        return [_query_op(query, systems[query[2]]) for query in queries]

    return Workload(make_ops, {})


# -- cli ------------------------------------------------------------------

# Half of each command group of the pinned pool, drawn by the seed: the more
# of the pool a pass runs, the less the cost of a pass depends on the seed.
CLI_PICKS = {"examples": 4, "order": 18, "toric": 25, "ncpoly": 19}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def write_cli_documents(directory: Path) -> None:
    from logcentre import casestudies, iodoc

    for name in casestudies.CASE_STUDIES:
        text = iodoc.serialize_document(casestudies.input_document(name))
        (directory / f"{name}.json").write_text(text, encoding="utf-8")
    (directory / "bench.json").write_text(json.dumps(BENCH_DOC, indent=2) + "\n", encoding="utf-8")


def cli_argv(template, directory: Path) -> list:
    return [arg.replace("{dir}", str(directory)) for arg in template]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CliOp(Op):
    """A `python -m logcentre` process; traced runs go through cli_child.py."""

    __slots__ = ("argv", "env")

    def __init__(self, group, argv, env, expected):
        code, sha = expected["exit"], expected["stdout_sha256"]
        super().__init__(
            f"cli-{group}", " ".join(argv), self._module_run,
            lambda out: out[0] == code and digest(out[1]) == sha,
        )
        self.argv = argv
        self.env = env

    def _spawn(self, *head):
        done = subprocess.run(
            [sys.executable, *head, *self.argv],
            env=self.env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False,
        )
        return done.returncode, done.stdout

    def _module_run(self):
        return self._spawn("-m", "logcentre")

    def run_traced(self, record_path: Path):
        return self._spawn(str(CHILD), str(record_path))


def _cli(rng, seed) -> Workload:
    SCRATCH.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="cli-", dir=SCRATCH))
    try:
        write_cli_documents(directory)
        env = child_env()
        pool = load_pins()["cli"]
        ops = []
        for group, count in CLI_PICKS.items():
            for entry in rng.sample([e for e in pool if e["group"] == group], count):
                ops.append(CliOp(group, cli_argv(entry["argv"], directory), env, entry))
        rng.shuffle(ops)
    except BaseException:
        shutil.rmtree(directory, ignore_errors=True)
        raise
    # Every op is a new process, so the same ops serve every pass.
    return Workload(lambda: ops, {"pool": len(pool)}, tmpdir=directory)
