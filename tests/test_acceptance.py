"""Acceptance gate: one test per shipped guarantee, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Every check is exact; the only tolerances are the wall-clock budgets stated
inline.
"""

import json
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

from logcentre.casestudies import francia_input_document, run_case_study
from logcentre.corpus import random_standard_pairs
from logcentre.errors import ResourceLimit
from logcentre.iodoc import serialize_document
from logcentre.ncpoly import (
    NCPoly,
    clifford_system,
    is_central,
    matrix_compose,
    verify_identity,
)
from logcentre.orders import cover_graded_valuations, discriminant
from logcentre.toric import (
    Lattice,
    canonical_check,
    canonical_functional,
    cover_correspondence_check,
    dual_cone_generators,
    klt_check,
    log_canonical_cover,
    pair_functional,
)
from logcentre.valmat import (
    centralizer,
    omega_power,
    radical_power,
    standard_order,
    tropical_mul,
)
from oracles import (
    dualizing_module,
    ideal_of,
    inflate,
    min_plus_mul,
    monomial_pow,
    pairing,
    t_scalar,
    valuations,
    y_matrix,
    y_power,
)


def _gate(num, desc, failures, elapsed=None, bound=None):
    if bound is not None and elapsed is not None and elapsed >= bound:
        failures.append(f"runtime {elapsed:.2f}s exceeded the {bound:.0f}s budget")
    status = "PASS" if not failures else "FAIL"
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"[{status}] acceptance {num}: {desc}{suffix}")
    assert not failures, failures


def _compositions(parts, total_max):
    """All tuples of `parts` positive integers with sum at most total_max."""
    if parts == 0:
        return [()]
    out = []
    for first in range(1, total_max - parts + 2):
        out.extend((first,) + rest for rest in _compositions(parts - 1, total_max - first))
    return out


def test_acceptance_1_centre_valuation_closed_form():
    failures = []
    start = time.monotonic()
    for e in range(1, 13):
        omega = dualizing_module(e)
        cumulative = standard_order(e)
        for i in range(61):
            if omega_power(e, i) != cumulative:
                failures.append(f"omega_power({e},{i}) differs from the product oracle")
            got = centralizer(omega_power(e, i))
            want = -(i * (e - 1) // e)
            if got != want:
                failures.append(f"centralizer(omega^{i}) for e={e}: {got} != {want}")
            cumulative = tropical_mul(cumulative, omega)
    elapsed = time.monotonic() - start
    _gate(
        1,
        "centre valuation of dualizing powers matches closed form and product oracle "
        "(e<=12, i<=60)",
        failures,
        elapsed,
        5.0,
    )


def test_acceptance_2_normal_element_identities():
    failures = []
    start = time.monotonic()
    for e in range(1, 13):
        order = valuations(standard_order(e))
        if monomial_pow(y_matrix(e), e) != t_scalar(e):
            failures.append(f"y^{e} != t*I for e={e}")
        y_ideal = ideal_of(y_power(e, 1))
        radical = valuations(radical_power(e, 1))
        if min_plus_mul(y_ideal, order) != radical:
            failures.append(f"y*order != radical for e={e}")
        if min_plus_mul(order, y_ideal) != radical:
            failures.append(f"order*y != radical for e={e}")
        if min_plus_mul(ideal_of(y_power(e, 1 - e)), order) != valuations(dualizing_module(e)):
            failures.append(f"y^(1-{e})*order != dualizing module for e={e}")
    elapsed = time.monotonic() - start
    _gate(
        2,
        "normal element generates the radical and the dualizing module (e<=12)",
        failures,
        elapsed,
        1.0,
    )


def test_acceptance_3_block_inflation_invariance():
    failures = []
    for e in range(1, 5):
        shapes = [blocks for blocks in _compositions(e, 8)]
        for i in range(21):
            for matrix in (omega_power(e, i), radical_power(e, i), radical_power(e, -i)):
                base = centralizer(matrix)
                for blocks in shapes:
                    got = centralizer(inflate(matrix, blocks))
                    if got != base:
                        failures.append(
                            f"e={e} i={i} blocks={blocks}: centre moved {base} -> {got}"
                        )
    _gate(
        3,
        "centre valuations survive every block inflation of total size <= 8 "
        "(e<=4, i<=20)",
        failures,
    )


def test_acceptance_4_graded_cover_matches_matrix_model():
    failures = []
    for e in range(1, 13):
        values = cover_graded_valuations(e, e)
        coeff = Fraction(e - 1, e)
        for i, value in enumerate(values):
            matrix_value = centralizer(omega_power(e, i))
            divisor_value = -math.floor(i * coeff)
            if not (value == matrix_value == divisor_value):
                failures.append(
                    f"e={e} i={i}: graded {value}, matrix {matrix_value}, "
                    f"divisor {divisor_value}"
                )
    _gate(
        4,
        "graded cover valuations agree with matrix centres and rounded boundary "
        "multiples (e<=12, m=e)",
        failures,
    )


def test_acceptance_5_francia_case_study():
    failures = []
    start = time.monotonic()
    report = run_case_study("francia")
    if not report.overall:
        failures.extend(f"check failed: {c.check_id}" for c in report.checks if not c.passed)

    pair = francia_input_document().objects["base"]
    cone = pair.cone
    if canonical_functional(cone) is not None:
        failures.append("canonical divisor unexpectedly Q-Cartier")
    u = pair_functional(pair)
    if u != ((0, 0, 1), 2):
        failures.append(f"pair functional {u}")
    if u is not None and u[1] != 2:
        failures.append("pair index is not 2")
    if klt_check(pair).is_klt is not True:
        failures.append("pair is not klt")

    cover = log_canonical_cover(pair)
    if cover.degree != 2:
        failures.append(f"cover degree {cover.degree}")
    if not cover.cover_lattice.same_lattice(Lattice.standard(3)):
        failures.append("cover lattice is not the standard integer lattice")
    if cover.cover_cone.rays != ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)):
        failures.append(f"cover rays {cover.cover_cone.rays}")
    if canonical_check(cover.cover_cone) is not True:
        failures.append("cover is not canonical")
    uc = canonical_functional(cover.cover_cone)
    if uc is None or uc[1] != 1:
        failures.append("cover canonical class is not Cartier")
    elif any(pairing(uc[0], ray) != 1 for ray in cover.cover_cone.rays):
        failures.append("cover is not Gorenstein: some ray pairing differs from 1")

    counts = (len(dual_cone_generators(cone)), len(dual_cone_generators(cover.cover_cone)))
    if counts != (5, 4):
        failures.append(f"dual generator counts {counts}")
    elapsed = time.monotonic() - start
    _gate(
        5,
        "flip-type surface-in-threefold case study reproduces every pinned verdict",
        failures,
        elapsed,
        1.0,
    )


def test_acceptance_6_corpus_correspondence():
    failures = []
    start = time.monotonic()
    pairs = random_standard_pairs(seed=20260814, count=70)
    checked = 0
    for k, pair in enumerate(pairs):
        try:
            agreed = cover_correspondence_check(pair)
        except ResourceLimit:
            continue
        checked += 1
        if agreed is not True:
            failures.append(f"pair {k} ({pair.cone.rays}): klt and cover verdicts differ")
    if checked < 50:
        failures.append(f"only {checked} pairs checked, need at least 50")
    elapsed = time.monotonic() - start
    _gate(
        6,
        f"klt downstairs equals canonical on the index-one cover across {checked} "
        "generated pairs",
        failures,
        elapsed,
        30.0,
    )


def test_acceptance_7_clifford_case_study():
    failures = []
    start = time.monotonic()
    report = run_case_study("clifford")
    if not report.overall:
        failures.extend(f"check failed: {c.check_id}" for c in report.checks if not c.passed)

    system = clifford_system()
    a, b, c = (NCPoly.generator(x) for x in "abc")
    x, y, z, t = a * a, b * b, a * b + b * a, c * c
    if not verify_identity((a * b - b * a) ** 2, 4 * c**6, system):
        failures.append("commutator square identity fails")
    if not verify_identity(z * z - 4 * x * y, 4 * t**3, system):
        failures.append("centre relation fails")
    for name, elt in (("x", x), ("y", y), ("z", z), ("t", t)):
        if not is_central(elt, system):
            failures.append(f"{name} is not central")

    mat = (
        (-c, NCPoly.zero(), -a),
        (NCPoly.zero(), c, b),
        (-b, a, -2 * c**2),
    )
    zero_row = ((NCPoly.zero(),) * 3,)
    zero_col = ((NCPoly.zero(),),) * 3
    if matrix_compose(((b, a, c),), mat, system) != zero_row:
        failures.append("left resolution composition is nonzero")
    if matrix_compose(mat, ((a,), (b,), (c,)), system) != zero_col:
        failures.append("right resolution composition is nonzero")

    from logcentre.casestudies import clifford_input_document

    spec = clifford_input_document().objects["clifford-order"]
    if str(discriminant(spec)) != "1/2*B":
        failures.append(f"discriminant {discriminant(spec)}")
    elapsed = time.monotonic() - start
    _gate(
        7,
        "quadric-cone algebra case study: centre relations, resolution compositions, "
        "discriminant",
        failures,
        elapsed,
        1.0,
    )


def _cli_bytes(args):
    # The child imports the package from this checkout, as the tests do.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "logcentre", *args],
        capture_output=True,
        check=False,
        env=env,
    )
    return proc.returncode, proc.stdout


def test_acceptance_8_byte_determinism(tmp_path):
    failures = []
    commands = [
        ("examples", "run", "francia"),
        ("examples", "run", "clifford"),
        ("examples", "run", "francia", "--format", "json"),
        ("examples", "run", "clifford", "--format", "json"),
    ]

    reference = {}
    for cmd in commands:
        code1, out1 = _cli_bytes(cmd)
        code2, out2 = _cli_bytes(cmd)
        if code1 != 0 or code2 != 0:
            failures.append(f"{' '.join(cmd)}: nonzero exit ({code1}, {code2})")
        if out1 != out2:
            failures.append(f"{' '.join(cmd)}: repeated runs differ")
        reference[cmd] = out1

    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(_cli_bytes, commands * 2))
    for cmd, (code, out) in zip(commands * 2, concurrent):
        if code != 0 or out != reference[cmd]:
            failures.append(f"{' '.join(cmd)}: concurrent run diverged")

    doc = tmp_path / "francia.json"
    doc.write_text(serialize_document(francia_input_document()))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (out_a, out_b):
        code, _ = _cli_bytes(("toric", "klt", f"{doc}#base", "--out", str(target)))
        if code != 0:
            failures.append("klt --out run failed")
    if out_a.read_bytes() != out_b.read_bytes():
        failures.append("--out files differ between runs")
    if json.loads(out_a.read_text())["klt"] is not True:
        failures.append("--out payload lost the verdict")

    _gate(
        8,
        "case study reports are byte-identical across repeats and concurrent "
        "invocations",
        failures,
    )
