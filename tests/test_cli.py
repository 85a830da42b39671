import ast
import json
import os
import random
import re
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

from logcentre import cli, ncpoly
from logcentre.casestudies import francia_input_document
from logcentre.cli import main
from logcentre.errors import InputError, InternalError, LogCentreError, NotApplicable, ResourceLimit
from logcentre.iodoc import serialize_document
from logcentre.numerals import write
from logcentre.orders import MAX_GRADING_LENGTH
from logcentre.valmat import MAX_RAMIFICATION_INDEX

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


@pytest.fixture
def francia_doc(tmp_path):
    path = tmp_path / "francia.json"
    path.write_text(serialize_document(francia_input_document()))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# order group


def test_omega_center(capsys):
    code, out, _ = _run(capsys, "order", "omega-center", "--e", "3", "--i", "1")
    assert (code, out) == (0, "0\n")
    code, out, _ = _run(capsys, "order", "omega-center", "--e", "3", "--i", "2")
    assert (code, out) == (0, "-1\n")


def test_omega_center_index_limit(capsys):
    code, out, err = _run(
        capsys, "order", "omega-center", "--e", str(MAX_RAMIFICATION_INDEX + 1), "--i", "1"
    )
    assert (code, out) == (4, "")
    assert err == (
        f"error: ramification index {MAX_RAMIFICATION_INDEX + 1}, above the limit "
        f"MAX_RAMIFICATION_INDEX = {MAX_RAMIFICATION_INDEX}\n"
    )
    code, _, _ = _run(
        capsys, "order", "omega-center", "--e", str(MAX_RAMIFICATION_INDEX), "--i", "1"
    )
    assert code == 0


def test_cover_center(capsys):
    code, out, _ = _run(capsys, "order", "cover-center", "--e", "3", "--m", "3")
    assert (code, out) == (0, "0 0 -1\n")


def test_cover_center_grading_limit(capsys):
    big = MAX_GRADING_LENGTH + 1
    code, out, err = _run(capsys, "order", "cover-center", "--e", "3", "--m", str(big))
    assert (code, out) == (4, "")
    assert err == (
        f"error: grading length {big}, above the limit MAX_GRADING_LENGTH = {MAX_GRADING_LENGTH}\n"
    )


def test_discriminant(capsys, francia_doc):
    code, out, _ = _run(capsys, "order", "discriminant", francia_doc)
    assert (code, out) == (0, "1/2*D_rho\n")


# toric group


def test_klt_text(capsys, francia_doc):
    code, out, _ = _run(capsys, "toric", "klt", francia_doc + "#base")
    assert (code, out) == (0, "klt=true u=(0,0,1/2) index=2\n")


def test_qcartier_canonical_fails(capsys, francia_doc):
    code, out, _ = _run(capsys, "toric", "qcartier", francia_doc + "#base", "--divisor", "K")
    assert (code, out) == (3, "none\n")


def test_qcartier_pair(capsys, francia_doc):
    code, out, _ = _run(capsys, "toric", "qcartier", francia_doc + "#base")
    assert (code, out) == (0, "u=(0,0,1/2)\n")


def test_qcartier_explicit_coefficients(capsys, francia_doc):
    code, out, _ = _run(
        capsys, "toric", "qcartier", francia_doc + "#base", "--divisor=-1/2,-1,-1,-1"
    )
    assert (code, out) == (0, "u=(0,0,1/2)\n")


def test_index(capsys, francia_doc):
    code, out, _ = _run(capsys, "toric", "index", francia_doc + "#base")
    assert (code, out) == (0, "2\n")


def test_canonical_on_cover(capsys, francia_doc):
    code, out, _ = _run(capsys, "toric", "canonical", francia_doc + "#cover")
    assert (code, out) == (0, "canonical=true u=(0,0,1) index=1\n")


def test_canonical_not_applicable(capsys, francia_doc):
    code, out, err = _run(capsys, "toric", "canonical", francia_doc + "#base")
    assert code == 3
    assert out == ""
    assert "not applicable" in err


def test_cover_text(capsys, francia_doc):
    code, out, _ = _run(capsys, "toric", "cover", francia_doc + "#base")
    assert code == 0
    assert out == (
        "degree=2\n"
        "lattice=(1,0,0);(0,1,0);(0,0,1)\n"
        "rays=(0,0,1);(0,1,1);(1,0,1);(1,1,1)\n"
    )


def test_dual_gens(capsys, francia_doc):
    code, out, _ = _run(capsys, "toric", "dual-gens", francia_doc + "#base")
    assert code == 0
    assert out.splitlines()[0] == "5 generators"
    assert "-1 -1 1" in out.splitlines()


def test_dual_gens_names_the_dual_cone_ray_at_the_limit(capsys, tmp_path):
    # The given rays are within MAX_RAY_COORD = 100; a facet normal is not.
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({"version": "1", "objects": {"skew": {
        "type": "cone_pair", "rays": [[100, 1, 0], [0, 100, 1], [1, 0, 100]]}}}))
    code, out, err = _run(capsys, "toric", "dual-gens", str(path))
    assert (code, out) == (4, "")
    assert err == (
        "error: dual cone ray (-100, 10000, 1) has a coordinate of 10000, "
        "above the limit MAX_RAY_COORD = 100\n"
    )


def test_cover_rays_are_not_held_to_the_coordinate_limit(capsys, tmp_path):
    # The given rays are within MAX_RAY_COORD = 100; the cover ray (102, 1) is
    # an answer, not an input, so it is printed.
    path = _write_cone_pair(tmp_path, {"rays": [[1, 0], [34, 1]], "boundary": [0, "2/3"]})
    code, out, err = _run(capsys, "toric", "cover", path)
    assert (code, err) == (0, "")
    assert "rays=(1,0);(102,1)\n" in out


def test_dual_gens_does_not_enumerate_the_dual_facets(capsys, tmp_path, monkeypatch):
    # The dual of the 28-ray paraboloid cone has 33 rays, whose facets would
    # take 180,048 pairings; the dual is given them (the cone's rays) instead.
    from logcentre import toric

    points = sorted(product(range(-9, 10), repeat=2), key=lambda p: (p[0] ** 2 + p[1] ** 2, p))
    rays = [[a, b, a * a + b * b, 1] for a, b in points[:28]]
    code, out, err = _run(capsys, "toric", "dual-gens", _write_cone_pair(tmp_path, {"rays": rays}))
    assert (code, err) == (0, "")
    cone = toric.Cone.from_rays(rays)
    assert len(cone.facets) == 33
    monkeypatch.setattr(toric, "MAX_FACET_PAIRINGS", 10**6)
    enumerated = toric.hilbert_basis(toric.Cone(cone.lattice.dual(), cone.facets))
    assert out.splitlines() == [
        f"{len(enumerated)} generators", *(" ".join(map(write, g)) for g in enumerated)
    ]
    assert len(enumerated) == 131


def test_toric_names_a_document_ray_as_given_at_the_limit(capsys, tmp_path):
    # The limit applies to the primitive form (101, 1) of the document's ray
    # [202, 2], and the refusal names both; [200, 100] is (2, 1) and builds.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"version": "1", "objects": {"wide": {
        "type": "cone_pair", "rays": [[1, 0], [202, 2]]}}}))
    code, out, err = _run(capsys, "toric", "klt", str(path))
    assert (code, out) == (4, "")
    assert err == (
        "error: ray (202, 2), whose primitive form (101, 1) has a coordinate of 101, "
        "above the limit MAX_RAY_COORD = 100\n"
    )
    path.write_text(json.dumps({"version": "1", "objects": {"wide": {
        "type": "cone_pair", "rays": [[1, 0], [200, 100]]}}}))
    assert _run(capsys, "toric", "klt", str(path))[0] == 0


def test_json_format(capsys, francia_doc):
    code, out, _ = _run(capsys, "toric", "klt", francia_doc + "#base", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"klt": True, "functional": [0, 0, "1/2"], "index": 2}


def test_klt_without_a_functional(capsys, tmp_path):
    # The francia base cone with no boundary: K is not Q-Cartier, so no u exists.
    data = json.loads(serialize_document(francia_input_document()))
    spec = data["objects"]["base"]
    del spec["boundary"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"version": "1", "objects": {"bare": spec}}))
    assert _run(capsys, "toric", "klt", str(path))[:2] == (3, "klt=false u=none\n")
    code, out, _ = _run(capsys, "toric", "klt", str(path), "--format", "json")
    assert (code, json.loads(out)) == (3, {"klt": False, "functional": None, "index": None})


def test_out_file(capsys, tmp_path, francia_doc):
    target = tmp_path / "result.json"
    code, out, _ = _run(capsys, "toric", "index", francia_doc + "#base", "--out", str(target))
    assert code == 0
    assert out == "2\n"
    assert json.loads(target.read_text()) == {"divisor": "K+D", "index": 2}
    assert target.read_text().endswith("\n")


def test_out_to_unwritable_path_exit_code(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = _run(
        capsys, "order", "omega-center", "--e", "2", "--i", "1", "--out", str(target)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert "Traceback" not in err and not target.exists()


# ncpoly group


def test_nf(capsys):
    code, out, _ = _run(capsys, "ncpoly", "nf", "b*a")
    assert (code, out) == (0, "a*b - 2*c^3\n")


def test_central(capsys):
    code, out, _ = _run(capsys, "ncpoly", "central", "a^2 + c^2")
    assert (code, out) == (0, "central=true\n")
    code, out, _ = _run(capsys, "ncpoly", "central", "c")
    assert (code, out) == (3, "central=false\n")


def test_identity(capsys):
    code, out, _ = _run(capsys, "ncpoly", "identity", "(a*b - b*a)^2", "4*c^6")
    assert (code, out) == (0, "identity=true\n")


def test_quotient_check(capsys):
    code, out, _ = _run(capsys, "ncpoly", "quotient-check", "francia-algebra")
    assert (code, out) == (0, "consistent=true\n")


def test_system_from_document(capsys, tmp_path):
    from logcentre.casestudies import clifford_input_document

    path = tmp_path / "systems.json"
    path.write_text(serialize_document(clifford_input_document()))
    code, out, _ = _run(
        capsys, "ncpoly", "nf", "b*a", "--system", f"{path}#clifford-algebra"
    )
    assert (code, out) == (0, "a*b - 2*c^3\n")


# examples group


def test_examples_run_text(capsys):
    code, out, _ = _run(capsys, "examples", "run", "francia")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "case study: francia"
    assert lines[-1] == "overall: pass"
    assert all(line.startswith("  [ok]") for line in lines[1:-1])


def test_examples_run_json(capsys):
    code, out, _ = _run(capsys, "examples", "run", "clifford", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "clifford"
    assert data["overall"] is True
    assert all(check["passed"] for check in data["checks"])


def test_examples_input_round_trips(capsys, tmp_path):
    code, out, _ = _run(capsys, "examples", "input", "francia")
    assert code == 0
    path = tmp_path / "doc.json"
    path.write_text(out)
    code, out2, _ = _run(capsys, "toric", "klt", f"{path}#base")
    assert (code, out2) == (0, "klt=true u=(0,0,1/2) index=2\n")


def test_examples_unknown_name(capsys):
    code, _, err = _run(capsys, "examples", "run", "mystery")
    assert code == 2
    assert "error" in err


# failure routing


def test_missing_file(capsys):
    code, _, err = _run(capsys, "toric", "klt", "/no/such/file.json")
    assert code == 2
    assert "error" in err


def test_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = _run(capsys, "toric", "klt", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: not UTF-8 text ")


def test_deeply_nested_document_exit_code(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = _run(capsys, "toric", "klt", str(path))
    assert (code, out) == (2, "")
    assert err == "error: invalid JSON: arrays or objects nest too deep\n"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_reader_closing_the_pipe_early_is_quiet(unbuffered):
    # About 108 KB of JSON: more than a pipe holds, so the write meets the
    # closed pipe after one byte is read.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = ["order", "cover-center", "--e", "7", "--m", "10000", "--format", "json"]
    with subprocess.Popen(
        [sys.executable, "-m", "logcentre", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env, cwd=ROOT,
    ) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert (proc.returncode, err) == (0, "")


@pytest.mark.parametrize(
    "argv, code",
    [(["toric", "klt", "/no/such.json"], 2), (["toric", "canonical", "{doc}#base"], 3)],
    ids=["bad-input", "not-applicable"],
)
def test_closed_stderr_keeps_the_exit_code(argv, code, francia_doc):
    # The error line meets a pipe with no reader; the command still exits with
    # its error's code, not 1 for an uncaught BrokenPipeError.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "logcentre", *(arg.format(doc=francia_doc) for arg in argv)],
            stdout=subprocess.PIPE, stderr=write_end, env=env, cwd=ROOT, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stdout) == (code, b"")


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (InputError, 2, "error"),
        (NotApplicable, 3, "not applicable"),
        (ResourceLimit, 4, "error"),
        (InternalError, 5, "error"),
        (LogCentreError, 2, "error"),
        (ValueError, 2, "error"),
    ],
    ids=lambda value: value.__name__ if isinstance(value, type) else str(value),
)
def test_exit_code_of_each_error_class(capsys, monkeypatch, error, code, prefix):
    def refuse(poly, system):
        raise error("refused")

    monkeypatch.setattr(ncpoly, "normal_form", refuse)
    assert _run(capsys, "ncpoly", "nf", "a") == (code, "", f"{prefix}: refused\n")


def test_misspelled_builtin_system_names_the_builtins(capsys):
    code, out, err = _run(capsys, "ncpoly", "nf", "a", "--system", "quantum")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read quantum: ")
    assert err.endswith(" (builtin systems: clifford)\n")


def test_wrong_object_type(capsys, francia_doc):
    code, _, err = _run(capsys, "order", "discriminant", francia_doc + "#base")
    assert code == 2
    assert "error" in err


def test_unknown_generator(capsys):
    code, _, err = _run(capsys, "ncpoly", "nf", "x*y")
    assert code == 2
    assert "error" in err


def test_zero_denominator_exit_code(capsys, tmp_path):
    code, out, err = _run(capsys, "ncpoly", "nf", "1/0")
    assert (code, out) == (2, "")
    assert err == "error: division by zero in '1/0'\n"
    doc = {
        "version": "1",
        "objects": {"sys": {"type": "presentation", "generators": ["a", "b"],
                            "rules": [{"lhs": "b*a", "rhs": "1/0*a*b"}]}},
    }
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "ncpoly", "nf", "a", "--system", str(path))
    assert (code, out) == (2, "")
    assert err == "error: sys: rule rhs '1/0*a*b': division by zero in '1/0'\n"


def test_trailing_operator_exit_code(capsys):
    code, out, err = _run(capsys, "ncpoly", "nf", "a +")
    assert (code, out) == (2, "")
    assert err == "error: unexpected end of expression\n"


@pytest.mark.parametrize("sign", ["-", "+"])
def test_sign_after_operator_exit_code(capsys, sign):
    # A sign may open a term but not a factor: a*-b is refused as an
    # operator, not looked up as a generator.
    code, out, err = _run(capsys, "ncpoly", "nf", f"a*{sign}b")
    assert (code, out) == (2, "")
    assert err == f"error: unexpected token '{sign}'\n"


def test_unresolved_system_exit_code(capsys, tmp_path):
    # z*w = x*v holds in the algebra but both sides are irreducible: an
    # answer would be a wrong "no", so the system is refused as input.
    doc = {
        "version": "1",
        "objects": {"sys": {"type": "presentation", "generators": ["v", "w", "x", "y", "z"],
                            "rules": [{"lhs": "x*y", "rhs": "z"}, {"lhs": "y*w", "rhs": "v"}]}},
    }
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "ncpoly", "identity", "z*w", "x*v", "--system", f"{path}#sys")
    assert (code, out) == (2, "")
    assert err == "error: sys: rules x*y -> z and y*w -> v do not resolve on x*y*w\n"


def test_nesting_depth_exit_code(capsys):
    code, out, err = _run(capsys, "ncpoly", "nf", "(" * 1200 + "a" + ")" * 1200)
    assert (code, out) == (4, "")
    assert "nest 1200 deep" in err and "MAX_NESTING_DEPTH" in err


def test_parse_work_exit_code(capsys):
    for expr in ("a^1000000", "(a+b+c)^12"):
        code, out, err = _run(capsys, "ncpoly", "nf", expr)
        assert (code, out) == (4, "")
        assert "MAX_PARSE_WORK" in err and "at least" in err
    code, out, _ = _run(capsys, "ncpoly", "nf", "a^40000")
    assert (code, out) == (0, "a^40000\n")


def test_constant_power_exit_code(capsys):
    # Coefficient bits past one word are charged, so the squarings of a huge
    # constant power are refused before they take minutes.
    start = time.perf_counter()
    code, out, err = _run(capsys, "ncpoly", "nf", "3^100000000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert "MAX_PARSE_WORK" in err and "at least" in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python writes integers of any length"
)
def test_unprintable_coefficient_exit_code(capsys, tmp_path):
    # An answer Python cannot write is a resource limit, not bad input.
    doc = {
        "version": "1",
        "objects": {"plane": {"type": "presentation", "generators": ["x", "y"],
                              "rules": [{"lhs": "y*x", "rhs": "2*x*y"}]}},
    }
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc))
    limit = sys.get_int_max_str_digits()
    for expr, system, digits in (("3^100000", "clifford", 47713), ("y^120*x^120", path, 4335)):
        code, out, err = _run(capsys, "ncpoly", "nf", expr, "--system", str(system))
        assert (code, out) == (4, "")
        assert err == (
            f"error: a coefficient has {digits} digits, above the limit "
            f"sys.get_int_max_str_digits() = {limit}\n"
        )
    code, out, _ = _run(capsys, "ncpoly", "nf", "y^110*x^110", "--system", str(path))
    assert code == 0 and out.endswith("*x^110*y^110\n")


def test_answer_too_long_to_write_exit_code(capsys, tmp_path):
    # u = (-1/p, 2/(pq)) and its index pq, of 8001 digits: past what Python writes.
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"version": "1", "objects": {"pair": {
        "type": "cone_pair", "rays": [[1, 0], [1, 1]]}}}))
    p, q = 10**4000 + 1, 10**4000 + 3
    limit = sys.get_int_max_str_digits()
    for command in ("qcartier", "index"):
        for fmt in ("text", "json"):
            code, out, err = _run(capsys, "toric", command, str(path),
                                  "--divisor", f"1/{p},1/{q}", "--format", fmt)
            assert (code, out) == (4, ""), (command, fmt)
            assert err == (
                f"error: a coefficient has 8001 digits, above the limit "
                f"sys.get_int_max_str_digits() = {limit}\n"
            )


def test_digit_count_of_a_number_too_long_to_write():
    # The count is estimated from the bit length, then corrected by one power of ten.
    limit = sys.get_int_max_str_digits()
    for value, digits in ((10**4300, 4301), (10**5000 - 1, 5000)):
        with pytest.raises(ResourceLimit) as caught:
            write(value)
        assert str(caught.value) == (
            f"a coefficient has {digits} digits, above the limit "
            f"sys.get_int_max_str_digits() = {limit}"
        )


def test_divisor_of_wrong_length_names_both_counts(capsys, francia_doc):
    for command in ("qcartier", "index"):
        code, out, err = _run(capsys, "toric", command, francia_doc + "#base", "--divisor", "0,0,0")
        assert (code, out) == (2, "")
        assert "3 coefficients" in err and "4 rays" in err


def test_long_integer_literal_exit_code(capsys):
    # Python refuses to read more than a few thousand digits; that is bad input.
    for expr in ("9" * 5000 + "*a", "a*1/" + "7" * 5000):
        code, out, err = _run(capsys, "ncpoly", "nf", expr)
        assert (code, out) == (2, "")
        assert "integer literal of 5000 digits is too long" in err
        assert "sys." not in err and "set_int_max_str_digits" not in err
    code, out, _ = _run(capsys, "ncpoly", "nf", "9" * 4000 + "*a")
    assert (code, out) == (0, "9" * 4000 + "*a\n")


def test_long_integer_in_document_exit_code(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(
        '{"version": "1", "objects": {"pair": {"type": "cone_pair",'
        f' "rays": [[1, 0], [-{"3" * 5000}, 1]], "boundary": [0, 0]}}}}}}'
    )
    code, out, err = _run(capsys, "toric", "klt", str(path))
    assert (code, out) == (2, "")
    assert "integer literal of 5000 digits is too long" in err
    assert "sys." not in err and "set_int_max_str_digits" not in err


def test_long_rational_in_document_is_not_echoed(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(
        '{"version": "1", "objects": {"pair": {"type": "cone_pair",'
        f' "rays": [[1, 0], [0, 1]], "boundary": [0, "1/{"7" * 5000}"]}}}}}}'
    )
    code, out, err = _run(capsys, "toric", "klt", str(path))
    assert (code, out) == (2, "")
    assert err == "error: pair.boundary: bad rational '1/777777777777777777'... (5002 characters)\n"


def test_long_divisor_spec_is_not_echoed(capsys, francia_doc):
    spec = "1/" + "7" * 5000 + ",0,0,0"
    code, out, err = _run(capsys, "toric", "qcartier", francia_doc + "#base", "--divisor", spec)
    assert (code, out) == (2, "")
    assert err == "error: bad divisor spec '1/777777777777777777'... (5008 characters)\n"
    code, _, err = _run(capsys, "toric", "qcartier", francia_doc + "#base", "--divisor", "1/x")
    assert (code, err) == (2, "error: bad divisor spec '1/x'\n")


@pytest.mark.parametrize("text", ["0.5", "1e-3", "1e-20000", "1e-3000000"])
def test_decimal_and_exponent_rationals_are_refused(capsys, tmp_path, francia_doc, text):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"version": "1", "objects": {"pair": {
        "type": "cone_pair", "rays": [[1, 0], [0, 1]], "boundary": [text, 0]}}}))
    code, out, err = _run(capsys, "toric", "klt", str(path))
    assert (code, out, err) == (2, "", f"error: pair.boundary: bad rational {text!r}\n")
    spec = f"{text},0,0,0"
    code, out, err = _run(capsys, "toric", "index", francia_doc + "#base", "--divisor", spec)
    assert (code, out, err) == (2, "", f"error: bad divisor spec {spec!r}\n")
    assert "set_int_max_str_digits" not in err


def test_divisor_spec_accepts_signs_and_spaces(capsys, francia_doc):
    code, out, _ = _run(capsys, "toric", "index", francia_doc + "#base",
                        "--divisor", " -1/2 ,-1, -1,-1 ")
    assert (code, out) == (0, "2\n")
    code, out, _ = _run(capsys, "toric", "qcartier", francia_doc + "#base",
                        "--divisor", "1/2,+0,0,-3")
    assert (code, out) == (3, "none\n")


def test_no_arguments(capsys):
    assert _run(capsys)[0] == 2


def test_resource_limit_exit_code(capsys, tmp_path):
    rays = [[int(i == j) for j in range(5)] for i in range(5)]
    doc = {
        "version": "1",
        "objects": {"big": {"type": "cone_pair", "rays": rays, "boundary": [0] * 5}},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "toric", "klt", str(path))
    assert code == 4
    assert "error" in err


def _write_cone_pair(tmp_path, spec):
    path = tmp_path / "pair.json"
    doc = {"version": "1", "objects": {"pair": {"type": "cone_pair", **spec}}}
    path.write_text(json.dumps(doc))
    return str(path)


def test_dense_lattice_exit_code(capsys, tmp_path):
    # The 12x12 lattice is refused for its dimension before its determinant is
    # taken; a cofactor expansion of it would take about half an hour.
    rng = random.Random(12)
    lattice = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)]
    rays = [[int(i == j) for j in range(12)] for i in range(12)]
    path = _write_cone_pair(tmp_path, {"lattice": lattice, "rays": rays, "boundary": [0] * 12})
    code, out, err = _run(capsys, "toric", "klt", path)
    assert (code, out) == (4, "")
    assert "dimension 12" in err and "MAX_DIM = 4" in err


def test_facet_pairings_exit_code(capsys, tmp_path):
    # 30 rays in dimension 4 need C(30, 3) * 30 = 121,800 subset-ray pairings.
    rays = [[k, 1, 0, 0] for k in range(30)]
    path = _write_cone_pair(tmp_path, {"rays": rays, "boundary": [0] * 30})
    code, out, err = _run(capsys, "toric", "klt", path)
    assert (code, out) == (4, "")
    assert "need 121800 facet pairings" in err and "MAX_FACET_PAIRINGS" in err


def test_step_cap_exit_code(capsys, monkeypatch):
    # Building the Clifford system takes 2 steps and c*b*a needs 3, so the cap
    # trips in the query itself: the same cap lets the query a through.
    monkeypatch.setattr(ncpoly, "MAX_REWRITE_STEPS", 2)
    code, _, err = _run(capsys, "ncpoly", "nf", "c*b*a")
    assert code == 4
    assert "at least 3 distinct rewrites" in err and "MAX_REWRITE_STEPS = 2" in err
    code, out, _ = _run(capsys, "ncpoly", "nf", "a")
    assert code == 0
    assert out.strip() == "a"


def test_internal_invariant_exit_code(capsys, monkeypatch, francia_doc):
    # A sublattice of twice the index trips the cover's postcondition: a bug, not bad input.
    from logcentre import linalg

    basis = linalg.congruence_basis

    def doubled_first_column(w, m):
        first, *rest = basis(w, m)
        return [tuple(2 * x for x in first), *rest]

    monkeypatch.setattr(linalg, "congruence_basis", doubled_first_column)
    code, out, err = _run(capsys, "toric", "cover", francia_doc + "#base")
    assert code == 5
    assert out == ""
    assert "internal invariant violated" in err


def _synopsis(text):
    """(group, [command, ...]) for each line like ``logcentre order a | b | c``."""
    lines = [line.split() for line in text.splitlines() if " | " in line]
    return [
        (words[1], " ".join(words[2:]).split(" | "))
        for words in lines
        if words[0] == "logcentre"
    ]


def test_synopsis_matches_command_table():
    table = [(group, list(commands)) for group, (_, commands) in cli.COMMANDS.items()]
    assert _synopsis(cli.__doc__) == table
    assert _synopsis(README.read_text(encoding="utf-8")) == table


def _limit_constants(source):
    """Names of the MAX_* constants that a module assigns at top level."""
    return {
        target.id
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("MAX_")
    }


def test_readme_names_every_limit_constant():
    defined = set()
    for path in (ROOT / "src" / "logcentre").glob("*.py"):
        defined |= _limit_constants(path.read_text(encoding="utf-8"))
    named = set(re.findall(r"\bMAX_[A-Z_]+\b", README.read_text(encoding="utf-8")))
    assert named == defined


def test_module_entry_point():
    import logcentre.__main__  # noqa: F401  (import must not execute main)


# import footprint: each process loads only the modules its command runs

_FOOTPRINT = """
import contextlib, io, json, sys
from logcentre import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("logcentre"))))
"""


def _fresh(code, *argv):
    """The JSON that `code` prints last, run in a new interpreter on src alone."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, check=True, env=env, cwd=ROOT,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded(*argv):
    return _fresh(_FOOTPRINT, *argv)


@pytest.mark.parametrize("argv, modules", [
    (("order", "omega-center", "--e", "3", "--i", "2"), ["records", "valmat"]),
    (("order", "cover-center", "--e", "3", "--m", "6"), ["numerals", "orders", "records"]),
    (("ncpoly", "nf", "b*a"), ["ncpoly", "numerals", "records"]),
    (("--help",), []),
    (("toric", "--help"), []),
], ids=["omega-center", "cover-center", "nf-builtin", "help", "group-help"])
def test_command_loads_only_what_it_runs(argv, modules):
    expected = ["logcentre", "logcentre.cli", "logcentre.errors"]
    assert _loaded(*argv) == sorted(expected + [f"logcentre.{m}" for m in modules])


def test_toric_command_skips_the_other_layers(francia_doc):
    loaded = _loaded("toric", "klt", francia_doc + "#base")
    assert "logcentre.toric" in loaded and "logcentre.iodoc" in loaded
    assert not {"logcentre.casestudies", "logcentre.corpus", "logcentre.valmat",
                "logcentre.ncpoly"} & set(loaded)


_EVERY_GROUP = """
import contextlib, io, json, sys
from logcentre import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps([codes, sorted({"dataclasses", "inspect"} & set(sys.modules))]))
"""


def test_no_command_group_loads_dataclasses_or_inspect(francia_doc):
    # The value classes share one slotted base (logcentre.records), so a
    # process pays for neither module; one interpreter runs each group once.
    runs = [
        ["order", "omega-center", "--e", "3", "--i", "2"],
        ["toric", "klt", francia_doc + "#base"],
        ["ncpoly", "nf", "b*a"],
        ["examples", "run", "francia"],
    ]
    assert _fresh(_EVERY_GROUP, json.dumps(runs)) == [[0, 0, 0, 0], []]


def test_package_import_loads_no_module_and_star_binds_all():
    bare = _fresh(
        "import json, sys; import logcentre; "
        "print(json.dumps(sorted(n for n in sys.modules if n.startswith('logcentre'))))"
    )
    assert bare == ["logcentre"]
    star = _fresh(
        "import json; from logcentre import *; "
        "print(json.dumps(sorted(n for n, v in globals().items() "
        "if getattr(v, '__name__', '').startswith('logcentre.'))))"
    )
    assert star == ["casestudies", "corpus", "errors", "iodoc", "linalg", "ncpoly",
                    "numerals", "orders", "toric", "valmat"]
