"""Command line front end.

Four command groups mirror the library layout::

    logcentre order    omega-center | cover-center | discriminant
    logcentre toric    qcartier | index | klt | canonical | cover | dual-gens
    logcentre ncpoly   nf | central | identity | quotient-check
    logcentre examples run | input

``COMMANDS`` is the one source of these names: each group maps to its help
and its commands, each command to its help, handler and arguments, and
``build_parser`` builds every parser level from it. A handler returns the
exit code, the JSON result and the text rendering.

File arguments take the form ``PATH`` or ``PATH#name`` where ``name`` picks
one object out of a document; without a name the unique object of the
expected type is used. Every leaf command accepts ``--format text|json`` for
stdout and ``--out PATH`` to additionally write the JSON result; a PATH that
cannot be written is bad usage, and nothing goes to stdout then.

Exit codes: 0 success, 2 bad usage or bad input, 3 negative verdict (the test
ran and answered no, or did not apply), 4 resource limit hit, 5 internal
invariant violated (a bug in logcentre, not in the input), each read from the
error class's ``exit_code``. One writer, ``_write``, serves stdout and stderr.
A toric answer writes its numbers with ``numerals.write``: one too long to
write is a resource limit.

Each handler imports the library module it runs when it runs, so a process
loads, and compiles, only what its command needs; ``--help`` loads none. The
value classes of those modules derive from ``records.Record``, so no module
imports ``dataclasses`` (and with it ``inspect``) or ``typing``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InputError, LogCentreError, NotApplicable


def _fmt_functional(u) -> str:
    from .numerals import write

    return "(" + ",".join(map(write, u)) + ")"


def _functional_json(u):
    from .iodoc import rational_to_json

    return None if u is None else [rational_to_json(x) for x in u]


def _verdict(name: str, verdict: bool, result: dict):
    """Exit code, JSON result and text of a yes/no answer: 0 for yes, 3 for no."""
    return (0 if verdict else 3), {**result, name: verdict}, f"{name}={str(verdict).lower()}"


def _with_functional(name: str, verdict: bool, solved):
    """_verdict, then the functional u = w/m of solved = (w, m) and its index m, or none."""
    from .numerals import write
    from .toric import as_fractions

    code, result, text = _verdict(name, verdict, {})
    if solved is None:
        return code, {**result, "functional": None, "index": None}, f"{text} u=none"
    u, index = as_fractions(solved), solved[1]
    result.update(functional=_functional_json(u), index=index)
    return code, result, f"{text} u={_fmt_functional(u)} index={write(index)}"


def _load_target(spec: str, want: str):
    from .iodoc import load_path, select_object

    path, _, name = spec.partition("#")
    doc = load_path(path)
    return select_object(doc, want, name or None)


def _load_system(spec: str):
    from .ncpoly import BUILTIN_SYSTEMS

    if spec in BUILTIN_SYSTEMS:
        return BUILTIN_SYSTEMS[spec]()
    try:
        return _load_target(spec, "presentation")
    except InputError as exc:
        # Only a file that cannot be opened may be a misspelled builtin name.
        if not isinstance(exc.__cause__, OSError):
            raise
        names = ", ".join(sorted(BUILTIN_SYSTEMS))
        raise InputError(f"{exc} (builtin systems: {names})") from exc


def _solution_for(pair, spec: str):
    """Supporting functional of the divisor named by --divisor as (w, m), u =
    w/m with m its Cartier index, or None."""
    from .iodoc import excerpt
    from .numerals import read_rational
    from .toric import ToricDivisor, canonical_functional, pair_functional, q_cartier_functional

    if spec == "K+D":
        return pair_functional(pair)
    if spec == "K":
        return canonical_functional(pair.cone)
    try:
        coeffs = tuple(read_rational(part) for part in spec.split(","))
    except InputError as exc:
        raise InputError(f"bad divisor spec {excerpt(spec)}") from exc
    return q_cartier_functional(pair.cone, ToricDivisor(coeffs))


def _cmd_omega_center(args):
    from .valmat import centralizer, omega_power

    value = centralizer(omega_power(args.e, args.i))
    result = {"e": args.e, "i": args.i, "valuation": int(value)}
    return 0, result, str(value)


def _cmd_cover_center(args):
    from .orders import cover_graded_valuations

    values = cover_graded_valuations(args.e, args.m)
    result = {"e": args.e, "m": args.m, "valuations": list(values)}
    return 0, result, " ".join(str(v) for v in values)


def _cmd_discriminant(args):
    from .orders import discriminant

    spec = _load_target(args.target, "order")
    div = discriminant(spec)
    result = {"order": spec.name, "divisor": str(div)}
    return 0, result, str(div)


def _cmd_qcartier(args):
    from .toric import as_fractions

    u = as_fractions(_solution_for(_load_target(args.target, "cone_pair"), args.divisor))
    result = {"divisor": args.divisor, "functional": _functional_json(u)}
    if u is None:
        return 3, result, "none"
    return 0, result, f"u={_fmt_functional(u)}"


def _cmd_index(args):
    from .numerals import write

    solved = _solution_for(_load_target(args.target, "cone_pair"), args.divisor)
    index = None if solved is None else solved[1]
    result = {"divisor": args.divisor, "index": index}
    if index is None:
        return 3, result, "none"
    return 0, result, write(index)


def _cmd_klt(args):
    from .toric import klt_check

    verdict = klt_check(_load_target(args.target, "cone_pair"))
    return _with_functional("klt", verdict.is_klt, verdict.functional)


def _cmd_canonical(args):
    from .toric import canonical_check, canonical_functional

    cone = _load_target(args.target, "cone_pair").cone
    solved = canonical_functional(cone)
    return _with_functional("canonical", canonical_check(cone, solved), solved)


def _cmd_cover(args):
    from .iodoc import rational_to_json
    from .numerals import write
    from .toric import log_canonical_cover

    pair = _load_target(args.target, "cone_pair")
    cover = log_canonical_cover(pair)
    basis = cover.cover_lattice.basis
    result = {
        "degree": cover.degree,
        "lattice": [[rational_to_json(x) for x in row] for row in basis],
        "rays": [list(ray) for ray in cover.cover_cone.rays],
    }
    lines = [f"degree={write(cover.degree)}"]
    lines.append("lattice=" + ";".join(_fmt_functional(row) for row in basis))
    lines.append("rays=" + ";".join(_fmt_functional(ray) for ray in cover.cover_cone.rays))
    return 0, result, "\n".join(lines)


def _cmd_dual_gens(args):
    from .numerals import write
    from .toric import dual_cone_generators

    pair = _load_target(args.target, "cone_pair")
    gens = dual_cone_generators(pair.cone)
    result = {"count": len(gens), "generators": [list(g) for g in gens]}
    lines = [f"{len(gens)} generators"]
    lines.extend(" ".join(map(write, g)) for g in gens)
    return 0, result, "\n".join(lines)


def _cmd_nf(args):
    from .ncpoly import normal_form, parse_poly

    system = _load_system(args.system)
    poly = parse_poly(args.expr, system.generators)
    reduced = normal_form(poly, system)
    result = {"input": args.expr, "normal_form": str(reduced)}
    return 0, result, str(reduced)


def _cmd_central(args):
    from .ncpoly import is_central, parse_poly

    system = _load_system(args.system)
    poly = parse_poly(args.expr, system.generators)
    return _verdict("central", is_central(poly, system), {"input": args.expr})


def _cmd_identity(args):
    from .ncpoly import parse_poly, verify_identity

    system = _load_system(args.system)
    lhs = parse_poly(args.lhs, system.generators)
    rhs = parse_poly(args.rhs, system.generators)
    verdict = verify_identity(lhs, rhs, system)
    return _verdict("identity", verdict, {"lhs": args.lhs, "rhs": args.rhs})


def _cmd_quotient_check(args):
    from .ncpoly import commutative_quotient_check

    return _verdict("consistent", commutative_quotient_check(args.name), {"name": args.name})


def _cmd_examples_run(args):
    from .casestudies import run_case_study

    report = run_case_study(args.name)
    return (0 if report.overall else 3), report.to_dict(), report.to_text()


def _cmd_examples_input(args):
    from .casestudies import input_document
    from .iodoc import serialize_document

    doc = input_document(args.name)
    rendered = serialize_document(doc)
    result = json.loads(rendered)
    return 0, result, rendered.rstrip("\n")


_TARGET = ("target", {"metavar": "FILE[#name]"})
_INDEX = ("--e", {"type": int, "required": True, "help": "ramification index"})
_NAME = ("name", {})
_EXPR = ("expr", {})
_DIVISOR = ("--divisor", {"default": "K+D",
                          "help": "K, K+D (default), or comma separated coefficients"})
_SYSTEM = ("--system", {"default": "clifford",
                        "help": "builtin name or FILE[#name] (default clifford)"})
_COMMON_FLAGS = (
    ("--format", {"choices": ("text", "json"), "default": "text",
                  "help": "stdout rendering (default text)"}),
    ("--out", {"metavar": "PATH", "default": None,
               "help": "also write the JSON result to PATH"}),
)

# group -> (help, command -> (help, handler, arguments)); each argument is
# (name or flag, add_argument keywords) and every command also gets _COMMON_FLAGS.
COMMANDS = {
    "order": ("graded centres of ramified matrix orders", {
        "omega-center": ("centre valuation of a dualizing power", _cmd_omega_center, (
            _INDEX,
            ("--i", {"type": int, "required": True, "help": "power of the dualizing module"}),
        )),
        "cover-center": ("valuations of the graded cover centre", _cmd_cover_center, (
            _INDEX,
            ("--m", {"type": int, "required": True, "help": "number of graded pieces"}),
        )),
        "discriminant": ("discriminant divisor of an order", _cmd_discriminant, (_TARGET,)),
    }),
    "toric": ("affine toric log pair classification", {
        "qcartier": ("supporting functional of a divisor", _cmd_qcartier, (_TARGET, _DIVISOR)),
        "index": ("Cartier index of a divisor", _cmd_index, (_TARGET, _DIVISOR)),
        "klt": ("Kawamata log terminal test for a pair", _cmd_klt, (_TARGET,)),
        "canonical": ("canonical singularity test for a cone", _cmd_canonical, (_TARGET,)),
        "cover": ("index-one cover of a standard pair", _cmd_cover, (_TARGET,)),
        "dual-gens": ("generators of the dual cone semigroup", _cmd_dual_gens, (_TARGET,)),
    }),
    "ncpoly": ("noncommutative polynomial rewriting", {
        "nf": ("normal form of an expression", _cmd_nf, (_EXPR, _SYSTEM)),
        "central": ("does the element commute with all generators", _cmd_central,
                    (_EXPR, _SYSTEM)),
        "identity": ("are two expressions equal in the algebra", _cmd_identity,
                     (("lhs", {}), ("rhs", {}), _SYSTEM)),
        "quotient-check": ("consistency of a named algebra model", _cmd_quotient_check,
                           (_NAME,)),
    }),
    "examples": ("bundled case studies", {
        "run": ("run a case study and report every check", _cmd_examples_run, (_NAME,)),
        "input": ("print a case study input document", _cmd_examples_input, (_NAME,)),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logcentre",
        description="Exact checks for hereditary order centres and toric log pairs.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, commands) in COMMANDS.items():
        leaves = groups.add_parser(group, help=group_help).add_subparsers(
            dest="command", required=True
        )
        for command, (command_help, handler, arguments) in commands.items():
            leaf = leaves.add_parser(command, help=command_help)
            for name, options in arguments + _COMMON_FLAGS:
                leaf.add_argument(name, **options)
            leaf.set_defaults(handler=handler)
    return parser


def _write(stream, line: str) -> None:
    """Print line to stdout or stderr and flush it. Once the reader has gone (`| head`),
    point the fd at devnull, so the final flush stays quiet, and keep the exit code."""
    try:
        print(line, file=stream)
        stream.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, result, text = args.handler(args)
    except (LogCentreError, ValueError) as exc:
        prefix = "not applicable" if isinstance(exc, NotApplicable) else "error"
        _write(sys.stderr, f"{prefix}: {exc}")
        return getattr(exc, "exit_code", 2)
    # --out first, so that exit 2 for an unwritable path comes with no output.
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(result, indent=2) + "\n")
        except OSError as exc:
            _write(sys.stderr, f"error: cannot write {args.out}: {exc}")
            return 2
    _write(sys.stdout, json.dumps(result, indent=2) if args.format == "json" else text)
    return code
