"""Versioned JSON documents describing orders, cone pairs and presentations.

A document is ``{"version": "1", "objects": {name: object, ...}}`` where each
object carries a ``type`` tag. Rational numbers are encoded as JSON integers
or as strings like ``"1/2"``, ``"-3"`` or ``" 1/2 "``: an optional sign,
digits and an optional ``/digits``, read by ``numerals.read_rational``.
Floating point literals are rejected outright because every computation in
this package is exact, and so are decimal and exponent strings such as
``"0.5"`` or ``"1e-3"``.

Object schemas:

* ``order``: ``ramification`` is a list of ``{"prime": str, "e": int,
  "blocks": [int, ...]}``, ``blocks`` optional.
* ``cone_pair``: ``rays`` (integer lattice coordinates), ``boundary`` (one
  rational per ray), optional ``lattice`` (basis rows in ambient rational
  coordinates, default the standard lattice).
* ``presentation``: ``generators``, optional ``weights``, and ``rules`` given
  as ``{"lhs": "b*a", "rhs": "a*b - 2*c^3"}`` with expression syntax.

This layer checks JSON shape and reads rationals. Every other value goes as it
is to its value class, which checks it; a refusal comes back as an InputError
naming the object.

Each type tag maps to its class, parser and serializer in one table, which
drives parsing, serialization and ``select_object``. The rewrite engine,
``ncpoly``, is imported only when a presentation is parsed or its class is
looked up, so a document of orders and cone pairs never loads it.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InputError
from .numerals import read_int, read_rational, write
from .orders import OrderSpec, RamificationDatum
from .records import Record
from .toric import Cone, ConePair, Lattice, ToricDivisor

VERSION = "1"


class InputDocument(Record):
    __slots__ = _fields = ("version", "objects")


def _reject_float(text):
    raise InputError(f"floating point literal {text!r}; use integers or \"p/q\" strings")


def excerpt(text: str) -> str:
    """text quoted for an error line; past 20 characters, its start and its length."""
    if len(text) <= 20:
        return repr(text)
    return f"{text[:20]!r}... ({len(text)} characters)"


def _rat_from_json(value, where: str) -> Fraction:
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        try:
            return read_rational(value)
        except InputError as exc:
            raise InputError(f"{where}: bad rational {excerpt(value)}") from exc
    raise InputError(f"{where}: expected a rational, got {type(value).__name__}")


def _rats_from_json(values, where: str) -> tuple:
    if not isinstance(values, list):
        raise InputError(f"{where}: expected a list of rationals")
    return tuple(_rat_from_json(x, where) for x in values)


def rational_to_json(value: Fraction):
    """value as a JSON int or "p/q" string; ResourceLimit where write refuses it."""
    value = Fraction(value)
    text = write(value)
    return int(value) if value.denominator == 1 else text


def _check_keys(spec: dict, allowed, where: str) -> None:
    extra = set(spec) - set(allowed)
    if extra:
        raise InputError(f"{where}: unknown keys {sorted(extra)}")


def _parse_order(name: str, spec: dict) -> OrderSpec:
    _check_keys(spec, ("type", "ramification"), name)
    data = spec.get("ramification")
    if not isinstance(data, list) or not data:
        raise InputError(f"{name}: ramification must be a nonempty list")
    ramification = []
    for entry in data:
        if not isinstance(entry, dict):
            raise InputError(f"{name}: ramification entries must be objects")
        _check_keys(entry, ("prime", "e", "blocks"), name)
        blocks = entry.get("blocks")
        if "blocks" in entry and not isinstance(blocks, list):
            raise InputError(f"{name}: blocks must be a list")
        ramification.append(RamificationDatum(entry.get("prime"), entry.get("e"), blocks))
    return OrderSpec(name, tuple(ramification))


def _parse_cone_pair(name: str, spec: dict) -> ConePair:
    _check_keys(spec, ("type", "lattice", "rays", "boundary"), name)
    rays = spec.get("rays")
    if not isinstance(rays, list) or not all(isinstance(ray, list) for ray in rays):
        raise InputError(f"{name}: rays must be a list of vectors")
    lattice = spec.get("lattice")
    if lattice is not None:
        if not isinstance(lattice, list):
            raise InputError(f"{name}: lattice must be a list of basis vectors")
        lattice = Lattice(tuple(_rats_from_json(row, f"{name}.lattice") for row in lattice))
    boundary = spec.get("boundary")
    coeffs = (0,) * len(rays) if boundary is None else _rats_from_json(boundary, f"{name}.boundary")
    return ConePair(Cone.from_rays(rays, lattice), ToricDivisor(coeffs))


def _parse_presentation(name: str, spec: dict):
    from .ncpoly import RewriteSystem, parse_poly

    _check_keys(spec, ("type", "generators", "weights", "rules"), name)
    generators = spec.get("generators")
    if not isinstance(generators, list) or not generators:
        raise InputError(f"{name}: generators must be a nonempty list of names")
    weights = spec.get("weights")
    if weights is not None and not isinstance(weights, list):
        raise InputError(f"{name}: weights must be a list of integers")
    rules_raw = spec.get("rules")
    if not isinstance(rules_raw, list):
        raise InputError(f"{name}: rules must be a list")

    def parse(side: str, text: str):
        try:
            return parse_poly(text, generators)
        except InputError as exc:  # a limit refusal keeps its own message
            raise InputError(f"{name}: rule {side} {excerpt(text)}: {exc}") from exc

    rules = []
    for entry in rules_raw:
        if not isinstance(entry, dict):
            raise InputError(f"{name}: each rule must be an object")
        _check_keys(entry, ("lhs", "rhs"), name)
        lhs_text, rhs_text = entry.get("lhs"), entry.get("rhs")
        if not isinstance(lhs_text, str) or not isinstance(rhs_text, str):
            raise InputError(f"{name}: rule lhs and rhs must be strings")
        lhs_poly = parse("lhs", lhs_text)
        lhs_terms = lhs_poly.terms()
        if len(lhs_terms) != 1 or lhs_terms[0][1] != 1 or not lhs_terms[0][0]:
            raise InputError(f"{name}: rule lhs {lhs_text!r} must be a single plain word")
        rules.append((lhs_terms[0][0], parse("rhs", rhs_text)))
    return RewriteSystem(generators, rules, weights)


def parse_document(data) -> InputDocument:
    """Validate a decoded JSON document and build the typed objects."""
    if not isinstance(data, dict):
        raise InputError("document must be a JSON object")
    _check_keys(data, ("version", "objects"), "document")
    version = data.get("version")
    if version != VERSION:
        raise InputError(f"unsupported document version {version!r}; expected {VERSION!r}")
    objects_raw = data.get("objects")
    if not isinstance(objects_raw, dict) or not objects_raw:
        raise InputError("document needs a nonempty objects map")
    objects = {}
    for name, spec in objects_raw.items():
        if not isinstance(spec, dict):
            raise InputError(f"{name}: object must be a JSON object")
        kind = spec.get("type")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise InputError(f"{name}: unknown type {kind!r}; expected one of {tuple(_KINDS)}")
        _, parse, _ = _KINDS[kind]
        try:
            objects[name] = parse(name, spec)
        except ValueError as exc:  # a value class refusing its fields is bad input
            raise InputError(f"{name}: {exc}") from exc
    return InputDocument(version, objects)


def loads(text: str) -> InputDocument:
    try:
        data = json.loads(
            text, parse_float=_reject_float, parse_int=read_int, parse_constant=_reject_float
        )
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise InputError("invalid JSON: arrays or objects nest too deep") from None
    return parse_document(data)


def load_path(path: str) -> InputDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(
            f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    return loads(text)


def _serialize_order(spec: OrderSpec) -> dict:
    return {
        "ramification": [
            {"prime": r.prime_id, "e": r.e, "blocks": list(r.blocks)}
            for r in spec.ramification
        ],
    }


def _serialize_cone_pair(pair: ConePair) -> dict:
    return {
        "lattice": [[rational_to_json(x) for x in row] for row in pair.cone.lattice.basis],
        "rays": [list(ray) for ray in pair.cone.rays],
        "boundary": [rational_to_json(c) for c in pair.boundary.coeffs],
    }


def _serialize_presentation(system) -> dict:
    return {
        "generators": list(system.generators),
        "weights": list(system.weights),
        "rules": [{"lhs": "*".join(lhs), "rhs": str(rhs)} for lhs, rhs in system.rules],
    }


def _rewrite_system():
    from .ncpoly import RewriteSystem

    return RewriteSystem


# type tag -> (class, parser, serializer); the serializer leaves out the tag. The
# class is given by a function that returns it, so that a presentation's is
# imported only when it is looked up.
_KINDS = {
    "order": (lambda: OrderSpec, _parse_order, _serialize_order),
    "cone_pair": (lambda: ConePair, _parse_cone_pair, _serialize_cone_pair),
    "presentation": (_rewrite_system, _parse_presentation, _serialize_presentation),
}


def serialize_document(doc: InputDocument) -> str:
    """Canonical JSON text; parse(serialize(doc)) reproduces the objects."""
    objects = {}
    for name, obj in doc.objects.items():
        for kind, (cls, _, serialize) in _KINDS.items():
            if isinstance(obj, cls()):
                objects[name] = {"type": kind, **serialize(obj)}
                break
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
    return json.dumps({"version": doc.version, "objects": objects}, indent=2) + "\n"


def select_object(doc: InputDocument, want: str, name=None):
    """Fetch the named object, or the unique object of the wanted type."""
    if want not in _KINDS:
        raise ValueError(f"unknown object type {want!r}")
    cls = _KINDS[want][0]()
    if name is not None:
        if name not in doc.objects:
            raise InputError(f"document has no object named {name!r}")
        obj = doc.objects[name]
        if not isinstance(obj, cls):
            raise InputError(f"object {name!r} is not of type {want!r}")
        return obj
    matches = [n for n, obj in doc.objects.items() if isinstance(obj, cls)]
    if len(matches) == 1:
        return doc.objects[matches[0]]
    if not matches:
        raise InputError(f"document has no object of type {want!r}")
    raise InputError(
        f"document has several objects of type {want!r} ({', '.join(sorted(matches))}); "
        "pick one with FILE#name"
    )
