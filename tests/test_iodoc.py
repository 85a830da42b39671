import json
from fractions import Fraction

import pytest

from logcentre.casestudies import clifford_input_document, francia_input_document
from logcentre.cli import main
from logcentre.errors import InputError
from logcentre.iodoc import (
    InputDocument,
    load_path,
    loads,
    parse_document,
    rational_to_json,
    select_object,
    serialize_document,
)
from logcentre.ncpoly import NCPoly, RewriteSystem
from logcentre.orders import OrderSpec
from logcentre.toric import ConePair


def test_round_trip_preserves_objects():
    for doc in (francia_input_document(), clifford_input_document()):
        text = serialize_document(doc)
        again = loads(text)
        assert again.objects.keys() == doc.objects.keys()
        for key in doc.objects:
            assert again.objects[key] == doc.objects[key]
        # serialization is a fixed point
        assert serialize_document(again) == text


def test_multi_letter_generators_round_trip():
    # x1 and x10 are names of their own, not x times 1 or x1 times 0.
    system = RewriteSystem(("x", "x1", "x10"), ((("x10", "x"), 2 * NCPoly.generator("x1")),))
    doc = InputDocument("1", {"p": system})
    again = loads(serialize_document(doc))
    assert again == doc and again.objects["p"].rules == system.rules


def test_generator_no_expression_spells_is_an_input_error():
    # Listed but used in no rule: before names were checked, it loaded and
    # then could not be read back.
    for name in ("+", "x y", "2x"):
        text = json.dumps({"version": "1", "objects": {"p": {
            "type": "presentation", "generators": ["a", name],
            "rules": [{"lhs": "a*a", "rhs": "0"}]}}})
        with pytest.raises(InputError) as refused:
            loads(text)
        assert str(refused.value) == f"p: generator {name!r} does not match [A-Za-z_][A-Za-z0-9_]*"


def test_serialized_form_is_pretty_json():
    text = serialize_document(clifford_input_document())
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["version"] == "1"


def test_version_mismatch():
    with pytest.raises(InputError):
        loads('{"version": "2", "objects": {}}')
    with pytest.raises(InputError):
        loads('{"objects": {}}')


def test_deep_nesting_is_an_input_error():
    deep = "[" * 100_000 + "]" * 100_000
    rays = '{"version": "1", "objects": {"b": {"type": "cone_pair", "rays": %s}}}' % deep
    for text in (deep, rays):
        with pytest.raises(InputError, match="^invalid JSON: arrays or objects nest too deep$"):
            loads(text)


def test_floats_are_rejected():
    doc = """
    {"version": "1", "objects": {"x": {"type": "cone_pair",
     "rays": [[1, 0], [0, 1]], "boundary": [0.5, 0]}}}
    """
    with pytest.raises(InputError):
        loads(doc)


def test_rationals_accept_strings_and_ints():
    doc = loads(
        '{"version": "1", "objects": {"x": {"type": "cone_pair",'
        ' "rays": [[1, 0], [0, 1]], "boundary": ["1/2", 0]}}}'
    )
    pair = doc.objects["x"]
    assert isinstance(pair, ConePair)
    assert pair.boundary.coeffs == (Fraction(1, 2), 0)


def test_rational_to_json():
    assert rational_to_json(Fraction(1, 2)) == "1/2"
    assert rational_to_json(Fraction(4, 2)) == 2
    assert rational_to_json(3) == 3


def test_bad_rational_forms():
    for bad in ('"1/0"', '"x"', "true", '[1, 2]', '"0.5"', '"1e-3"', '"1e-3000000"',
                '"1 / 2"', '"0_1"', '"1/-2"', '""'):
        doc = (
            '{"version": "1", "objects": {"x": {"type": "cone_pair",'
            f' "rays": [[1, 0], [0, 1]], "boundary": [{bad}, 0]}}}}'
        )
        with pytest.raises(InputError):
            loads(doc)


def test_rational_strings_are_sign_digits_and_denominator():
    for text, value in (("1/2", Fraction(1, 2)), ("-3", -3), (" 1/2 ", Fraction(1, 2)),
                        ("+4/6", Fraction(2, 3))):
        doc = loads(json.dumps({"version": "1", "objects": {"x": {
            "type": "cone_pair", "lattice": [[text, 0], [0, 1]], "rays": [[1, 0], [0, 1]]}}}))
        assert doc.objects["x"].cone.lattice.basis[0][0] == value


def test_unknown_type_and_keys():
    with pytest.raises(InputError):
        loads('{"version": "1", "objects": {"x": {"type": "widget"}}}')
    with pytest.raises(InputError):
        loads(
            '{"version": "1", "objects": {"x": {"type": "cone_pair",'
            ' "rays": [[1, 0], [0, 1]], "surprise": 1}}}'
        )
    with pytest.raises(InputError):
        loads('{"version": "1", "objects": {"x": {"rays": [[1, 0], [0, 1]]}}}')


def test_objects_must_be_mappings():
    with pytest.raises(InputError):
        loads('{"version": "1", "objects": []}')
    with pytest.raises(InputError):
        loads('{"version": "1", "objects": {"x": 3}}')
    with pytest.raises(InputError):
        loads("[1, 2]")
    with pytest.raises(InputError):
        loads("not json")


def test_order_parsing_defaults_blocks():
    doc = loads(
        '{"version": "1", "objects": {"my-order": {"type": "order",'
        ' "ramification": [{"prime": "P", "e": 3}]}}}'
    )
    spec = doc.objects["my-order"]
    assert isinstance(spec, OrderSpec)
    assert spec.name == "my-order"
    assert spec.ramification[0].e == 3
    assert spec.ramification[0].blocks == (1, 1, 1)


def test_cone_pair_defaults():
    doc = loads(
        '{"version": "1", "objects": {"x": {"type": "cone_pair",'
        ' "rays": [[2, 0], [0, 1]]}}}'
    )
    pair = doc.objects["x"]
    assert pair.cone.rays == ((1, 0), (0, 1))
    assert pair.boundary.coeffs == (0, 0)
    assert pair.cone.lattice.dim == 2


@pytest.mark.parametrize("rays", [[[], [0, 1]], [[0, 1], []]], ids=["first", "second"])
@pytest.mark.parametrize("lattice", [None, [[1, 0], [0, 1]]], ids=["standard", "given"])
def test_empty_ray_is_a_dimension_mismatch(rays, lattice):
    spec = {"type": "cone_pair", "rays": rays}
    if lattice is not None:
        spec["lattice"] = lattice
    with pytest.raises(InputError, match="^o: ray dimension mismatch$"):
        parse_document({"version": "1", "objects": {"o": spec}})


def test_boolean_rational_is_refused_by_type():
    with pytest.raises(InputError, match="^o.boundary: expected a rational, got bool$"):
        parse_document({"version": "1", "objects": {"o": {
            "type": "cone_pair", "rays": [[1, 0], [0, 1]], "boundary": [True, 0]}}})


def test_empty_ray_is_an_input_error():
    # The default lattice comes from Cone.from_rays, inside the loader's error handling.
    with pytest.raises(InputError, match="^p: lattice dimension must be a positive integer, got 0$"):
        loads('{"version": "1", "objects": {"p": {"type": "cone_pair", "rays": [[]]}}}')


@pytest.mark.parametrize(
    "name, spec, message",
    [
        ("ord", {"type": "order", "ramification": [{"prime": "P", "e": 0}]},
         "ramification index must be a positive integer, got 0"),
        ("pair", {"type": "cone_pair", "rays": [[1, 0], [0, 1]], "lattice": [[1, 2], [2, 4]]},
         "matrix is singular"),
        ("sys", {"type": "presentation", "generators": ["a", "b"],
                 "rules": [{"lhs": "a", "rhs": "a*b"}]},
         "rule a -> a*b breaks the termination order"),
    ],
    ids=["order", "cone_pair", "presentation"],
)
def test_value_class_refusal_is_an_input_error_naming_the_object(name, spec, message):
    with pytest.raises(InputError) as caught:
        parse_document({"version": "1", "objects": {name: spec}})
    assert str(caught.value) == f"{name}: {message}"
    assert type(caught.value.__cause__) is ValueError


def test_presentation_parsing():
    doc = loads(
        '{"version": "1", "objects": {"sys": {"type": "presentation",'
        ' "generators": ["a", "b", "c"], "weights": [3, 3, 2],'
        ' "rules": [{"lhs": "b*a", "rhs": "a*b - 2*c^3"}]}}}'
    )
    system = doc.objects["sys"]
    assert isinstance(system, RewriteSystem)
    assert system.rules[0][0] == ("b", "a")


def test_presentation_lhs_must_be_plain_word():
    base = (
        '{"version": "1", "objects": {"sys": {"type": "presentation",'
        ' "generators": ["a", "b"], "rules": [{"lhs": %s, "rhs": "a"}]}}}'
    )
    for bad in ('"a + b"', '"2*b*a"', '"1"'):
        with pytest.raises(InputError):
            loads(base % bad)


def test_presentation_rule_with_zero_denominator():
    doc = (
        '{"version": "1", "objects": {"sys": {"type": "presentation",'
        ' "generators": ["a", "b"], "rules": [{"lhs": "b*a", "rhs": "1/0*a*b"}]}}}'
    )
    with pytest.raises(InputError, match="division by zero"):
        loads(doc)


def test_file_that_is_not_utf8_is_an_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(InputError) as info:
        load_path(str(path))
    assert str(info.value).startswith(f"cannot read {path}: not UTF-8 text ")


def test_select_object():
    doc = francia_input_document()
    pair = select_object(doc, "cone_pair", "base")
    assert isinstance(pair, ConePair)
    with pytest.raises(InputError):
        select_object(doc, "cone_pair")  # ambiguous: base and cover
    spec = select_object(doc, "order")  # unique, no name needed
    assert spec.name == "francia-order"
    with pytest.raises(InputError):
        select_object(doc, "cone_pair", "missing")
    with pytest.raises(InputError):
        select_object(doc, "order", "base")  # wrong type under that name
    with pytest.raises(InputError):
        select_object(InputDocument("1", {}), "cone_pair")
    with pytest.raises(ValueError, match="^unknown object type 'nope'$"):
        select_object(doc, "nope")


def test_serialize_refuses_an_object_of_no_known_type():
    with pytest.raises(TypeError, match="^cannot serialize int$"):
        serialize_document(InputDocument("1", {"x": 3}))


def test_parse_document_rejects_non_string_version():
    with pytest.raises(InputError):
        parse_document({"version": 1, "objects": {}})


_ORDER = {"type": "order", "ramification": [{"prime": "P", "e": 2}]}
_PAIR = {"type": "cone_pair", "rays": [[1, 0], [0, 1]]}
_SYSTEM = {"type": "presentation", "generators": ["a", "b"],
           "rules": [{"lhs": "b*a", "rhs": "a*b"}]}


def _entry(**fields):
    """_ORDER with its one ramification entry updated; a None field is dropped."""
    entry = {key: value for key, value in {"prime": "P", "e": 2, **fields}.items()
             if value is not None}
    return {**_ORDER, "ramification": [entry]}


# (kind of fault, object spec): one malformed value each; every one is refused
# as bad input that names the object, and nothing else escapes the loader.
MALFORMED = [
    ("prime", _entry(prime=None)),
    ("prime", _entry(prime=1)),
    ("prime", _entry(prime="")),
    ("e", _entry(e="2")),
    ("e", _entry(e=True)),
    ("e", _entry(e=None)),
    ("e", _entry(e=0)),
    ("e", _entry(e=[2])),
    ("blocks", _entry(blocks=2)),
    ("blocks", _entry(blocks="11")),
    ("blocks", _entry(blocks=True)),
    ("blocks", {**_ORDER, "ramification": [{"prime": "P", "e": 2, "blocks": None}]}),
    ("blocks", _entry(blocks=[True, 1])),
    ("blocks", _entry(blocks=[1])),
    ("rays", {"type": "cone_pair"}),
    ("rays", {**_PAIR, "rays": []}),
    ("rays", {**_PAIR, "rays": {"x": [1, 0]}}),
    ("rays", {**_PAIR, "rays": [1, 0]}),
    ("coordinate", {**_PAIR, "rays": [["1", 0], [0, 1]]}),
    ("coordinate", {**_PAIR, "rays": [[True, 0], [0, 1]]}),
    ("coordinate", {**_PAIR, "rays": [[[1], 0], [0, 1]]}),
    ("coordinate", {**_PAIR, "rays": [[None, 0], [0, 1]]}),
    ("rays", {**_PAIR, "rays": [[], [0, 1]]}),
    ("boundary", {**_PAIR, "boundary": [0]}),
    ("boundary", {**_PAIR, "boundary": "0,0"}),
    ("lattice", {**_PAIR, "lattice": "1,0;0,1"}),
    ("lattice", {**_PAIR, "lattice": [1, 0]}),
    ("weights", {**_SYSTEM, "weights": True}),
    ("weights", {**_SYSTEM, "weights": [True, 1]}),
    ("weights", {**_SYSTEM, "weights": ["1", 1]}),
    ("weights", {**_SYSTEM, "weights": [None, 1]}),
    ("weights", {**_SYSTEM, "weights": [1]}),
    ("weights", {**_SYSTEM, "weights": [0, 1]}),
    ("generator", {**_SYSTEM, "generators": ["a", 1], "rules": []}),
    ("generator", {**_SYSTEM, "generators": ["a", "b", ["c"]]}),
    ("rule", {**_SYSTEM, "generators": ["x"], "rules": [{"lhs": "z", "rhs": "x"}]}),
    ("rule", {**_SYSTEM, "generators": ["x"], "rules": [{"lhs": "x*x", "rhs": "(x"}]}),
    ("ramification", {**_ORDER, "ramification": {"prime": "P", "e": 2}}),
    ("ramification", {**_ORDER, "ramification": ["P"]}),
    ("generators", {**_SYSTEM, "generators": "ab"}),
    ("rules", {**_SYSTEM, "rules": {"lhs": "b*a", "rhs": "a*b"}}),
    ("rules", {**_SYSTEM, "rules": ["b*a = a*b"]}),
    ("rules", {**_SYSTEM, "rules": [{"lhs": ["b", "a"], "rhs": "a*b"}]}),
    ("rules", {**_SYSTEM, "rules": [{"lhs": "b*a", "rhs": 1}]}),
]


@pytest.mark.parametrize("spec", [spec for _, spec in MALFORMED],
                         ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(MALFORMED)])
def test_malformed_value_is_an_input_error_naming_the_object(spec):
    with pytest.raises(InputError) as caught:
        parse_document({"version": "1", "objects": {"o": spec}})
    assert str(caught.value)[:2] in ("o:", "o.")  # the object, or a field of it


# The command that loads each object type, the document path going last.
_LOADERS = {"order": ("order", "discriminant"), "cone_pair": ("toric", "klt"),
            "presentation": ("ncpoly", "nf", "a", "--system")}


@pytest.mark.parametrize("kind, spec", list({kind: spec for kind, spec in MALFORMED}.items()))
def test_malformed_value_exits_2_on_the_command_line(tmp_path, capsys, kind, spec):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"version": "1", "objects": {"o": spec}}))
    code = main([*_LOADERS[spec["type"]], str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: o") and "Traceback" not in captured.err
