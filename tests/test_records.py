"""The value classes on logcentre.records.Record keep the semantics of the
frozen dataclasses they replaced: field-wise equality and hash, immutability,
copy and pickle, the Name(field=value, ...) repr, keyword and default
arguments, and the __post_init__ hook looked up through the class at each
construction."""

import copy
import pickle
from fractions import Fraction

import pytest

from logcentre import casestudies, iodoc, ncpoly, orders, toric, valmat
from logcentre.casestudies import CheckResult
from logcentre.iodoc import InputDocument
from logcentre.ncpoly import RewriteSystem, clifford_system
from logcentre.orders import QDivisor, RamificationDatum
from logcentre.records import Record
from logcentre.toric import (
    Cone,
    ConePair,
    CoverResult,
    KltResult,
    Lattice,
    ToricDivisor,
    _cone_with_facets,
    _from_integer_form,
    klt_check,
    log_canonical_cover,
)
from logcentre.valmat import ValMatrix

VALUE_CLASSES = {
    toric: ("Lattice", "Cone", "ToricDivisor", "ConePair", "KltResult", "CoverResult"),
    orders: ("RamificationDatum", "OrderSpec", "QDivisor"),
    ncpoly: ("RewriteSystem",),
    valmat: ("ValMatrix",),
    casestudies: ("CheckResult", "CaseStudyReport"),
    iodoc: ("InputDocument",),
}


def _pair():
    cone = Cone.from_rays([(1, 0), (1, 2)])
    return ConePair(cone, ToricDivisor((Fraction(1, 2), 0)))


def _instances():
    """Two equal instances, built separately, of each value class."""
    pair = _pair()
    for _ in range(2):
        yield [
            Lattice([(1, 0), (Fraction(1, 2), 1)]),
            Cone.from_rays([(1, 0), (1, 2)]),
            ToricDivisor((1, Fraction(1, 2))),
            _pair(),
            klt_check(pair),
            log_canonical_cover(pair),
            RamificationDatum("p", 2, (1, 1)),
            orders.OrderSpec("o", (RamificationDatum("p", 2, [1, 1]),)),
            QDivisor((("p", Fraction(1, 2)), ("q", 0))),
            clifford_system(),
            ValMatrix(((0, 0), (1, 2))),
            CheckResult("id", "what", "1", "1", True),
            casestudies.CaseStudyReport("name", (CheckResult("id", "what", "1", "1", True),)),
            InputDocument("1", {}),
        ]


def test_every_value_class_is_a_slotted_record():
    for module, names in VALUE_CLASSES.items():
        for name in names:
            cls = getattr(module, name)
            assert issubclass(cls, Record), name
            assert set(cls._fields) <= set(cls.__slots__), name
    assert all(not hasattr(obj, "__dict__") for obj in next(_instances()))


def test_equal_records_hash_equal():
    first, second = _instances()
    assert len(first) == sum(map(len, VALUE_CLASSES.values()))
    for a, b in zip(first, second):
        assert a is not b and a == b and not a != b, type(a).__name__
        if not isinstance(a, InputDocument):  # its objects are a dict
            assert hash(a) == hash(b), type(a).__name__
    assert KltResult(True, None) != KltResult(False, None)
    assert hash(KltResult(True, None)) == hash((True, None))
    # Equality holds only between instances of one class.
    assert ToricDivisor((1,)) != QDivisor((("p", 1),))
    assert ToricDivisor((1,)).__eq__((Fraction(1),)) is NotImplemented


def test_lattice_constructors_agree():
    basis = [(Fraction(1, 2), 0, 0), (0, Fraction(1, 3), 1), (1, 1, 1)]
    built = Lattice(basis)
    assert built == _from_integer_form([[3, 0, 0], [0, 2, 6], [6, 6, 6]], 6)
    assert hash(built) == hash(_from_integer_form([[3, 0, 0], [0, 2, 6], [6, 6, 6]], 6))
    assert Lattice.standard(2) == Lattice([(1, 0), (0, 1)])
    assert built.basis == tuple(tuple(map(Fraction, vec)) for vec in basis)
    assert built.dual().dual() == built


def test_cone_equality_ignores_facets():
    cone = Cone.from_rays([(1, 0), (1, 2)])
    other = _cone_with_facets(cone.lattice, cone.rays, ((9, 9),))
    assert other.facets != cone.facets
    assert other == cone and hash(other) == hash(cone)
    assert "facets" not in repr(cone)
    assert Cone.from_rays([(1, 0), (1, 3)]) != cone


def test_fields_cannot_be_assigned_or_deleted():
    for record in next(_instances()):
        name = record._fields[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
    cone = Cone.from_rays([(1, 0), (1, 2)])
    with pytest.raises(AttributeError):
        cone.facets = ()
    document = InputDocument("1", {})
    with pytest.raises(AttributeError):
        document.objects = {"x": 1}
    assert document.objects == {}


def test_copy_and_pickle_round_trip():
    for record in next(_instances()):
        pickled = pickle.loads(pickle.dumps(record))
        for copied in (copy.copy(record), copy.deepcopy(record), pickled):
            assert type(copied) is type(record) and copied == record, type(record).__name__
    cone = pickle.loads(pickle.dumps(Cone.from_rays([(1, 0), (1, 2)])))
    assert cone.facets == ((0, 1), (2, -1))
    system = copy.deepcopy(clifford_system())
    assert str(ncpoly.normal_form(ncpoly.parse_poly("b*a", system.generators), system)) == (
        "a*b - 2*c^3"
    )


def test_repr_lists_the_fields():
    assert repr(KltResult(True, None)) == "KltResult(is_klt=True, functional=None)"
    assert repr(Lattice.standard(2)) == "Lattice(scaled=((1, 0), (0, 1)), denominator=1)"
    assert repr(ToricDivisor((1,))) == "ToricDivisor(coeffs=(Fraction(1, 1),))"
    assert repr(Cone.from_rays([(1, 0), (0, 1)])) == (
        "Cone(lattice=Lattice(scaled=((1, 0), (0, 1)), denominator=1), rays=((1, 0), (0, 1)))"
    )
    assert repr(InputDocument("1", {})) == "InputDocument(version='1', objects={})"


def test_keywords_and_defaults():
    system = RewriteSystem(("a", "b"), ())
    assert system.weights == (1, 1)
    assert RewriteSystem(("a", "b"), (), weights=(2, 1)).weights == (2, 1)
    assert RewriteSystem(rules=(), generators=("a", "b"), weights=None) == system
    assert KltResult(functional=None, is_klt=True) == KltResult(True, None)
    cover = CoverResult(None, None, degree=2, cover_functional=((1,), 1))
    assert cover.degree == 2


@pytest.mark.parametrize("call", [
    lambda: KltResult(True),
    lambda: KltResult(True, None, None),
    lambda: KltResult(True, is_klt=False),
    lambda: KltResult(True, None, extra=1),
    lambda: ToricDivisor(),
    lambda: RewriteSystem(("a",)),
    lambda: RewriteSystem(("a",), (), None, None),
    lambda: CheckResult("id", "what", "1", "1"),
    lambda: Lattice(),
    lambda: Lattice([(1,)], 1),
], ids=["too-few", "too-many", "twice", "unknown-keyword", "none", "default-only",
        "past-default", "five-fields", "lattice-none", "lattice-two"])
def test_wrong_arguments_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_post_init_is_looked_up_through_the_class(monkeypatch):
    # perfbench/spans.py wraps Cone.__post_init__ and RewriteSystem.__post_init__
    # on their classes; each construction must go through the wrapper.
    calls = []
    for cls in (Cone, RewriteSystem):
        original = vars(cls)["__post_init__"]

        def wrapper(self, original=original):
            calls.append(type(self).__name__)
            return original(self)

        monkeypatch.setattr(cls, "__post_init__", wrapper)
    cone = Cone.from_rays([(1, 0), (1, 2)])
    RewriteSystem(("a", "b"), ((("b", "a"), ncpoly.NCPoly.monomial(("a", "b"))),))
    assert calls == ["Cone", "RewriteSystem"]
    assert cone.facets == ((0, 1), (2, -1))


def test_a_record_may_have_six_fields():
    class Six(Record):
        __slots__ = _fields = ("a", "b", "c", "d", "e", "f")
        _defaults = (5, 6)

    record = Six(1, 2, 3, 4)
    assert record == Six(1, 2, 3, 4, 5, 6) == Six(f=6, e=5, d=4, c=3, b=2, a=1)
    assert Six(1, 2, 3, 4, f=0)._values() == (1, 2, 3, 4, 5, 0)
    assert hash(record) == hash((1, 2, 3, 4, 5, 6))
    assert repr(record).endswith(".<locals>.Six(a=1, b=2, c=3, d=4, e=5, f=6)")
    assert copy.deepcopy(record) == record
    with pytest.raises(TypeError, match=r"Six\.__init__\(\) missing 3 required"):
        Six(1)
    with pytest.raises(TypeError, match=r"multiple values for argument 'a'"):
        Six(1, 2, 3, 4, a=1)


def test_a_record_may_have_no_fields():
    class Fieldless(Record):
        __slots__ = ()

    assert Fieldless() == Fieldless() and hash(Fieldless()) == hash(())
    assert repr(Fieldless()).endswith("Fieldless()")
    with pytest.raises(TypeError):
        Fieldless(1)
