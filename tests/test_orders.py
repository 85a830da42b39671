import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logcentre.errors import ResourceLimit
from logcentre.orders import (
    MAX_GRADING_LENGTH,
    OrderSpec,
    QDivisor,
    RamificationDatum,
    cover_graded_valuations,
    discriminant,
    standard_index,
)
from logcentre.valmat import centralizer, omega_power


def _spec(*data):
    return OrderSpec("test-order", tuple(RamificationDatum(p, e, (1,) * e) for p, e in data))


def _ceil(div):
    """Round every coefficient up; the support is then the ramified locus."""
    return QDivisor(tuple((pid, math.ceil(c)) for pid, c in div.terms))


def test_ramification_validation():
    with pytest.raises(ValueError):
        RamificationDatum("", 2, (1, 1))
    with pytest.raises(ValueError):
        RamificationDatum("B", 0, ())
    with pytest.raises(ValueError):
        RamificationDatum("B", 2, (1,))
    with pytest.raises(ValueError):
        RamificationDatum("B", 2, (1, 0))
    with pytest.raises(ValueError):
        OrderSpec("o", (RamificationDatum("B", 2, (1, 1)), RamificationDatum("B", 3, (1, 1, 1))))


def test_orders_and_divisors_refuse_bad_names_and_entries():
    with pytest.raises(ValueError, match="^order name must be a nonempty string$"):
        OrderSpec("", ())
    with pytest.raises(ValueError, match="^ramification entries must be RamificationDatum$"):
        OrderSpec("o", (("p", 2),))
    with pytest.raises(ValueError, match="^prime ids must be nonempty strings$"):
        QDivisor((("", 1),))


def test_ramification_index_and_blocks_are_ints_not_bools():
    # int() would read True as 1; the datum refuses it where a document gives it.
    for e, blocks in ((True, None), (1, (True,)), ("2", None), (2, ("1", 1))):
        with pytest.raises(ValueError):
            RamificationDatum("P", e, blocks)
    assert RamificationDatum("P", 3).blocks == (1, 1, 1)
    assert RamificationDatum("P", 3) == RamificationDatum("P", 3, [1, 1, 1])


def test_grading_arguments_are_ints_not_bools():
    with pytest.raises(ValueError, match="^ramification index must be a positive integer, got True$"):
        cover_graded_valuations(True, 2)
    with pytest.raises(ValueError, match="^grading length must be a positive integer, got True$"):
        cover_graded_valuations(2, True)


def test_block_sizes_must_be_a_sequence():
    with pytest.raises(ValueError, match="^blocks must be a sequence, got 5$"):
        RamificationDatum("P", 2, 5)


def test_ramification_must_be_a_sequence():
    with pytest.raises(ValueError, match="^ramification must be a sequence, got 5$"):
        OrderSpec("o", 5)


def test_qdivisor_normalisation_and_str():
    div = QDivisor((("B", Fraction(1, 2)), ("C", 0), ("D", Fraction(2, 3))))
    assert div.terms == (("B", Fraction(1, 2)), ("D", Fraction(2, 3)))
    assert str(div) == "1/2*B + 2/3*D"
    assert div.coefficient("C") == 0
    assert str(QDivisor(())) == "0"
    with pytest.raises(ValueError):
        QDivisor((("B", 1), ("B", 2)))


def test_qdivisor_ceil_is_reduced_support():
    div = QDivisor((("B", Fraction(1, 2)), ("C", Fraction(5, 6)), ("D", Fraction(-1, 3))))
    assert _ceil(div).terms == (("B", 1), ("C", 1))


def test_standard_index_table():
    assert standard_index(0) == 1
    assert standard_index(Fraction(1, 2)) == 2
    assert standard_index(Fraction(2, 3)) == 3
    assert standard_index(Fraction(3, 4)) == 4
    assert standard_index(Fraction(5, 6)) == 6
    assert standard_index(1) is None
    assert standard_index(Fraction(2, 5)) is None
    assert standard_index(Fraction(-1, 2)) is None


def test_floats_are_refused():
    # A float is not exact: 0.5 is not read as the standard 1/2, nor 0.1 as
    # 3602879701896397/36028797018963968.
    with pytest.raises(TypeError, match="^floating point entries are not exact"):
        standard_index(0.5)
    with pytest.raises(TypeError, match="^floating point entries are not exact"):
        QDivisor((("D", 0.1),))
    assert standard_index(Fraction(1, 2)) == 2
    assert str(QDivisor((("D", Fraction(1, 10)),))) == "1/10*D"


@given(st.integers(1, 200))
def test_standard_index_inverts_the_coefficient(e):
    assert standard_index(Fraction(e - 1, e)) == e


def _standard_index_by_inversion(coeff):
    """The formula standard_index used to evaluate: e = 1/(1 - coeff) if integral."""
    coeff = Fraction(coeff)
    if not 0 <= coeff < 1:
        return None
    inv = 1 / (1 - coeff)
    return int(inv) if inv.denominator == 1 else None


def test_standard_index_matches_inversion():
    coeffs = {Fraction(p, q) for q in range(1, 51) for p in range(-q - 1, 2 * q + 2)}
    coeffs |= set(range(-3, 4))
    for coeff in coeffs:
        assert standard_index(coeff) == _standard_index_by_inversion(coeff), coeff


def test_bools_text_and_decimals_are_not_rationals():
    # Fraction() would read True as 1 and "1/2" or "1e-1" by its own parser.
    for bad in (True, False, "1/2", " 6/7 ", Decimal("0.5")):
        message = f"^expected an int or a Fraction, got {type(bad).__name__}$"
        with pytest.raises(TypeError, match=message):
            standard_index(bad)
        with pytest.raises(TypeError, match=message):
            QDivisor((("B", bad),))


def test_discriminant_examples():
    assert str(discriminant(_spec(("B", 2)))) == "1/2*B"
    assert discriminant(_spec(("B", 1))).terms == ()
    div = discriminant(_spec(("B", 2), ("C", 3), ("E", 1)))
    assert div.terms == (("B", Fraction(1, 2)), ("C", Fraction(2, 3)))


@given(st.lists(st.integers(1, 9), min_size=1, max_size=5))
def test_discriminant_is_standard_with_reduced_ceiling(indices):
    spec = _spec(*((f"P{k}", e) for k, e in enumerate(indices)))
    div = discriminant(spec)
    for _, coeff in div.terms:
        assert standard_index(coeff) is not None
    # rounding up marks exactly the ramified primes, each with multiplicity one
    ceiling = dict(_ceil(div).terms)
    expected = {f"P{k}": 1 for k, e in enumerate(indices) if e >= 2}
    assert ceiling == expected


def test_cover_graded_valuations_frozen():
    assert cover_graded_valuations(2, 2) == (0, 0)
    assert cover_graded_valuations(3, 3) == (0, 0, -1)
    assert cover_graded_valuations(3, 6) == (0, 0, -1, -2, -2, -3)
    assert cover_graded_valuations(1, 4) == (0, 0, 0, 0)


@given(st.integers(1, 12), st.integers(1, 40))
def test_cover_graded_valuations_shape(e, m):
    values = cover_graded_valuations(e, m)
    assert len(values) == m
    assert values[0] == 0
    assert all(a >= b for a, b in zip(values, values[1:]))
    for i in range(m - e):
        assert values[i + e] == values[i] - (e - 1)


@given(st.integers(1, 12), st.integers(1, 30))
def test_cover_graded_valuations_match_matrix_model(e, m):
    values = cover_graded_valuations(e, m)
    assert values == tuple(centralizer(omega_power(e, i)) for i in range(m))


@given(st.integers(1, 12), st.integers(0, 30))
def test_cover_graded_valuations_are_rounded_multiples(e, i):
    # i-th value is minus the floor of i times the boundary coefficient
    coeff = Fraction(e - 1, e)
    assert cover_graded_valuations(e, i + 1)[i] == -math.floor(i * coeff)


def test_bad_arguments():
    with pytest.raises(ValueError):
        cover_graded_valuations(0, 3)
    with pytest.raises(ValueError):
        cover_graded_valuations(2, 0)


def test_grading_length_limit():
    assert len(cover_graded_valuations(3, MAX_GRADING_LENGTH)) == MAX_GRADING_LENGTH
    big = MAX_GRADING_LENGTH + 1
    message = f"^grading length {big}, above the limit MAX_GRADING_LENGTH = {MAX_GRADING_LENGTH}$"
    with pytest.raises(ResourceLimit, match=message):
        cover_graded_valuations(3, big)
