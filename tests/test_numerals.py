from decimal import Decimal
from fractions import Fraction

import pytest

from logcentre.errors import InputError
from logcentre.numerals import exact, read_rational


def test_exact_takes_ints_and_fractions():
    half = Fraction(1, 2)
    assert exact(half) is half
    assert exact(3) == Fraction(3) and type(exact(3)) is Fraction


@pytest.mark.parametrize("bad", [True, False, "1/2", "1e-1", Decimal("0.5"), None])
def test_exact_refuses_everything_else_by_type(bad):
    # Fraction() would read a bool as an int, and text and Decimals by its own parsers.
    with pytest.raises(TypeError, match=f"^expected an int or a Fraction, got {type(bad).__name__}$"):
        exact(bad)


def test_exact_refuses_floats():
    with pytest.raises(TypeError, match="^floating point entries are not exact; use Fraction$"):
        exact(0.5)


def test_read_rational_refuses_a_zero_denominator():
    with pytest.raises(InputError, match="^zero denominator$"):
        read_rational("1/0")
