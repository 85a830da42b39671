from decimal import Decimal
from fractions import Fraction

import pytest

from logcentre.numerals import exact


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
