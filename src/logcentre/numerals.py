"""Readers of the integers and rationals that documents, expressions and the
command line spell, their one writer, and the one gate of the exact layers,
which takes an int or a Fraction where a rational is asked for and refuses
floats, bools, text and everything else. They live apart from the rewrite
engine and the document layer, so that reading or writing a number loads
neither.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import InputError, ResourceLimit


def read_int(text: str) -> int:
    """The integer an optionally signed digit string spells, InputError if too long.

    Python refuses to convert very long digit strings; the refusal is bad input.
    """
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("+-"))
        raise InputError(f"integer literal of {digits} digits is too long") from None


def write(x) -> str:
    """str of an int or Fraction; ResourceLimit when Python writes no integer
    that long (from 3.10.7, past sys.get_int_max_str_digits() digits)."""
    try:
        return str(x)
    except ValueError:
        widest = max(abs(x.numerator), x.denominator)
        # 30103/100000 > log10(2): the count or one less below 5 * 10**6 bits
        digits = widest.bit_length() * 30103 // 100000
        raise ResourceLimit.over(
            f"a coefficient has {digits + (widest >= 10**digits)} digits",
            "sys.get_int_max_str_digits()", sys.get_int_max_str_digits(),
        ) from None


def exact(x) -> Fraction:
    """x as a Fraction: a Fraction unchanged, an int (never a bool) converted;
    TypeError for anything else, a float, a bool, text or a Decimal."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("floating point entries are not exact; use Fraction")
    raise TypeError(f"expected an int or a Fraction, got {type(x).__name__}")


_RATIONAL = re.compile(r"([-+]?\d+)(?:/(\d+))?")


def read_rational(text: str) -> Fraction:
    """The rational an optionally signed "p" or "p/q" digit string spells, once
    surrounding whitespace is stripped; InputError for any other text, for a
    zero denominator, and where read_int refuses p or q. Decimal points and
    exponents are refused, so no text reaches Fraction's own string parser.
    """
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise InputError("expected an optionally signed integer p or fraction p/q")
    numerator = read_int(match[1])
    if match[2] is None:
        return Fraction(numerator)
    denominator = read_int(match[2])
    if not denominator:
        raise InputError("zero denominator")
    return Fraction(numerator, denominator)
