"""Ramification data in codimension one and the divisors it induces.

An order over a normal base is described here only through its behaviour at
the height-one primes where it ramifies: each prime carries a ramification
index e and a block structure (the sizes making the completed order a block
upper-triangular matrix order). Everything derived from that datum is exact
rational arithmetic: the discriminant divisor sum((e-1)/e) * D_p and the
ladder of valuations carried by the graded pieces of the index-one cover of the
centre.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ResourceLimit
from .numerals import exact
from .records import Record, sequence

# The graded pieces are listed whole, so m is a desk-scale bound: at 10**6
# the tuple and its text took 139 MB.
MAX_GRADING_LENGTH = 10_000


class RamificationDatum(Record):
    """One ramified height-one prime: its label, index e, and block sizes,
    which default to e ones. e and every block size are ints, never bools."""

    __slots__ = _fields = ("prime_id", "e", "blocks")
    _defaults = (None,)

    def __post_init__(self):
        if not isinstance(self.prime_id, str) or not self.prime_id:
            raise ValueError("prime_id must be a nonempty string")
        if type(self.e) is not int or self.e < 1:
            raise ValueError(f"ramification index must be a positive integer, got {self.e!r}")
        blocks = (1,) * self.e if self.blocks is None else sequence(self.blocks, "blocks")
        if len(blocks) != self.e:
            raise ValueError(f"expected {self.e} block sizes, got {len(blocks)}")
        if not all(type(n) is int and n >= 1 for n in blocks):
            raise ValueError("block sizes must be positive integers")
        object.__setattr__(self, "blocks", blocks)


class OrderSpec(Record):
    """A named order given by its ramification data (inputs, never derived)."""

    __slots__ = _fields = ("name", "ramification")

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("order name must be a nonempty string")
        data = sequence(self.ramification, "ramification")
        seen = set()
        for datum in data:
            if not isinstance(datum, RamificationDatum):
                raise ValueError("ramification entries must be RamificationDatum")
            if datum.prime_id in seen:
                raise ValueError(f"duplicate prime {datum.prime_id!r}")
            seen.add(datum.prime_id)
        object.__setattr__(self, "ramification", data)


class QDivisor(Record):
    """Formal rational combination of named prime divisors, zero terms dropped."""

    __slots__ = _fields = ("terms",)

    def __post_init__(self):
        seen = set()
        clean = []
        for prime_id, coeff in self.terms:
            if not isinstance(prime_id, str) or not prime_id:
                raise ValueError("prime ids must be nonempty strings")
            if prime_id in seen:
                raise ValueError(f"duplicate prime {prime_id!r}")
            seen.add(prime_id)
            coeff = exact(coeff)
            if coeff != 0:
                clean.append((prime_id, coeff))
        object.__setattr__(self, "terms", tuple(clean))

    def coefficient(self, prime_id: str) -> Fraction:
        for pid, coeff in self.terms:
            if pid == prime_id:
                return coeff
        return Fraction(0)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{coeff}*{pid}" for pid, coeff in self.terms)


def standard_index(coeff) -> int | None:
    """The e with coeff == (e-1)/e, or None if the coefficient is not standard.

    (e-1)/e is in lowest terms, so p/q in lowest terms is standard exactly
    when q - p = 1 (which also gives 0 <= p/q < 1), and then e = q. TypeError
    for anything but an int or a Fraction, as numerals.exact gives it.
    """
    coeff = exact(coeff)
    p, q = coeff.numerator, coeff.denominator
    return q if q - p == 1 else None


def discriminant(spec: OrderSpec) -> QDivisor:
    """Boundary divisor sum over ramified primes of (e-1)/e * D_p.

    Primes with e = 1 contribute nothing; rounding the result up recovers the
    classical (reduced) discriminant locus.
    """
    return QDivisor(
        tuple((d.prime_id, Fraction(d.e - 1, d.e)) for d in spec.ramification)
    )


def cover_graded_valuations(e: int, m: int) -> tuple:
    """Valuations -floor(i*(e-1)/e) of the m graded pieces of the index cover.

    Each value equals both the scalar centralizer of the i-th dualizing power
    of the standard order with index e, and minus the coefficient of the
    rounded-down multiple floor(i*D) of the boundary at that prime; the test
    suite verifies all three routes agree. ResourceLimit when m exceeds
    MAX_GRADING_LENGTH.
    """
    if type(e) is not int or e < 1:
        raise ValueError(f"ramification index must be a positive integer, got {e!r}")
    if type(m) is not int or m < 1:
        raise ValueError(f"grading length must be a positive integer, got {m!r}")
    if m > MAX_GRADING_LENGTH:
        raise ResourceLimit.over(f"grading length {m}", "MAX_GRADING_LENGTH", MAX_GRADING_LENGTH)
    return tuple(-(i * (e - 1) // e) for i in range(m))
