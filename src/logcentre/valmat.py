"""Min-plus matrices of fractional ideals over a discrete valuation ring.

Fix a DVR R with uniformizer t. Every nonzero fractional ideal of R is t^v R
for a unique integer v, so a square matrix whose entries are nonzero
fractional ideals is stored as a matrix of integer valuations (`ValMatrix`).
Sums of ideals take the minimum valuation and products add valuations, so
products of ideal matrices are matrix products over the min-plus (tropical)
semiring.

The hereditary-order constructions live at this level: the standard order with
a given ramification index e, arbitrary integer powers of its radical (the
dualizing bimodule is the (1-e)-th), and the scalar centralizer of a bimodule.
No entry is ever the zero ideal: a bimodule of a hereditary order is a full
lattice, so each of its entries is a nonzero fractional ideal. Closed forms
are used for the powers; the test suite replays them against brute-force
tropical products and against an element-level model of exact monomial
matrices, which lives with the tests.
"""

from __future__ import annotations

from .errors import ResourceLimit
from .records import Record

# Products and the centralizer are cubic in e: centralizer(omega_power(e, 1)) takes
# about 0.15 s at e = 100 and 1.2 s at e = 200 (2-core VM, Python 3.11).
MAX_RAMIFICATION_INDEX = 100


class ValMatrix(Record):
    """Square matrix of valuations; entry (j, k) encodes the ideal t^v R."""

    __slots__ = _fields = ("entries",)

    def __post_init__(self):
        rows = tuple(map(tuple, self.entries))
        if not rows:
            raise ValueError("matrix must be nonempty")
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        for v in (v for row in rows for v in row):
            if type(v) is not int:
                raise ValueError(f"valuation entries must be integers, got {v!r}")
        object.__setattr__(self, "entries", rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    def diagonal(self) -> tuple:
        return tuple(self.entries[j][j] for j in range(self.size))


def _check_index(e: int) -> int:
    if type(e) is not int or e < 1:
        raise ValueError(f"ramification index must be a positive integer, got {e!r}")
    if e > MAX_RAMIFICATION_INDEX:
        raise ResourceLimit.over(f"ramification index {e}",
                                 "MAX_RAMIFICATION_INDEX", MAX_RAMIFICATION_INDEX)
    return e


def standard_order(e: int) -> ValMatrix:
    """Standard hereditary order with ramification index e: units on and above
    the diagonal, the maximal ideal strictly below: the radical's 0-th power."""
    return radical_power(e, 0)


def tropical_mul(a: ValMatrix, b: ValMatrix) -> ValMatrix:
    """Exact product of fractional-ideal matrices (min-plus matrix product)."""
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    bcols = tuple(zip(*b.entries))
    return ValMatrix(
        tuple(
            tuple(min(x + y for x, y in zip(row, col)) for col in bcols)
            for row in a.entries
        )
    )


def radical_power(e: int, i: int) -> ValMatrix:
    """i-th power of the radical, closed form, any integer i.

    Negative powers are the inverse fractional bimodules; i = 0 returns the
    standard order itself.
    """
    _check_index(e)
    if type(i) is not int:
        raise ValueError(f"power must be an integer, got {i!r}")
    return ValMatrix(
        tuple(tuple(-((k - j - i) // e) for k in range(e)) for j in range(e))
    )


def omega_power(e: int, i: int) -> ValMatrix:
    """i-th power of the dualizing bimodule (i >= 0), closed form."""
    _check_index(e)
    if type(i) is not int or i < 0:
        raise ValueError(f"dualizing power must be a nonnegative integer, got {i!r}")
    return radical_power(e, -i * (e - 1))


def centralizer(m: ValMatrix) -> int:
    """Valuation v of the largest central scalar ideal t^v with t^v * 1 inside m.

    m must be a bimodule over the standard order of matching size, which is
    checked by closure under tropical multiplication on both sides.
    """
    order = standard_order(m.size)
    if tropical_mul(tropical_mul(order, m), order) != m:
        raise ValueError("matrix is not closed under multiplication by the standard order")
    return max(m.diagonal())
