"""Min-plus matrices of fractional ideals over a discrete valuation ring.

Fix a DVR R with uniformizer t. Every nonzero fractional ideal of R is t^v R
for a unique integer v, and the zero ideal is the valuation +infinity. A square
matrix whose entries are fractional ideals is therefore stored as a matrix of
valuations (`ValMatrix`, with `INF` for the zero ideal). Sums of ideals take
the minimum valuation and products add valuations, so products of ideal
matrices are matrix products over the min-plus (tropical) semiring.

The hereditary-order constructions live at this level: the standard order with
a given ramification index e, its radical and dualizing bimodule, arbitrary
integer powers of both, block inflation, and the scalar centralizer of a
bimodule. Closed forms are used for the powers; the test suite replays them
against brute-force tropical products.

`MonomialMatrix` is the element-level oracle. Its entries are single Laurent
monomials q * t^n (or zero) and it multiplies as an ordinary matrix, raising
`RepresentationOverflow` if a product entry is not again a monomial. The
normal element y with y^e = t lives here, so identities such as "the radical
is generated by y on either side" can be checked on actual elements rather
than on valuations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import PreconditionViolation, RepresentationOverflow


class _PlusInfinity:
    """Valuation of the zero ideal: absorbing for +, maximal for comparisons."""

    __slots__ = ()

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _PlusInfinity)

    def __gt__(self, other):
        return not isinstance(other, _PlusInfinity)

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return isinstance(other, _PlusInfinity)

    def __ne__(self, other):
        return not isinstance(other, _PlusInfinity)

    def __hash__(self):
        return hash("valmat.INF")

    def __repr__(self):
        return "INF"


INF = _PlusInfinity()

Valuation = Union[int, _PlusInfinity]

BlockStructure = tuple  # tuple of positive ints, one block size per row/column


def _check_valuation(v) -> Valuation:
    if isinstance(v, _PlusInfinity):
        return INF
    if isinstance(v, int):
        return v
    raise ValueError(f"valuation entries must be integers or INF, got {v!r}")


@dataclass(frozen=True)
class ValMatrix:
    """Square matrix of valuations; entry (j, k) encodes the ideal t^v R."""

    entries: tuple

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise ValueError("matrix must be nonempty")
        rows = []
        for row in self.entries:
            row = tuple(_check_valuation(v) for v in row)
            if len(row) != n:
                raise ValueError("matrix must be square")
            rows.append(row)
        object.__setattr__(self, "entries", tuple(rows))

    @classmethod
    def from_rows(cls, rows) -> "ValMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def size(self) -> int:
        return len(self.entries)

    def diagonal(self) -> tuple:
        return tuple(self.entries[j][j] for j in range(self.size))

    def shift(self, v: int) -> "ValMatrix":
        """Scale every entry by t^v."""
        return ValMatrix(tuple(tuple(x + v for x in row) for row in self.entries))

    def __str__(self):
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"


def _check_index(e: int) -> int:
    if not isinstance(e, int) or e < 1:
        raise ValueError(f"ramification index must be a positive integer, got {e!r}")
    return e


def standard_order(e: int) -> ValMatrix:
    """Standard hereditary order with ramification index e: units on and above
    the diagonal, the maximal ideal strictly below."""
    _check_index(e)
    return ValMatrix(tuple(tuple(0 if k >= j else 1 for k in range(e)) for j in range(e)))


def jacobson_radical(e: int) -> ValMatrix:
    """Radical of the standard order: units strictly above the diagonal, the
    maximal ideal on and below."""
    _check_index(e)
    return ValMatrix(tuple(tuple(0 if k > j else 1 for k in range(e)) for j in range(e)))


def dualizing_module(e: int) -> ValMatrix:
    """Dualizing bimodule of the standard order: the (1-e)-th radical power."""
    _check_index(e)
    return ValMatrix(tuple(tuple(-1 if k > j else 0 for k in range(e)) for j in range(e)))


def tropical_identity(size: int) -> ValMatrix:
    """Identity for tropical_mul: units on the diagonal, zero ideals elsewhere."""
    _check_index(size)
    return ValMatrix(tuple(tuple(0 if k == j else INF for k in range(size)) for j in range(size)))


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
    if not isinstance(i, int):
        raise ValueError(f"power must be an integer, got {i!r}")
    return ValMatrix(
        tuple(tuple(-((k - j - i) // e) for k in range(e)) for j in range(e))
    )


def omega_power(e: int, i: int) -> ValMatrix:
    """i-th power of the dualizing bimodule (i >= 0), closed form."""
    _check_index(e)
    if not isinstance(i, int) or i < 0:
        raise ValueError(f"dualizing power must be a nonnegative integer, got {i!r}")
    return radical_power(e, -i * (e - 1))


def centralizer(m: ValMatrix) -> Valuation:
    """Valuation v of the largest central scalar ideal t^v with t^v * 1 inside m.

    m must be a bimodule over the standard order of matching size, which is
    checked by closure under tropical multiplication on both sides.
    """
    order = standard_order(m.size)
    if tropical_mul(tropical_mul(order, m), order) != m:
        raise PreconditionViolation(
            "matrix is not closed under multiplication by the standard order"
        )
    return max(m.diagonal())


def inflate(a: ValMatrix, blocks) -> ValMatrix:
    """Blow each scalar entry up to a constant block of the given sizes.

    blocks lists one positive size per row/column of a; the result is square of
    size sum(blocks) and Morita-corresponds to the same bimodule.
    """
    blocks = tuple(blocks)
    if len(blocks) != a.size:
        raise ValueError(f"expected {a.size} block sizes, got {len(blocks)}")
    if not all(isinstance(n, int) and n >= 1 for n in blocks):
        raise ValueError("block sizes must be positive integers")
    rows = []
    for j, nj in enumerate(blocks):
        row = []
        for k, nk in enumerate(blocks):
            row.extend([a.entries[j][k]] * nk)
        rows.extend([tuple(row)] * nj)
    return ValMatrix(tuple(rows))


# ---------------------------------------------------------------------------
# Exact monomial matrices: the element-level oracle.

Monomial = tuple  # (coefficient: Fraction, exponent: int); None encodes zero


def _norm_monomial(entry) -> Optional[Monomial]:
    if entry is None or entry == 0:
        return None
    coeff, exp = entry
    coeff = Fraction(coeff)
    if not isinstance(exp, int):
        raise ValueError(f"monomial exponent must be an integer, got {exp!r}")
    if coeff == 0:
        return None
    return (coeff, exp)


@dataclass(frozen=True)
class MonomialMatrix:
    """Square matrix whose entries are single Laurent monomials q * t^n or zero."""

    entries: tuple

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise ValueError("matrix must be nonempty")
        rows = []
        for row in self.entries:
            row = tuple(_norm_monomial(x) for x in row)
            if len(row) != n:
                raise ValueError("matrix must be square")
            rows.append(row)
        object.__setattr__(self, "entries", tuple(rows))

    @classmethod
    def from_rows(cls, rows) -> "MonomialMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def size(self) -> int:
        return len(self.entries)


def monomial_identity(size: int) -> MonomialMatrix:
    _check_index(size)
    one = (Fraction(1), 0)
    return MonomialMatrix(
        tuple(tuple(one if k == j else None for k in range(size)) for j in range(size))
    )


def t_scalar(size: int, power: int = 1) -> MonomialMatrix:
    """The central scalar matrix t^power * identity."""
    return monomial_scale(monomial_identity(size), exp=power)


def monomial_mul(a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
    """Ordinary matrix product; every entry sum must collapse to one monomial."""
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    n = a.size
    rows = []
    for i in range(n):
        row = []
        for k in range(n):
            sums = {}
            for j in range(n):
                x, y = a.entries[i][j], b.entries[j][k]
                if x is None or y is None:
                    continue
                exp = x[1] + y[1]
                sums[exp] = sums.get(exp, Fraction(0)) + x[0] * y[0]
            nonzero = {e: c for e, c in sums.items() if c != 0}
            if len(nonzero) > 1:
                raise RepresentationOverflow(
                    f"entry ({i},{k}) mixes t-exponents {sorted(nonzero)}"
                )
            if nonzero:
                ((exp, coeff),) = nonzero.items()
                row.append((coeff, exp))
            else:
                row.append(None)
        rows.append(tuple(row))
    return MonomialMatrix(tuple(rows))


def monomial_pow(a: MonomialMatrix, k: int) -> MonomialMatrix:
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"power must be a nonnegative integer, got {k!r}")
    out = monomial_identity(a.size)
    for _ in range(k):
        out = monomial_mul(out, a)
    return out


def monomial_scale(a: MonomialMatrix, coeff=1, exp: int = 0) -> MonomialMatrix:
    """Scale by the central monomial coeff * t^exp."""
    coeff = Fraction(coeff)
    rows = []
    for row in a.entries:
        rows.append(
            tuple(
                None if x is None or coeff == 0 else (x[0] * coeff, x[1] + exp)
                for x in row
            )
        )
    return MonomialMatrix(tuple(rows))


def y_matrix(e: int) -> MonomialMatrix:
    """The normal element y of the standard order: ones on the superdiagonal
    and t in the lower-left corner, so that y^e = t."""
    _check_index(e)
    one = (Fraction(1), 0)
    rows = []
    for j in range(e):
        row = [None] * e
        if j + 1 < e:
            row[j + 1] = one
        else:
            row[0] = (Fraction(1), 1)
        rows.append(tuple(row))
    return MonomialMatrix(tuple(rows))


def y_power(e: int, i: int) -> MonomialMatrix:
    """y^i for any integer i; negative powers use y^-e = t^-1."""
    _check_index(e)
    if not isinstance(i, int):
        raise ValueError(f"power must be an integer, got {i!r}")
    q, r = divmod(i, e)
    return monomial_scale(monomial_pow(y_matrix(e), r), exp=q)


def ideal_of(a: MonomialMatrix) -> ValMatrix:
    """Valuation matrix of the fractional-ideal matrix generated entrywise by a."""
    return ValMatrix(
        tuple(
            tuple(INF if x is None else x[1] for x in row)
            for row in a.entries
        )
    )
