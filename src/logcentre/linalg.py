"""Small exact linear-algebra kernels over the integers.

Everything here is dense, tiny (dimension at most a handful), and exact, and
there is no Fraction elimination: a rational system is scaled to integers and
solved by Cramer's rule on an integer cofactor determinant, and lattice work
uses extended gcd column operations. Inputs are sequences of rows unless a
function says columns.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


def clear_denominators(row) -> list:
    """The rational row times the lcm of its denominators, as integers."""
    m = lcm(*(x.denominator for x in row))
    return [x.numerator * (m // x.denominator) for x in row]


def solve_exact(rows, rhs):
    """Solve row_i . x = rhs_i exactly for d unknowns.

    Each equation is scaled to integers, the first d-subset of the equations
    with a nonzero integer determinant is solved by Cramer's rule, and the
    solution is checked against every equation in integers. Returns the
    solution as a tuple of Fractions, or None when the system is inconsistent.
    Raises ValueError when rhs has not one entry per equation, or when no d
    equations are independent (column rank below d), consistent or not.
    """
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} equations but {len(rhs)} right-hand sides")
    n = len(rows[0])
    eqs = [clear_denominators([*row, r]) for row, r in zip(rows, rhs)]
    for subset in combinations(eqs, n):
        det = det_int([eq[:n] for eq in subset])
        if det:
            break
    else:
        raise ValueError("system does not determine a unique solution")
    nums = [det_int([eq[:i] + eq[n:] + eq[i + 1 : n] for eq in subset]) for i in range(n)]
    if any(sum(a * x for a, x in zip(eq, nums)) != eq[n] * det for eq in eqs):
        return None
    return tuple(Fraction(x, det) for x in nums)


def primitive_vector(v):
    """Divide an integer vector by the gcd of its entries (orientation kept)."""
    ints = []
    for x in v:
        if not isinstance(x, int):
            raise ValueError(f"expected integer coordinates, got {x!r}")
        ints.append(x)
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


def xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def hermite_column_form(cols):
    """Canonical basis of the integer column span: lower triangular, positive
    diagonal, entries left of the diagonal reduced into [0, pivot)."""
    work = [list(c) for c in cols]
    if not work:
        raise ValueError("no columns given")
    d = len(work[0])
    pivot = 0
    for row in range(d):
        j = next((j for j in range(pivot, len(work)) if work[j][row] != 0), None)
        if j is None:
            continue
        work[pivot], work[j] = work[j], work[pivot]
        for j in range(pivot + 1, len(work)):
            a, b = work[pivot][row], work[j][row]
            if b == 0:
                continue
            g, x, y = xgcd(a, b)
            cp, cj = work[pivot], work[j]
            work[pivot] = [x * p + y * q for p, q in zip(cp, cj)]
            work[j] = [(-b // g) * p + (a // g) * q for p, q in zip(cp, cj)]
        if work[pivot][row] < 0:
            work[pivot] = [-v for v in work[pivot]]
        for j in range(pivot):
            q = work[j][row] // work[pivot][row]
            if q:
                work[j] = [p - q * t for p, t in zip(work[j], work[pivot])]
        pivot += 1
    return [tuple(c) for c in work[:pivot]]


def det_int(cols) -> int:
    """Determinant of a square integer matrix by cofactor expansion along its
    first column (rows or columns alike); the 0x0 matrix has determinant 1.
    Exponential in the size, which stays at most MAX_DIM = 4 in toric."""
    if not cols:
        return 1
    total = 0
    for i, x in enumerate(cols[0]):
        if x:
            minor = [col[:i] + col[i + 1 :] for col in cols[1:]]
            total += (-1) ** i * x * det_int(minor)
    return total
