"""Small exact linear-algebra kernels over the integers.

Everything here is dense, small, and exact, and there is no Fraction
elimination. Determinants and solves, of any size, share one fraction-free
(Bareiss) elimination in integers (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968).
There is one integer solve, solve_scaled: integer equations in, integer
numerators over one least common denominator out; callers write rational
equations as integer rows, and nothing here makes a Fraction. The one lattice
kernel, congruence_basis, writes down the Hermite basis of the lattice of one
congruence w.x = 0 mod m from w and m. Inputs are sequences of rows unless a
function says columns.
"""

from __future__ import annotations

from math import gcd
from operator import mul


def _eliminate(rows, n: int) -> int:
    """Fraction-free elimination of the integer rows on their first n columns,
    in place: below pivot p, row i becomes p*row_i - row_i[k]*pivot, divided
    exactly by the previous pivot. Afterwards rows[:n] are upper triangular and
    every later row is zero on the first n columns; its other entries are zero
    where it agrees with the combination of pivot rows that matches it on them.
    Returns 0 when the first n columns have rank below n, else the last pivot
    times the sign of the row swaps: for an n x n matrix, its determinant.
    """
    if len(rows) < n:
        return 0
    sign, previous = 1, 1
    for k in range(n):
        pivot = rows[k]
        if not pivot[k]:
            i = next((i for i in range(k + 1, len(rows)) if rows[i][k]), None)
            if i is None:
                return 0
            rows[k], rows[i], pivot = rows[i], pivot, rows[i]
            sign = -sign
        p = pivot[k]
        for i in range(k + 1, len(rows)):
            a = rows[i][k]
            if a or p != previous:  # otherwise the row stays as it is
                rows[i] = [(p * x - a * y) // previous for x, y in zip(rows[i], pivot)]
        previous = p
    return sign * previous


def solve_scaled(eqs):
    """Solve the integer augmented rows [a_1 ... a_d, b] (a . x = b) exactly.

    The rows are eliminated without fractions. The system is consistent
    exactly when the equations left over below the d pivot rows have become
    0 = 0; back substitution in integers then gives det * x, the Cramer
    numerators, which are reduced with det by their common gcd. Returns
    (w, m) with m >= 1 and gcd(m, *w) = 1, so that the solution is w/m and m
    is the lcm of its denominators, or None when the system is inconsistent.
    Raises ValueError when no d equations are independent (column rank below
    d), consistent or not.
    """
    n = len(eqs[0]) - 1
    eqs = list(eqs)
    det = _eliminate(eqs, n)
    if not det:
        raise ValueError("system does not determine a unique solution")
    if any(eq[n] for eq in eqs[n:]):
        return None
    nums = [0] * n
    for k in reversed(range(n)):
        row = eqs[k]
        nums[k] = (det * row[n] - sum(map(mul, row[k + 1 : n], nums[k + 1 :]))) // row[k]
    s = gcd(det, *nums)
    if det < 0:
        s = -s
    return tuple(x // s for x in nums), det // s


def primitive_vector(v):
    """Divide an integer vector by the gcd of its entries (orientation kept)."""
    ints = []
    for x in v:
        if type(x) is not int:
            raise ValueError(f"expected integer coordinates, got {x!r}")
        ints.append(x)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


def congruence_basis(w, m: int):
    """The Hermite basis of the lattice {x in Z^d : w.x = 0 mod m}, as columns:
    lower triangular, with a positive diagonal, and each entry left of a
    pivot in its row reduced into [0, pivot). It is written down from w and m
    with no elimination (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4); ValueError unless m >= 1 and gcd(m, *w) = 1.

    With g_k = gcd(m, w_k, ..., w_{d-1}) and g_d = m, the pivot in row k is
    p_k = g_(k+1)/g_k: the least x_k > 0 that later coordinates can complete
    to a lattice point. Below it, row j of the column holds the x_j in
    [0, p_j) that keeps the running residue r = w.x divisible by g_(j+1):
    (w_j/g_j) x_j = -r/g_j mod p_j, one modular inverse per row. The pivots
    multiply to m/g_0 = m, the index.
    """
    d = len(w)
    g = [0] * d + [m]
    for k in reversed(range(d)):
        g[k] = gcd(g[k + 1], w[k])
    if m < 1 or g[0] != 1:
        raise ValueError(f"need m >= 1 and gcd(m, *w) = 1, got w = {tuple(w)}, m = {m}")
    pivots = [g[k + 1] // g[k] for k in range(d)]
    inverses = [pow(w[j] // g[j], -1, p) for j, p in enumerate(pivots)]
    columns = []
    for k, p in enumerate(pivots):
        column = [0] * k + [p]
        r = w[k] * p
        for j in range(k + 1, d):
            x = -(r // g[j]) * inverses[j] % pivots[j]
            r += w[j] * x
            column.append(x)
        columns.append(tuple(column))
    return columns


def det_int(cols) -> int:
    """Determinant of a square integer matrix (rows or columns alike) by
    fraction-free elimination; the 0x0 matrix has determinant 1. Polynomial
    in the size: O(n^3) integer operations on entries no larger than its
    minors."""
    return _eliminate(list(cols), len(cols))
