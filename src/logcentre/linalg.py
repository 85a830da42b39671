"""Small exact linear-algebra kernels over the integers.

Everything here is dense, small, and exact, and there is no Fraction
elimination. Determinants and solves share one fraction-free (Bareiss)
elimination in integers (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968). There is one
integer solve, solve_scaled: integer equations in, integer numerators over one
least common denominator out; callers write rational equations as integer
rows, and nothing here makes a Fraction.
adjugate solves for every unit vector after one elimination of [P | I]: the
integer normals dual to the rows of P, scaled by |det P|.
Lattice work uses extended gcd column operations (hermite_column_form), except
for the lattice of one congruence w.x = 0 mod m, whose Hermite basis
congruence_basis writes down from w and m. Inputs are sequences of rows unless
a function says columns.
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


def _back_substitute(rows, n: int, det: int, column: int) -> list:
    """det * x, the Cramer numerators, for the upper triangular rows[:n] left by
    _eliminate, with the right-hand side in the given column."""
    nums = [0] * n
    for k in reversed(range(n)):
        row = rows[k]
        rest = sum(map(mul, row[k + 1 : n], nums[k + 1 :]))
        nums[k] = (det * row[column] - rest) // row[k]
    return nums


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
    nums = _back_substitute(eqs, n, det, n)
    s = gcd(det, *nums)
    if det < 0:
        s = -s
    return tuple(x // s for x in nums), det // s


def adjugate(rows):
    """Integer normals n_i of the nonsingular square integer matrix P with rows
    v_j, such that n_i . v_j = |det P| * [i == j], as (normals, |det P|); None
    when P is singular.

    One fraction-free elimination of [P | I], then the back substitution of
    solve_scaled for each column e_i of I: det * x with P x = e_i is column i
    of the adjugate of P, and n_i is that column times the sign of det.
    """
    d = len(rows)
    work = [[*row, *(0,) * i, 1, *(0,) * (d - 1 - i)] for i, row in enumerate(rows)]
    det = _eliminate(work, d)
    if not det:
        return None
    normals = [_back_substitute(work, d, det, d + i) for i in range(d)]
    if det < 0:
        return [[-x for x in normal] for normal in normals], -det
    return normals, det


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


def congruence_basis(w, m: int):
    """The hermite_column_form of the lattice {x in Z^d : w.x = 0 mod m},
    written down from w and m with no elimination (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4); ValueError unless m >= 1 and
    gcd(m, *w) = 1.

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
