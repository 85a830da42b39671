"""Reference implementations that only tests use.

Fraction Gauss-Jordan elimination is the independent route against which the
integer kernels of ``logcentre.linalg`` (Cramer's rule on integer determinants,
facet normals from signed minors) are checked.
"""

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        d = m[r][c]
        m[r] = [x / d for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows):
    return len(rref(rows)[1]) if rows else 0
