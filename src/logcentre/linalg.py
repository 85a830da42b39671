"""Small exact integer kernels: a primitive vector and a congruence lattice.

Everything here is in integers, and no elimination is left: the solves and
determinants of toric are closed forms over its signed minors (toric._minors),
as every matrix there has size at most MAX_DIM. primitive_vector divides an
integer vector by the gcd of its entries. The one lattice kernel,
congruence_basis, writes down the Hermite basis of the lattice of one
congruence w.x = 0 mod m from w and m, as columns.
"""

from __future__ import annotations

from math import gcd


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

