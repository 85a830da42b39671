"""Reference answers computed without logcentre.

Each function is a closed form that the benchmark compares against the
program's output, so a wrong answer from the code under test cannot also
produce its own reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def klt_closed_form(coeffs) -> bool:
    """A toric pair with Q-Cartier K+D is klt exactly when every boundary
    coefficient is below 1."""
    return all(Fraction(c) < 1 for c in coeffs)


def rectangle_points(a: int, b: int) -> set:
    """Hilbert basis of the Gorenstein cone over [0,a]x[0,b] at height 1: the
    (a+1)(b+1) lattice points of the rectangle, since lattice polygons are
    normal."""
    return {(i, j, 1) for i in range(a + 1) for j in range(b + 1)}


def cyclic_quotients(max_r: int) -> list:
    """(r, a, b) with 2 <= r <= max_r and a <= b units mod r: the isolated
    quotients 1/r(1,a,b) up to swapping a and b."""
    out = []
    for r in range(2, max_r + 1):
        units = [u for u in range(1, r) if gcd(u, r) == 1]
        for i, a in enumerate(units):
            out.extend((r, a, b) for b in units[i:])
    return out


def reid_tai_canonical(r: int, weights) -> bool:
    """Reid-Tai criterion: 1/r(w) is canonical iff sum {k w_i / r} >= 1 for
    every k = 1, ..., r-1 (Reid, "Young person's guide to canonical
    singularities", 1987)."""
    return all(sum(k * w % r for w in weights) >= r for k in range(1, r))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num, den = 1, 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def quantum_binomial(n: int, q: int, c1, c2) -> dict:
    """Normal form of (c1*x + c2*y)^n in the quantum plane y*x = q*x*y:
    sum_k [n,k]_q c1^k c2^(n-k) x^k y^(n-k), keyed by word."""
    c1, c2 = Fraction(c1), Fraction(c2)
    return {
        "x" * k + "y" * (n - k): gaussian_binomial(n, k, q) * c1**k * c2 ** (n - k)
        for k in range(n + 1)
    }
