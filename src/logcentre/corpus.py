"""Reproducible streams of small cone pairs with standard boundaries.

Used to cross-check the downstairs klt test against the upstairs canonical
test on covers over many randomly shaped inputs. Generation is deterministic
in the seed. Three families are interleaved: simplicial surface cones with
boundary indices in {1, 2, 3, 4, 6}, simplicial threefold cones with indices
in {1, 2, 3}, and cones over sheared unit squares at height one with empty
boundary. A simplicial sample is kept when -(K+D) is Q-Cartier of index at
most 12 (surfaces) or 6 (threefolds). That gate alone keeps every cover
desk-scale, so no cover is built here. A simplicial cover has one piece, and
its fundamental parallelepiped holds |det| = |det(v)| * prod(e_i) / m points,
as the rescaled rays e_i * v_i span a sublattice of index |det(v)| * prod(e_i)
and the cover lattice has index m. Each e_i divides m, so prod(e_i) / m is at
most prod(e_i) / lcm(e_i): gcd(e_1, e_2) <= 6 (surfaces) or 27 / 3 = 9
(threefolds). |det(v)| is at most 32 for entries in [-4, 4] (2 x 2) or [-2, 2]
(3 x 3): at most 192 or 288 points, far below toric.MAX_PARALLELEPIPED_POINTS
(over seeds 0-59 at 1200 pairs each the largest are 48 and 108). A square cone
is its own cover, with two unimodular pieces. The canonical test lists none of
these points: a cover's canonical class is Cartier.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .errors import LogCentreError
from .toric import Cone, ConePair, Lattice, ToricDivisor, pair_functional

_MAX_ATTEMPTS = 1000


def _random_ray(rng: random.Random, dim: int, bound: int):
    while True:
        vec = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if any(vec):
            g = gcd(*vec)
            return tuple(x // g for x in vec)


def _simplicial_pair(rng: random.Random, dim: int, bound: int, indices, max_index: int):
    for _ in range(_MAX_ATTEMPTS):
        rays = []
        while len(rays) < dim:
            ray = _random_ray(rng, dim, bound)
            if ray not in rays:
                rays.append(ray)
        try:
            cone = Cone(Lattice.standard(dim), tuple(rays))
        except ValueError:
            # d distinct primitive rays with coordinates at most 4 are refused
            # only as "cone is not full-dimensional", exactly when their
            # determinant is 0; the boundary is drawn only for a built cone.
            continue
        boundary = tuple(Fraction(e - 1, e) for e in (rng.choice(indices) for _ in rays))
        pair = ConePair(cone, ToricDivisor(boundary))
        solved = pair_functional(pair)
        if solved is not None and solved[1] <= max_index:  # Q-Cartier of small index
            return pair
    raise LogCentreError("could not sample a tame simplicial pair")


def _square_pair(rng: random.Random) -> ConePair:
    shear = rng.randint(-2, 2)
    tx, ty = rng.randint(-2, 2), rng.randint(-2, 2)
    corners = (
        (tx, ty),
        (tx + 1, ty),
        (tx + shear, ty + 1),
        (tx + shear + 1, ty + 1),
    )
    rays = tuple((x, y, 1) for x, y in corners)
    return ConePair(
        Cone(Lattice.standard(3), rays), ToricDivisor((0,) * len(rays))
    )


def random_standard_pairs(seed: int = 0, count: int = 60) -> tuple:
    """Deterministic batch of pairs whose covers are cheap to analyse."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        kind = len(pairs) % 3
        if kind == 0:
            pairs.append(_simplicial_pair(rng, 2, 4, (1, 2, 3, 4, 6), 12))
        elif kind == 1:
            pairs.append(_simplicial_pair(rng, 3, 2, (1, 2, 3), 6))
        else:
            pairs.append(_square_pair(rng))
    return tuple(pairs)
