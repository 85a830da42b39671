"""Reproducible streams of small cone pairs with standard boundaries.

Used to cross-check the downstairs klt test against the upstairs canonical
test on covers over many randomly shaped inputs. Generation is deterministic
in the seed. Three families are interleaved: simplicial surface cones with
boundary indices in {1, 2, 3, 4, 6}, simplicial threefold cones with indices
in {1, 2, 3}, and cones over sheared unit squares at height one with empty
boundary. Samples whose cover would need an oversized Hilbert enumeration are
rejected up front so a batch stays desk-scale.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from .errors import LogCentreError, ResourceLimit
from .toric import (
    Cone,
    ConePair,
    Lattice,
    ToricDivisor,
    cartier_index,
    log_canonical_cover,
    pair_functional,
)

_MAX_ATTEMPTS = 1000
_MAX_COVER_BOX = 20000


def _box_count(rays, dim: int) -> int:
    total = 1
    for i in range(dim):
        lo = sum(min(0, ray[i]) for ray in rays)
        hi = sum(max(0, ray[i]) for ray in rays)
        total *= hi - lo + 1
    return total


def _cover_is_tame(pair: ConePair, max_index: int) -> bool:
    u = pair_functional(pair)
    if u is None or cartier_index(u) > max_index:
        return False
    try:
        cover = log_canonical_cover(pair)
    except ResourceLimit:
        return False
    return _box_count(cover.cover_cone.rays, cover.cover_cone.dim) <= _MAX_COVER_BOX


def _random_ray(rng: random.Random, dim: int, bound: int):
    while True:
        vec = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if any(vec):
            return linalg.primitive_vector(vec)


def _simplicial_pair(rng: random.Random, dim: int, bound: int, indices, max_index: int):
    for _ in range(_MAX_ATTEMPTS):
        rays = []
        while len(rays) < dim:
            ray = _random_ray(rng, dim, bound)
            if ray not in rays:
                rays.append(ray)
        if linalg.det_int(rays) == 0:
            continue
        boundary = tuple(Fraction(e - 1, e) for e in (rng.choice(indices) for _ in rays))
        pair = ConePair(Cone(Lattice.standard(dim), tuple(rays)), ToricDivisor(boundary))
        if _cover_is_tame(pair, max_index):
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
