"""Affine toric log pairs over explicit lattices, with exact divisor tests.

All cone data lives in coordinates with respect to a chosen lattice basis: a
lattice point is an integer coordinate vector, and a divisor functional is a
rational coordinate vector u = w/m, held as the integer pair (w, m) in lowest
terms, so that m is its Cartier index and the pairing with a lattice point v
is the integer w.v over m. The ambient rational basis only matters when
identifying a sublattice (index-one covers) or converting external vectors. A
lattice is held as its integer form, integer basis rows over one denominator
in lowest terms, and Lattice.basis is its Fraction view.

The classification tests are linear algebra. A toric Weil divisor sum(n_i D_i)
is Q-Cartier exactly when some functional u has <u, v_i> = -n_i on every ray
v_i; the pair (X, D) is Kawamata log terminal when the functional representing
-(K+D) exists and is positive on the rays; and a cone whose canonical class is
Q-Cartier is canonical when that functional u is >= 1 on every nonzero lattice
point of the cone. Each functional is solved once, in integers, on one
simplicial piece of the cone from the piece's adjugate, checked on every ray
(_divisor_solution), and returned as (w, m), or None when the divisor is not
Q-Cartier: by q_cartier_functional for any divisor, canonical_functional for K
and pair_functional for -(K+D). as_fractions is the one Fraction view of a
functional, for printing.
Both lattice-point questions are answered from one enumeration (Bruns and
Koch, "Computing the integral closure of an affine semigroup", 2001): the cone
is covered by simplicial pieces, and every lattice point of a piece is a
nonnegative integer combination of its rays plus a point of its half-open
fundamental parallelepiped, which holds |det| points. As u = 1 on every ray, a
point with u < 1 is such a parallelepiped point (Reid's form of the Reid-Tai
criterion, "Young person's guide to canonical singularities", 1987), and so is
every Hilbert basis element other than a ray. Each piece takes the adjugate of
its rays, in integers: normals n_i with n_i.v_j = |det| [i == j], each the
signed minors of the other rays (_adjugate). A coset representative x of the
piece's lattice then gives the residues r_i = n_i.x mod |det|, and r_i / |det|
are the Reid-Tai ages of its parallelepiped point p = sum r_i v_i / |det|; the
representatives are counted by the Hermite pivots of the piece, gcds of its
minors (_pivots). Every minor of a piece, a divisor solve, a dual lattice or a
lattice comparison, and every determinant (_det), comes from the closed forms
of _minors, so nothing here runs an elimination. The canonical test reads
only ages: u(p) is the sum of p's ages, as u = 1 on every ray, so it sums
the residues and builds no point; the Hilbert basis builds p.
Hilbert bases are reduced in order of degree (the sum of the facet values)
against the basis elements already found.
The index-one cover is computed in integers from end to end: the cover lattice
is the Hermite form of one congruence, lower triangular and written down from
the -(K+D) functional (w, m) with no elimination (linalg.congruence_basis),
applied to the base lattice's integer form; its rays are solved on that basis
by forward substitution, and its K functional is the pair's -(K+D) functional
read on it. Its facets are found from its rays, as for any cone, but only when
they are first read.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import chain, combinations, islice, product
from math import comb, gcd, lcm
from operator import itemgetter, mul

from . import linalg
from .errors import InternalError, NotApplicable, ResourceLimit
from .numerals import exact
from .orders import standard_index
from .records import Record

MAX_DIM = 4  # _minors has a closed form in each dimension up to this one
MAX_RAY_COORD = 100
MAX_PARALLELEPIPED_POINTS = 10**6
# _facet_normals pairs each (d-1)-subset of the n rays with each ray, C(n, d-1) * n
# times, and is charged first; a dual cone is given its facets, so it never is. At this
# cap, 28 rays in dimension 4, the cone over (a, b, a^2 + b^2, 1) at 28 points (a, b) in
# -3..3 (test_facet_enumeration_is_capped), 91,728 pairings, builds in about 0.045 s
# (Python 3.11.7, 2-core VM).
MAX_FACET_PAIRINGS = 10**5
# Residues listed at once (_residues): a piece of large determinant is listed in
# bounded memory, and the canonical test stops within one row of its witness.
_ROW_LENGTH = 1024


def _require(condition: bool, message: str) -> None:
    # Internal mathematical postconditions: failing here means a bug, not bad input.
    if not condition:
        raise InternalError(f"internal invariant violated: {message}")


class Lattice(Record):
    """Finite-rank lattice, held as its integer form: basis vector i is the
    integer row scaled[i] over one denominator, with gcd(denominator,
    *scaled) = 1. The form is unique, so two lattices are equal, and hash
    alike, exactly when their bases are equal. basis is its Fraction view.

    Lattice coordinates are taken with respect to this basis, so the standard
    lattice has the identity basis. Lattice(basis) clears a rational basis
    once, over the lcm of its denominators, which leaves the form reduced, and
    refuses it when its determinant (_det, over closed-form minors) is 0.
    same_lattice tests membership of the other basis over the common
    denominator of both lattices, with normals from the adjugate of this one
    (_adjugate). The standard lattice, an
    index-one cover lattice (_sublattice) and the dual lattice, from the
    adjugate of the integer form, are built from integer forms without this
    constructor (_from_integer_form). Lattice(basis) and Lattice.standard
    refuse a dimension above MAX_DIM first (_check_dim), before any minor.
    """

    __slots__ = _fields = ("scaled", "denominator")

    def __init__(self, basis):
        rows = tuple(tuple(exact(x) for x in vec) for vec in basis)
        if not rows or any(len(vec) != len(rows) for vec in rows):
            raise ValueError("basis must be a nonempty square list of vectors")
        _check_dim(len(rows))
        denominator = lcm(*(x.denominator for vec in rows for x in vec))
        scaled = tuple(
            tuple(x.numerator * (denominator // x.denominator) for x in vec) for vec in rows
        )
        if _det(scaled) == 0:
            raise ValueError("matrix is singular")
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "denominator", denominator)

    @classmethod
    def standard(cls, dim: int) -> "Lattice":
        if type(dim) is not int or dim < 1:
            raise ValueError(f"lattice dimension must be a positive integer, got {dim!r}")
        _check_dim(dim)
        return _from_integer_form([[int(i == j) for j in range(dim)] for i in range(dim)], 1)

    @property
    def basis(self) -> tuple:
        """The basis vectors as Fractions: each row of scaled over denominator."""
        return tuple(as_fractions((row, self.denominator)) for row in self.scaled)

    @property
    def dim(self) -> int:
        return len(self.scaled)

    def dual(self) -> "Lattice":
        """Dual lattice; its coordinates pair with this lattice's coordinates:
        dual basis vector i solves <u_i, b_j> = [i == j] over the basis b.

        With b_j = S_j / D for the integer form S over the denominator D, one
        adjugate of S gives n_i.S_j = |det S| [i == j], so u_i = n_i D / |det S|.
        """
        normals, size = _adjugate(self.scaled)
        return _from_integer_form([[x * self.denominator for x in n] for n in normals], size)

    def same_lattice(self, other: "Lattice") -> bool:
        """True when both bases generate the same subgroup of the ambient space.

        Over their common denominator, both are integer bases; they span one
        lattice when their |det| match and every row of the other lies in this
        one: it pairs with each normal of this one's adjugate to a multiple of
        |det| (_adjugate), its coordinate times |det|.
        """
        if self.dim != other.dim:
            return False
        common = lcm(self.denominator, other.denominator)
        first, second = (
            [[x * (common // lattice.denominator) for x in vec] for vec in lattice.scaled]
            for lattice in (self, other)
        )
        normals, size = _adjugate(first)
        return size == _adjugate(second)[1] and all(
            sum(map(mul, n, row)) % size == 0 for n in normals for row in second
        )


def _check_dim(dim: int) -> None:
    """ResourceLimit when a lattice of dimension `dim` is above MAX_DIM."""
    if dim > MAX_DIM:
        raise ResourceLimit.over(f"dimension {dim}", "MAX_DIM", MAX_DIM)


def _minors(vectors, dim: int) -> list:
    """Signed maximal minors of dim - 1 vectors, their generalized cross
    product: entry i is (-1)^i times the determinant of the vectors with
    coordinate i left out. It is orthogonal to each of them, and zero exactly
    when they span less than a hyperplane. Closed forms for dim 1 to MAX_DIM,
    which Lattice checks first: the empty set of vectors gives (1,) in dimension
    1, one vector turns a quarter in dimension 2, two give the cross product in
    dimension 3, and in dimension 4 each 3 x 3 minor is expanded along the
    first vector over the six 2 x 2 minors of the other two.
    """
    if dim == 1:
        return [1]
    if dim == 2:
        ((a0, a1),) = vectors
        return [a1, -a0]
    if dim == 3:
        (a0, a1, a2), (b0, b1, b2) = vectors
        return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = vectors
    m01, m02, m03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
    m12, m13, m23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
    return [
        a1 * m23 - a2 * m13 + a3 * m12,
        a2 * m03 - a0 * m23 - a3 * m02,
        a0 * m13 - a1 * m03 + a3 * m01,
        a1 * m02 - a0 * m12 - a2 * m01,
    ]


def _det(rows) -> int:
    """Determinant of d <= MAX_DIM integer rows, by expansion along the first:
    the first row dotted with the signed minors of the others (_minors)."""
    return sum(map(mul, rows[0], _minors(rows[1:], len(rows))))


def _adjugate(rows) -> tuple:
    """Integer normals n_i of the independent integer rows v_j, with
    n_i.v_j = |det| [i == j], as (normals, |det|): n_i is the signed minors of
    the other rows (_minors), orthogonal to them, and oriented so that
    n_i.v_i > 0, which is then |det| by expansion along v_i. The simplicial
    pieces (_pieces), the divisor solve (_divisor_solution), the dual lattice
    and lattice comparison read it.
    """
    dim = len(rows)
    normals = []
    for i, row in enumerate(rows):
        n = _minors(rows[:i] + rows[i + 1 :], dim)
        size = sum(map(mul, n, row))
        normals.append(n if size > 0 else [-x for x in n])
    _require(size != 0, "adjugate of dependent rows")
    return normals, abs(size)


def _pivots(piece, size: int) -> list:
    """The diagonal of the Hermite column form of the piece's rays, which have
    |det| = size, with no elimination. Let D_k be the gcd of the k x k minors
    of the rays on their first k coordinates, D_0 = 1 and D_d = size; entry k
    of the signed minors (_minors) of k rays cut to k + 1 coordinates is one
    of them. Column operations keep each D_k, and on the lower triangular
    Hermite form D_k is the product of the first k pivots, so pivot k is
    D_(k+1) / D_k.
    """
    gcds = [1]
    for k in range(1, len(piece)):
        cut = [ray[: k + 1] for ray in piece]
        gcds.append(gcd(*(_minors(subset, k + 1)[k] for subset in combinations(cut, k))))
    gcds.append(size)
    return [high // low for low, high in zip(gcds, gcds[1:])]


def _facet_normals(dim: int, rays) -> tuple:
    """The facets of the cone over the rays, sorted, with each facet's
    pairings with the rays, and whether the rays span the space: some
    (d-1)-subset spans a hyperplane that a further ray leaves. The normal of a
    subset is its signed minors (_minors), ints, divided by their gcd; it is a
    facet, oriented to be >= 0 on the rays, when no two rays lie on opposite
    sides of it. The C(n, d-1) * n pairings are checked against
    MAX_FACET_PAIRINGS before any is made.
    """
    pairings = comb(len(rays), dim - 1) * len(rays)
    if pairings > MAX_FACET_PAIRINGS:
        raise ResourceLimit.over(f"{len(rays)} rays in dimension {dim} need {pairings} "
                                 "facet pairings", "MAX_FACET_PAIRINGS", MAX_FACET_PAIRINGS)
    found = {}
    spanning = False
    for subset in combinations(rays, dim - 1):
        n = _minors(subset, dim)
        g = gcd(*n)
        if not g:
            continue
        if g != 1:
            n = [x // g for x in n]
        pairings = [sum(map(mul, n, v)) for v in rays]
        low, high = min(pairings), max(pairings)
        if low or high:
            spanning = True
        if low >= 0:
            found[tuple(n)] = pairings
        elif high <= 0:
            found[tuple(-x for x in n)] = [-p for p in pairings]
    facets = sorted(found)
    return tuple(facets), [found[n] for n in facets], spanning


def _integer_ray(ray) -> tuple:
    """The ray as ints; ValueError naming it for a coordinate that is not an int
    or an integral Fraction, which truncating would turn into another cone, or
    is a bool. The message writes a Fraction as str and anything else as repr."""
    if not all(type(x) is int or isinstance(x, Fraction) and x.denominator == 1 for x in ray):
        shown = (str(x) if isinstance(x, Fraction) else repr(x) for x in ray)
        raise ValueError(f"ray ({', '.join(shown)}) has a non-integer coordinate")
    return tuple(map(int, ray))


def _check_ray_coords(ray, noun: str) -> None:
    """ResourceLimit, with `noun` written before the ray, when a coordinate is
    above MAX_RAY_COORD: "ray", "dual cone ray", or a ray Cone made primitive."""
    top = max(map(abs, ray))
    if top > MAX_RAY_COORD:
        raise ResourceLimit.over(f"{noun} {ray} has a coordinate of {top}",
                                 "MAX_RAY_COORD", MAX_RAY_COORD)


class Cone(Record):
    """Pointed, full-dimensional rational cone listed by primitive extreme rays.

    Each ray is checked once, here, whichever constructor is called: every
    type (_integer_ray), one ray at least, every length, no zero ray, then
    each primitive form, which the cone stores, against MAX_RAY_COORD.
    Facet inequalities are derived at construction and cached; membership is
    <facet, x> >= 0 for all facets. facets is not a field, so equality, hash
    and repr leave it out. Its lattice bounds the dimension (MAX_DIM), and the
    facet enumeration its own work (MAX_FACET_PAIRINGS). An index-one cover and
    a dual cone are built without validation (_cone_with_facets): a dual cone
    is given its facets, and a cover finds them from its rays when first read.
    The facets are the normals of (d-1)-subsets of the rays, each from the
    closed-form signed minors (_minors), so no elimination runs; finding them
    pairs every normal with every ray (_facet_normals). The shape is read off
    the incidence of rays and facets in those pairings, since a face is
    spanned by the rays it contains (Fulton, Introduction to Toric Varieties,
    1.2): the cone is full-dimensional when a ray leaves some hyperplane
    spanned by other rays, pointed when no ray lies on every facet, and a ray
    is extreme when no other ray lies on every facet it lies on.
    """

    _fields = ("lattice", "rays")
    __slots__ = (*_fields, "_facets")

    def __post_init__(self):
        given = tuple(_integer_ray(ray) for ray in self.rays)
        if not given:
            raise ValueError("cone needs at least one ray")
        dim = self.lattice.dim
        if any(len(ray) != dim for ray in given):
            raise ValueError("ray dimension mismatch")
        divisors = [gcd(*ray) for ray in given]
        if 0 in divisors:
            raise ValueError("zero vector has no primitive representative")
        rays = tuple(tuple(x // g for x in ray) for ray, g in zip(given, divisors))
        for ray, primitive in zip(given, rays):
            noun = "ray" if ray == primitive else f"ray {ray}, whose primitive form"
            _check_ray_coords(primitive, noun)
        if len(set(rays)) != len(rays):
            raise ValueError("rays must be pairwise distinct")
        facets, pairings, spanning = _facet_normals(dim, rays)
        if not spanning:
            raise ValueError("cone is not full-dimensional")
        object.__setattr__(self, "rays", rays)
        on = [0] * len(rays)  # bit f of on[r]: ray r lies on facet f
        for f, values in enumerate(pairings):
            for r, value in enumerate(values):
                if not value:
                    on[r] |= 1 << f
        if (1 << len(facets)) - 1 in on:
            raise ValueError("cone is not pointed")
        for ray, mask in zip(rays, on):
            if sum(mask & other == mask for other in on) > 1:  # the ray itself counts once
                raise ValueError(f"ray {ray} is not extreme")
        object.__setattr__(self, "_facets", facets)

    @property
    def facets(self) -> tuple:
        """The facet normals, sorted; found by _facet_normals and cached on
        the first read when the cone was built without them."""
        if self._facets is None:
            object.__setattr__(self, "_facets", _facet_normals(self.dim, self.rays)[0])
        return self._facets

    @classmethod
    def from_rays(cls, rays, lattice: Lattice | None = None) -> "Cone":
        """The cone over the rays in `lattice`, by default the standard lattice
        of the longest ray, refused above MAX_DIM before it is built and before
        any coordinate is read; Cone checks the rays and makes them primitive."""
        rays = tuple(rays)
        if lattice is None:  # with no rays, a line, and the cone refuses them
            lattice = Lattice.standard(max(map(len, rays), default=1))
        return cls(lattice, rays)

    @property
    def dim(self) -> int:
        return self.lattice.dim


class ToricDivisor(Record):
    """Rational coefficients, one per ray of the ambient cone."""

    __slots__ = _fields = ("coeffs",)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(exact(c) for c in self.coeffs))


class ConePair(Record):
    """Affine toric log pair: a cone plus an effective boundary divisor.

    Coefficients live in [0, 1]; cover constructions additionally demand
    standard coefficients (e-1)/e, hence strictly below 1.
    """

    __slots__ = _fields = ("cone", "boundary")

    def __post_init__(self):
        if len(self.boundary.coeffs) != len(self.cone.rays):
            raise ValueError("boundary needs one coefficient per ray")
        for c in self.boundary.coeffs:
            if not 0 <= c <= 1:
                raise ValueError(f"boundary coefficient {c} outside [0, 1]")


def _divisor_solution(cone: Cone, coeffs):
    """The functional u with <u, v_i> = -n_i on every ray as (w, m), u = w/m
    in lowest terms with m the Cartier index, or None when the divisor is not
    Q-Cartier. Each n_i is an integer pair (p_i, q_i), n_i = p_i/q_i, q_i >= 1.

    u is solved on one simplicial piece: v_1 and the first d - 1 rays on the
    first facet that v_1 is off, which are independent for d <= MAX_DIM
    (_pieces); on a simplicial cone that piece is the cone, and no facet is
    read. Their adjugate (_adjugate) gives normals c_j with
    c_j.v_k = |det| [j == k], so with L the lcm of their q_j,
    w = sum_j -p_j (L/q_j) c_j over m = L |det|, reduced by gcd(m, *w). u
    then takes the divisor's values on every ray exactly when
    q_i (w.v_i) = -p_i m for each, true on the piece, else checked in integers.
    """
    rays, dim = cone.rays, cone.dim
    if len(coeffs) != len(rays):
        raise ValueError(f"divisor has {len(coeffs)} coefficients, cone has {len(rays)} rays")
    if len(rays) == dim:
        piece, pairs = rays, coeffs
    else:
        facet = next(n for n in cone.facets if sum(map(mul, n, rays[0])))
        on = [i for i, ray in enumerate(rays) if not sum(map(mul, facet, ray))]
        chosen = [0, *on[: dim - 1]]
        piece, pairs = [rays[i] for i in chosen], [coeffs[i] for i in chosen]
    normals, size = _adjugate(piece)
    common = lcm(*[q for _, q in pairs])
    scales = [-p * (common // q) for p, q in pairs]
    w = [sum(map(mul, scales, axis)) for axis in zip(*normals)]
    m = common * size
    g = gcd(m, *w)
    w, m = tuple(x // g for x in w), m // g
    if len(rays) > dim and any(q * sum(map(mul, w, ray)) != -p * m
                               for ray, (p, q) in zip(rays, coeffs)):
        return None
    return w, m


def canonical_functional(cone: Cone):
    """K's functional as (w, m), or None: n_i = -1 on every ray."""
    return _divisor_solution(cone, ((-1, 1),) * len(cone.rays))


def pair_functional(pair: ConePair):
    """The -(K+D) functional as (w, m), or None: n_i = d_i - 1 = (p_i - q_i)/q_i
    for d_i = p_i/q_i."""
    return _divisor_solution(
        pair.cone, [(d.numerator - d.denominator, d.denominator) for d in pair.boundary.coeffs]
    )


def as_fractions(solved):
    """The Fraction view w/m of a functional held as (w, m); None for None."""
    return None if solved is None else tuple(Fraction(x, solved[1]) for x in solved[0])


def q_cartier_functional(cone: Cone, divisor: ToricDivisor):
    """The functional u with <u, v_i> = -n_i on every ray as (w, m), or None
    if none exists."""
    return _divisor_solution(cone, [(c.numerator, c.denominator) for c in divisor.coeffs])


class KltResult(Record):
    """The klt verdict of a pair and its -(K+D) functional as (w, m), or None."""

    __slots__ = _fields = ("is_klt", "functional")


def klt_check(pair: ConePair) -> KltResult:
    """Kawamata log terminal test: the -(K+D) functional exists and is
    positive on every ray (equivalently, every boundary coefficient is < 1).
    It is held as (w, m), and w.v_i has the sign of u.v_i, as m >= 1."""
    solved = pair_functional(pair)
    klt = solved is not None and all(sum(map(mul, solved[0], v)) > 0 for v in pair.cone.rays)
    return KltResult(klt, solved)


def _pieces(cone: Cone) -> list:
    """The simplicial pieces that cover the cone, as (rays, normals, |det|).

    Each piece is the first ray v_1 joined to any d - 1 rays on a facet that
    v_1 is off. Sliding a point x of the cone back along v_1 until it leaves,
    it leaves through such a facet, so x lies in v_1 plus the facet, and the
    facet is covered by its independent (d-1)-sets of rays (Caratheodory).
    For d <= MAX_DIM = 4 every (d-1)-set of its rays is independent: the rays
    on a facet are distinct primitive extreme rays of that pointed cone of
    dimension d - 1 <= 3, so no two are parallel, and three of them in one
    plane would make one a positive combination of the other two. So every
    piece is nonsingular, and its normals are the adjugate of its rays
    (_adjugate): n_i.v_j = |det| * [i == j], so x has coefficient
    n_i.x / |det| on v_i. The sum of |det| over the pieces, which is the
    number of parallelepiped points, is checked against
    MAX_PARALLELEPIPED_POINTS (ResourceLimit) before any point is listed.
    """
    dim, first = cone.dim, cone.rays[0]
    pieces = []
    for facet in cone.facets:
        if sum(map(mul, facet, first)) == 0:
            continue
        on = [ray for ray in cone.rays if sum(map(mul, facet, ray)) == 0]
        for subset in combinations(on, dim - 1):
            piece = (first, *subset)
            pieces.append((piece, *_adjugate(piece)))
    count = sum(size for _, _, size in pieces)
    if count > MAX_PARALLELEPIPED_POINTS:
        raise ResourceLimit.over(f"fundamental parallelepipeds hold {count} lattice points",
                                 "MAX_PARALLELEPIPED_POINTS", MAX_PARALLELEPIPED_POINTS)
    return pieces


def _residues(piece, normals, size):
    """The residues (n_i.x mod |det|)_i of the |det| lattice points of the
    piece's half-open fundamental parallelepiped, in rows: lists of tuples.

    The point p = sum_i r_i v_i / |det| is the one the coset x + (the piece's
    lattice) meets the parallelepiped in, and r_i / |det| is its coefficient
    on v_i: the Reid-Tai ages of the piece. The cosets are represented by the
    points 0 <= x_j < pivot_j of the Hermite form of the piece's rays, in
    product order; only its pivots are read (_pivots). Past the last pivot k
    above 1 every x_j is 0, and the
    residues are linear in x_k mod |det|, so each value of x_0..x_{k-1}
    gives a row, listed column by column, of at most _ROW_LENGTH values of x_k.
    """
    pivots = _pivots(piece, size)
    k = max((j for j, pivot in enumerate(pivots) if pivot > 1), default=0)
    column = [n[k] for n in normals]
    for head in product(*map(range, pivots[:k])):
        starts = [sum(map(mul, n, head)) for n in normals]
        for low in range(0, pivots[k], _ROW_LENGTH):
            steps = range(low, min(low + _ROW_LENGTH, pivots[k]))
            yield list(zip(*[[(s + t * c) % size for t in steps] for s, c in zip(starts, column)]))


def _parallelepiped_points(cone: Cone):
    """Lattice points of the half-open fundamental parallelepipeds of simplicial
    pieces that cover the cone (_pieces); the origin is one of them, and pieces
    overlap, so points can repeat. Each point is read from its residues
    (_residues) as p = sum_i r_i v_i / |det|, an exact integer division.
    """
    for piece, normals, size in _pieces(cone):
        axes = tuple(zip(*piece))
        for row in _residues(piece, normals, size):
            yield from zip(*[[sum(map(mul, r, axis)) // size for r in row] for axis in axes])


def hilbert_basis(cone: Cone) -> tuple:
    """Minimal generating set of the semigroup of lattice points of the cone.

    Every irreducible element is a ray or a nonzero point of a fundamental
    parallelepiped of the simplicial pieces that cover the cone, so these are
    exhaustive candidates; ResourceLimit when the parallelepipeds hold more
    than MAX_PARALLELEPIPED_POINTS points. Candidates are compared by facet
    values: x - y lies in the cone exactly when y is at most x in every facet
    value. A reducible x is a sum y + z of nonzero lattice points of the cone;
    one summand has at most half the degree of x (the sum of its facet values)
    and lies above a basis element of at most that degree. So candidates are
    taken in order of degree and kept unless a ray, or a kept element of at
    most half their degree, lies below them; this reduction compares each
    candidate with the basis elements found so far, so its work also grows
    with the size of the basis. Output is sorted lexicographically.
    """
    facets = cone.facets

    def facet_values(p):
        return tuple(sum(map(mul, n, p)) for n in facets)

    candidates = set(_parallelepiped_points(cone))
    candidates.discard((0,) * cone.dim)
    candidates.update(cone.rays)
    graded = []
    for p in candidates:
        values = facet_values(p)
        graded.append((sum(values), values, p))
    graded.sort(key=itemgetter(0))
    ray_values = [facet_values(ray) for ray in cone.rays]
    kept_degrees, kept, basis = [], [], []
    for degree, values, p in graded:
        # Rays first: they are basis elements and lie below most reducible points.
        below = chain(
            (low for low in ray_values if low != values),
            islice(kept, bisect_right(kept_degrees, degree // 2)),
        )
        if not any(all(b <= x for b, x in zip(low, values)) for low in below):
            kept_degrees.append(degree)
            kept.append(values)
            basis.append(p)
    return tuple(sorted(basis))


# The default of an optional functional argument: a functional of None means
# that the divisor is not Q-Cartier.
_NOT_GIVEN = object()


def canonical_check(cone: Cone, functional=_NOT_GIVEN) -> bool:
    """Canonical-singularities test for the cone with empty boundary.

    Requires the canonical divisor to be Q-Cartier (otherwise NotApplicable).
    Its functional u has <u, v_i> = 1 on every ray; it is solved in integers
    as u = w/m (canonical_functional), unless a caller that holds it passes
    it as `functional`: (w, m), or None when K is not Q-Cartier. Only its
    None and its index m are read. The cone is canonical exactly when no
    nonzero lattice point has u < 1. When K is Cartier (m = 1), u is integral
    and positive off the origin, so the answer is yes at once. Otherwise a
    nonzero point with u < 1 is a point of a fundamental parallelepiped of
    the simplicial pieces that cover the cone, and, as u = 1 on every ray, u
    of such a point is the sum of its Reid-Tai ages r_i / |det| in its piece
    (Reid's form of the Reid-Tai criterion). So the test reads each piece's
    residues, builds no point, and stops at the first point with
    0 < sum r_i < |det|; ResourceLimit when the parallelepipeds hold more than
    MAX_PARALLELEPIPED_POINTS points.
    """
    if functional is _NOT_GIVEN:
        functional = canonical_functional(cone)
    if functional is None:
        raise NotApplicable("canonical divisor is not Q-Cartier")
    if functional[1] == 1:
        return True  # u is a positive integer on every nonzero point of the cone
    # u = 1 on every ray, so a parallelepiped point p = sum r_i v_i / |det| has
    # u(p) = sum r_i / |det|, its age; the residues are all 0 only at the origin.
    for piece, normals, size in _pieces(cone):
        for row in _residues(piece, normals, size):
            if any(0 < sum(r) < size for r in row):
                return False
    return True


class CoverResult(Record):
    """The index-one cover of a pair: its lattice and cone, its degree, the
    Cartier index m of K+D, and the cover's K functional in cover
    coordinates, as (w, 1)."""

    __slots__ = _fields = ("cover_lattice", "cover_cone", "degree", "cover_functional")


def log_canonical_cover(pair: ConePair, functional=_NOT_GIVEN) -> CoverResult:
    """Index-one cover of a pair with standard coefficients.

    The -(K+D) functional is solved once, in integers, as u = w/m
    (pair_functional): w is an integer vector and m, the Cartier index of
    K+D, its one reduced denominator. A caller that holds it passes it as
    `functional`; NotApplicable when it is None, as K+D is not Q-Cartier.
    The cover lattice is the sublattice where u is integral: the
    x with w.x = 0 mod m, given by its Hermite basis in base coordinates,
    which linalg.congruence_basis writes down from w and m, and carried to
    ambient coordinates through the base lattice's integer form
    (_sublattice). Its index is m, and the rays are rescaled by the local
    indices e_i of the boundary. The Hermite basis is lower triangular with a
    positive diagonal, so each rescaled ray is solved on it row by row in
    integers (forward substitution), and the cover cone is the pair's cone
    read on that basis: its rays stay primitive, distinct and extreme, so it
    is not validated again, and its facets are enumerated from its rays only
    when they are first read. Read in cover coordinates, u is the K
    functional of the cover: w.col/m on each basis column, integral (Cartier
    canonical class), and exactly 1 on every cover ray; it is returned as
    cover_functional, with m = 1. All of these are checked in integers on
    every invocation.
    """
    if functional is _NOT_GIVEN:
        functional = pair_functional(pair)
    if functional is None:
        raise NotApplicable("K+D is not Q-Cartier")
    w, m = functional
    indices = []
    for d in pair.boundary.coeffs:
        e = standard_index(d)
        if e is None:
            raise NotApplicable(f"boundary coefficient {d} is not of the form (e-1)/e")
        indices.append(e)
    # gcd(m, *w) = 1 (pair_functional reduces it), so the Hermite basis of
    # {x : w.x = 0 mod m} is written down from w and m.
    columns = linalg.congruence_basis(w, m)
    _require(len(columns) == pair.cone.dim, "sublattice basis has wrong rank")
    _require(abs(_det(columns)) == m, "sublattice index differs from the Cartier index")
    values = [sum(map(mul, w, col)) for col in columns]
    _require(all(v % m == 0 for v in values), "functional is not integral on the sublattice")
    cover_u = tuple(v // m for v in values)
    rows = list(zip(*columns))
    cover_rays = []
    for ray, e in zip(pair.cone.rays, indices):
        value = sum(map(mul, w, ray))
        _require(m // gcd(value, m) == e, "ray rescaling differs from the boundary index")
        # Row i of sum_k x_k col_k = e*ray involves x_0..x_i only.
        coords = []
        for i, target in enumerate(ray):
            rest = sum(map(mul, coords, rows[i]))
            x, remainder = divmod(e * target - rest, columns[i][i])
            _require(remainder == 0, "vector lies outside the sublattice")
            coords.append(x)
        coords = tuple(coords)
        _require(gcd(*coords) == 1, "cover ray is not primitive")
        _require(sum(map(mul, cover_u, coords)) == 1, "cover ray does not pair to one")
        cover_rays.append(coords)
    cover_lattice = _sublattice(pair.cone.lattice, columns)
    cover_cone = _cone_with_facets(cover_lattice, tuple(cover_rays), None)
    return CoverResult(cover_lattice, cover_cone, m, (cover_u, 1))


def _sublattice(base: Lattice, columns) -> Lattice:
    """The sublattice of `base` whose basis is `columns` in base coordinates,
    built from the base's integer form: column k is sum_j col_k[j]*scaled[j]
    over the base's denominator (_from_integer_form). It is nonsingular
    because the base is and the columns are independent (the cover requires
    |det| = m).
    """
    axes = tuple(zip(*base.scaled))
    return _from_integer_form(
        [[sum(map(mul, col, axis)) for axis in axes] for col in columns], base.denominator
    )


def _from_integer_form(scaled, denominator: int) -> Lattice:
    """The lattice whose basis vectors are the integer rows of `scaled` over
    `denominator`, which the caller knows to be nonsingular: both are divided
    by the gcd of all of them, which is the reduced form Lattice(basis) would
    compute, and no determinant is taken again.
    """
    g = gcd(denominator, *chain.from_iterable(scaled))
    lattice = object.__new__(Lattice)
    object.__setattr__(lattice, "scaled", tuple(tuple(x // g for x in vec) for vec in scaled))
    object.__setattr__(lattice, "denominator", denominator // g)
    return lattice


def _cone_with_facets(lattice: Lattice, rays, facets) -> Cone:
    """The cone over these primitive, distinct, extreme rays, which the
    caller knows, with these facets, or with None when they are to be found
    from the rays on their first read (Cone.facets), where _facet_normals
    charges MAX_FACET_PAIRINGS. Nothing is checked and no facet is
    enumerated here: the rays are an answer, not an input."""
    cone = object.__new__(Cone)
    object.__setattr__(cone, "lattice", lattice)
    object.__setattr__(cone, "rays", rays)
    object.__setattr__(cone, "_facets", None if facets is None else tuple(sorted(facets)))
    return cone


def dual_cone(cone: Cone) -> Cone:
    """Dual cone over the dual lattice; its rays are the facet normals, and
    its facets the rays, as the dual of the dual is the cone. Its rays, from
    which its Hilbert basis is listed, are held to MAX_RAY_COORD."""
    for ray in cone.facets:
        _check_ray_coords(ray, "dual cone ray")
    return _cone_with_facets(cone.lattice.dual(), cone.facets, cone.rays)


def dual_cone_generators(cone: Cone) -> tuple:
    """Hilbert basis of the dual cone: the minimal monomial generators of the
    coordinate ring of the affine toric variety."""
    return hilbert_basis(dual_cone(cone))


def cover_correspondence_check(pair: ConePair) -> bool:
    """True when the klt verdict of the pair matches the canonical verdict of
    its index-one cover, both read off one solve of -(K+D); a mismatch
    signals an implementation bug."""
    klt = klt_check(pair)
    cover = log_canonical_cover(pair, klt.functional)
    return klt.is_klt == canonical_check(cover.cover_cone, cover.cover_functional)
