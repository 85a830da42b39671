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
point of the cone. Each functional is solved once, in integers, and returned
as (w, m), or None when the divisor is not Q-Cartier: by q_cartier_functional
for any divisor, canonical_functional for K and pair_functional for -(K+D).
as_fractions is the one Fraction view of a functional, for printing.
Both lattice-point questions are answered from one
enumeration (Bruns and Koch, "Computing the integral closure of an affine
semigroup", 2001): the cone is covered by simplicial pieces, and every lattice
point of a piece is a nonnegative integer combination of its rays plus a point
of its half-open fundamental parallelepiped, which holds |det| points. As u = 1
on every ray, a point with u < 1 is such a parallelepiped point (Reid's form of
the Reid-Tai criterion, "Young person's guide to canonical singularities",
1987), and so is every Hilbert basis element other than a ray. Each piece
takes one adjugate of its rays, in integers: normals n_i with n_i.v_j = |det|
[i == j]. A coset representative x of the piece's lattice then gives the
residues r_i = n_i.x mod |det|, and r_i / |det| are the Reid-Tai ages of its
parallelepiped point p = sum r_i v_i / |det|. The canonical test reads u(p)
from the residues and builds no point; the Hilbert basis builds p. Hilbert
bases are reduced in order of degree (the sum of the facet values) against the
basis elements already found. The index-one cover is computed in integers from
end to end: the cover lattice is one integer Hermite form, lower triangular,
applied to the base lattice's integer form; its rays are solved on that basis
by forward substitution, its facets are the pair's facets pulled back to that
basis, and its K functional is the pair's -(K+D) functional read on it.
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

MAX_DIM = 4
MAX_RAY_COORD = 100
MAX_PARALLELEPIPED_POINTS = 10**6
# Facet enumeration pairs each (d-1)-subset of the n rays with each ray, C(n, d-1) * n
# times: about 0.3 s at this cap (Python 3.11, 2-core VM), or 28 rays in dimension 4.
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
    once, over the lcm of its denominators, which leaves the form reduced,
    and refuses it when the determinant is 0. same_lattice compares Hermite
    forms over the common denominator of both lattices. The standard lattice,
    an index-one cover lattice (_sublattice) and the dual lattice, from one
    adjugate of the integer form (linalg.adjugate), are built from integer
    forms without this constructor (_from_integer_form).
    """

    __slots__ = _fields = ("scaled", "denominator")

    def __init__(self, basis):
        rows = tuple(tuple(exact(x) for x in vec) for vec in basis)
        if not rows or any(len(vec) != len(rows) for vec in rows):
            raise ValueError("basis must be a nonempty square list of vectors")
        denominator = lcm(*(x.denominator for vec in rows for x in vec))
        scaled = tuple(
            tuple(x.numerator * (denominator // x.denominator) for x in vec) for vec in rows
        )
        if linalg.det_int(scaled) == 0:
            raise ValueError("matrix is singular")
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "denominator", denominator)

    @classmethod
    def standard(cls, dim: int) -> "Lattice":
        if type(dim) is not int or dim < 1:
            raise ValueError(f"lattice dimension must be a positive integer, got {dim!r}")
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
        normals, size = linalg.adjugate(self.scaled)
        return _from_integer_form([[x * self.denominator for x in n] for n in normals], size)

    def same_lattice(self, other: "Lattice") -> bool:
        """True when both bases generate the same subgroup of the ambient space:
        over their common denominator, both integer bases have one Hermite form."""
        if self.dim != other.dim:
            return False
        common = lcm(self.denominator, other.denominator)
        first, second = (
            linalg.hermite_column_form(
                [[x * (common // lattice.denominator) for x in vec] for vec in lattice.scaled]
            )
            for lattice in (self, other)
        )
        return first == second


def _minors(vectors, dim: int) -> list:
    """Signed maximal minors of dim - 1 vectors: orthogonal to each of them,
    and zero exactly when they span less than a hyperplane. In dimension 1 the
    empty set of vectors gives (1,)."""
    return [
        (-1) ** i * linalg.det_int([v[:i] + v[i + 1 :] for v in vectors]) for i in range(dim)
    ]


def _facet_normals(dim: int, rays) -> tuple:
    """Facet normals of the cone over the rays, and whether the rays span the
    space: some (d-1)-subset spans a hyperplane that a further ray leaves."""
    found = set()
    spanning = False
    for subset in combinations(rays, dim - 1):
        n = _minors(subset, dim)
        if not any(n):
            continue
        n = linalg.primitive_vector(n)
        pairings = [sum(map(mul, n, v)) for v in rays]
        spanning = spanning or any(pairings)
        if all(p >= 0 for p in pairings):
            found.add(n)
        elif all(p <= 0 for p in pairings):
            found.add(tuple(-x for x in n))
    return tuple(sorted(found)), spanning


def _integer_ray(ray) -> tuple:
    """The ray as ints; ValueError naming it for a coordinate that is not an int
    or an integral Fraction, which truncating would turn into another cone, or
    is a bool. The message writes a Fraction as str and anything else as repr."""
    if not all(type(x) is int or isinstance(x, Fraction) and x.denominator == 1 for x in ray):
        shown = (str(x) if isinstance(x, Fraction) else repr(x) for x in ray)
        raise ValueError(f"ray ({', '.join(shown)}) has a non-integer coordinate")
    return tuple(map(int, ray))


def _check_ray_coords(ray) -> None:
    """ResourceLimit when a coordinate of the ray is above MAX_RAY_COORD."""
    if any(abs(x) > MAX_RAY_COORD for x in ray):
        raise ResourceLimit(
            f"ray {ray} has a coordinate above the desk-scale bound "
            f"MAX_RAY_COORD = {MAX_RAY_COORD}"
        )


def _check_pairings(count: int, dim: int) -> None:
    """ResourceLimit when finding the facets of `count` rays in dimension `dim`
    would take more than MAX_FACET_PAIRINGS pairings."""
    pairings = comb(count, dim - 1) * count
    if pairings > MAX_FACET_PAIRINGS:
        raise ResourceLimit(
            f"{count} rays in dimension {dim} need {pairings} facet pairings, "
            f"above the cap MAX_FACET_PAIRINGS = {MAX_FACET_PAIRINGS}"
        )


class Cone(Record):
    """Pointed, full-dimensional rational cone listed by primitive extreme rays.

    Facet inequalities are derived at construction and cached; membership is
    <facet, x> >= 0 for all facets. facets is not a field, so equality, hash
    and repr leave it out. An index-one cover and a dual cone are
    built otherwise: their facets are known (_cone_with_facets).
    The shape is read off the incidence of rays and facets, since a face is
    spanned by the rays it contains (Fulton, Introduction to Toric Varieties,
    1.2): the cone is full-dimensional when a ray leaves some hyperplane
    spanned by other rays, pointed when no ray lies on every facet, and a ray
    is extreme when no other ray lies on every facet it lies on.
    """

    _fields = ("lattice", "rays")
    __slots__ = (*_fields, "facets")

    def __post_init__(self):
        rays = tuple(_integer_ray(ray) for ray in self.rays)
        if not rays:
            raise ValueError("cone needs at least one ray")
        dim = self.lattice.dim
        if dim > MAX_DIM:
            raise ResourceLimit(f"dimension {dim} exceeds the desk-scale limit MAX_DIM = {MAX_DIM}")
        for ray in rays:
            if len(ray) != dim:
                raise ValueError("ray dimension mismatch")
            _check_ray_coords(ray)
            if linalg.primitive_vector(ray) != ray:
                raise ValueError(f"ray {ray} is not primitive")
        if len(set(rays)) != len(rays):
            raise ValueError("rays must be pairwise distinct")
        _check_pairings(len(rays), dim)
        facets, spanning = _facet_normals(dim, rays)
        if not spanning:
            raise ValueError("cone is not full-dimensional")
        object.__setattr__(self, "rays", rays)
        zeros = [{n for n in facets if sum(map(mul, n, ray)) == 0} for ray in rays]
        if set(facets) in zeros:
            raise ValueError("cone is not pointed")
        for ray, on in zip(rays, zeros):
            if sum(on <= other for other in zeros) > 1:  # the ray itself counts once
                raise ValueError(f"ray {ray} is not extreme")
        object.__setattr__(self, "facets", facets)

    @classmethod
    def from_rays(cls, rays, lattice: Lattice | None = None) -> "Cone":
        """The cone over the rays, made primitive once each has the lattice's
        dimension; the default lattice is the standard one of the longest ray."""
        rays = tuple(_integer_ray(ray) for ray in rays)
        if lattice is None:  # with no rays, a line, and the cone refuses them
            lattice = Lattice.standard(max(map(len, rays), default=1))
        if any(len(ray) != lattice.dim for ray in rays):
            raise ValueError("ray dimension mismatch")
        return cls(lattice, tuple(map(linalg.primitive_vector, rays)))

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
    Q-Cartier. Each n_i is an integer pair (p_i, q_i), n_i = p_i/q_i, q_i >= 1;
    its equation is the integer row [q_i*v_i, -p_i], solved by solve_scaled."""
    if len(coeffs) != len(cone.rays):
        raise ValueError(f"divisor has {len(coeffs)} coefficients, cone has {len(cone.rays)} rays")
    return linalg.solve_scaled(
        [[*(q * x for x in ray), -p] for ray, (p, q) in zip(cone.rays, coeffs)]
    )


def canonical_functional(cone: Cone):
    """K's functional as (w, m), or None: n_i = -1, so the rows are [v_i, 1]."""
    return _divisor_solution(cone, ((-1, 1),) * len(cone.rays))


def pair_functional(pair: ConePair):
    """The -(K+D) functional as (w, m), or None: n_i = d_i - 1 = (p_i - q_i)/q_i
    for d_i = p_i/q_i, so the rows are [q_i*v_i, q_i - p_i]."""
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

    Each piece is the first ray v_1 joined to d - 1 independent rays on a facet
    that v_1 is off. Sliding a point x of the cone back along v_1 until it
    leaves, it leaves through such a facet, so x lies in v_1 plus the facet,
    and the facet is covered by its independent (d-1)-sets of rays
    (Caratheodory). The normals are one adjugate of the piece's rays
    (linalg.adjugate): n_i.v_j = |det| * [i == j], so x has coefficient
    n_i.x / |det| on v_i. The sum of |det| over the pieces, which is the number
    of parallelepiped points, is checked against MAX_PARALLELEPIPED_POINTS
    (ResourceLimit) before any point is listed.
    """
    dim, first = cone.dim, cone.rays[0]
    pieces = []
    for facet in cone.facets:
        if sum(map(mul, facet, first)) == 0:
            continue
        on = [ray for ray in cone.rays if sum(map(mul, facet, ray)) == 0]
        for subset in combinations(on, dim - 1):
            piece = (first, *subset)
            solved = linalg.adjugate(piece)
            if solved is not None:  # otherwise the subset spans less than the facet
                pieces.append((piece, *solved))
    count = sum(size for _, _, size in pieces)
    if count > MAX_PARALLELEPIPED_POINTS:
        raise ResourceLimit(
            f"fundamental parallelepipeds hold {count} lattice points, above the cap "
            f"MAX_PARALLELEPIPED_POINTS = {MAX_PARALLELEPIPED_POINTS}"
        )
    return pieces


def _residues(piece, normals, size):
    """The residues (n_i.x mod |det|)_i of the |det| lattice points of the
    piece's half-open fundamental parallelepiped, in rows: lists of tuples.

    The point p = sum_i r_i v_i / |det| is the one the coset x + (the piece's
    lattice) meets the parallelepiped in, and r_i / |det| is its coefficient
    on v_i: the Reid-Tai ages of the piece. The cosets are represented by the
    points 0 <= x_j < pivot_j of the Hermite form of the piece's rays, in
    product order. Past the last pivot k above 1 every x_j is 0, and the
    residues are linear in x_k mod |det|, so each value of x_0..x_{k-1}
    gives a row, listed column by column, of at most _ROW_LENGTH values of x_k.
    """
    hermite = linalg.hermite_column_form(piece)
    pivots = [col[j] for j, col in enumerate(hermite)]
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
    it as `functional`: (w, m), or None when K is not Q-Cartier. The cone is
    canonical exactly when no nonzero lattice point has u < 1. When K is
    Cartier (m = 1), u is integral and positive off the origin, so the answer
    is yes at once. Otherwise a nonzero point with u < 1 is a point of a
    fundamental parallelepiped of the simplicial pieces that cover the cone,
    and u of such a point is the sum of its Reid-Tai ages r_i / |det| in its
    piece (Reid's form of the Reid-Tai criterion). So the test reads each
    piece's residues, builds no point, and stops at the first point with
    0 < sum r_i < |det|; ResourceLimit when the parallelepipeds hold more than
    MAX_PARALLELEPIPED_POINTS points.
    """
    if functional is _NOT_GIVEN:
        functional = canonical_functional(cone)
    if functional is None:
        raise NotApplicable("canonical divisor is not Q-Cartier")
    w, m = functional
    if m == 1:
        return True  # u is a positive integer on every nonzero point of the cone
    # A parallelepiped point p = sum r_i v_i / |det| has u(p) = sum r_i c_i /
    # (m |det|) with c_i = w.v_i, so 0 < u(p) < 1 is compared in integers; the
    # residues are all 0 only at the origin.
    for piece, normals, size in _pieces(cone):
        values = [sum(map(mul, w, v)) for v in piece]
        bound = m * size
        for row in _residues(piece, normals, size):
            if any(0 < sum(map(mul, r, values)) < bound for r in row):
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
    x with w.x = 0 mod m, given by its Hermite basis in base coordinates and
    carried to ambient coordinates through the base lattice's integer form
    (_sublattice). Its index is m, and the rays are rescaled by the local
    indices e_i of the boundary. The Hermite basis is lower triangular with a
    positive diagonal, so each rescaled ray is solved on it row by row in
    integers (forward substitution), and the cover cone is the pair's cone
    read on that basis: its facets are the pair's facets pulled back to cover
    coordinates, not enumerated again. Read in cover coordinates, u is the K
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
    dim = pair.cone.dim
    # The columns (w_j, e_j) and (m, 0, ..., 0) span Z^(d+1), as gcd(w, m) = 1,
    # and the columns that are 0 in the first coordinate span {x : w.x = 0 mod m}.
    # So the Hermite form has pivot 1 in the first row, and dropping that column
    # and that row leaves the Hermite form of the cover lattice.
    hermite = linalg.hermite_column_form(
        [(wj, *(int(i == j) for i in range(dim))) for j, wj in enumerate(w)] + [(m,) + (0,) * dim]
    )
    columns = [col[1:] for col in hermite[1:]]
    _require(len(columns) == dim, "sublattice basis has wrong rank")
    _require(abs(linalg.det_int(columns)) == m, "sublattice index differs from the Cartier index")
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
    cover_cone = _pulled_back_cone(pair.cone, cover_lattice, columns, tuple(cover_rays))
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


def _pulled_back_cone(base: Cone, lattice: Lattice, columns, rays) -> Cone:
    """The base cone as a cone over its sublattice `lattice`, whose basis is
    `columns` in base coordinates; `rays` are the base rays, each rescaled to
    a primitive vector of the sublattice, in cover coordinates.

    A base facet n reads n.col_k on the cover basis; made primitive, these
    are the facets that Cone.__post_init__ would enumerate, so the cone is
    built without it. The two cones have the same rays up to scaling, the
    same dimension and the same incidences, so the rays stay extreme and the
    cone pointed and full-dimensional. Postcondition: each pulled-back facet
    is >= 0 on every cover ray and 0 exactly on the rays where its base facet
    is 0.
    """
    facets = []
    for n in base.facets:
        pulled = linalg.primitive_vector([sum(map(mul, n, col)) for col in columns])
        for ray, cover_ray in zip(base.rays, rays):
            value = sum(map(mul, pulled, cover_ray))
            on_base = sum(map(mul, n, ray)) == 0
            _require(value >= 0 and (value == 0) == on_base,
                     "pulled-back facet disagrees with its base facet")
        facets.append(pulled)
    return _cone_with_facets(lattice, rays, facets)


def _cone_with_facets(lattice: Lattice, rays, facets) -> Cone:
    """The cone with these facets over these primitive, distinct, extreme
    rays, which the caller knows, so no facet is enumerated. The dimension is
    that of a cone already built; the rays are checked against MAX_RAY_COORD
    and MAX_FACET_PAIRINGS as in Cone.__post_init__."""
    for ray in rays:
        _check_ray_coords(ray)
    _check_pairings(len(rays), lattice.dim)
    cone = object.__new__(Cone)
    object.__setattr__(cone, "lattice", lattice)
    object.__setattr__(cone, "rays", rays)
    object.__setattr__(cone, "facets", tuple(sorted(facets)))
    return cone


def dual_cone(cone: Cone) -> Cone:
    """Dual cone over the dual lattice; its rays are the facet normals, and
    its facets the rays, as the dual of the dual is the cone."""
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
