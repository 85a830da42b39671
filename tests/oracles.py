"""Reference implementations that only tests use.

Fraction Gauss-Jordan elimination (``rref``) is the independent route against
which the integer kernels here and the closed forms of ``logcentre.toric`` are
checked. ``_eliminate`` is a fraction-free (Bareiss 1968) elimination in
integers, for matrices of any size: ``det_int`` is the determinant it leaves,
against which ``toric._det`` is checked, and ``solve_scaled`` solves integer
augmented rows to (w, m), u = w/m in lowest terms, or None. ``solve_exact``
solves a rational system by scaling each equation to integers
(``clear_denominators``) and reading ``solve_scaled`` back as Fractions: the
route by which ``logcentre.toric`` once solved every divisor functional,
against which its solve on one simplicial piece is checked.
``primitive_vector`` divides an integer vector by the gcd of its entries, so
that the facet oracles below import no function from ``logcentre``. ``pairing`` is
the Fraction dot product of a functional and a lattice vector, and
``integer_kernel_of_row`` builds the index-one cover lattice the older way,
from the kernel of the row (m*u, -m), against which the Hermite-form cover of ``logcentre.toric`` is
checked. ``same_lattice_by_coords`` decides lattice equality from rational
coordinates solved by ``rref``, where ``Lattice.same_lattice`` compares
determinants and tests membership under one adjugate, and ``contains`` is cone
membership read off the facets.
``to_ambient`` reads lattice coordinates as a Fraction ambient vector, the
route by which the cover lattice's basis was once built and against which the
integer construction of ``logcentre.toric`` is checked; ``divisor_route``
solves a divisor's functional by ``solve_exact`` on the rays, and
``q_cartier_route`` solves the -(K+D) functional that way, as the functional of
the Fraction divisor K + D; ``canonical_divisor`` is K as a divisor, and
``integer_pair`` reads a Fraction functional as the pair (w, m) in which
``logcentre.toric`` returns every functional. ``facet_normals`` finds a
cone's facets, or its refusal, the older way: each normal from determinants
(``_signed_minors``), where ``logcentre.toric`` writes the signed minors in
closed form, and the shape from a second pass over the rays.
``pulled_back_facets`` finds an index-one cover's facets the way
``logcentre.toric`` once built them, from the pair's facets read on the cover
basis, where the cover now enumerates them from its rays like any other cone.
``fold_parallelepiped_points`` lists the lattice points
of the fundamental parallelepipeds the older way, with normals from signed
minors and coset representatives from the Hermite form, each folded back by
the integer parts of its coefficients, where ``logcentre.toric`` reads each
point from its residues under the closed-form adjugate of each piece and
counts the representatives by pivots read off gcds of minors.
``hermite_column_form`` is the canonical basis of an integer column span by
extended gcd (``xgcd``) column operations, against which the congruence basis
and the piece pivots of ``logcentre.toric`` are checked.

The valuation-matrix closed forms of ``logcentre.valmat`` are checked against
second closed forms of the radical and the dualizing module, and against an
element-level model: ``MonomialMatrix`` entries are single Laurent monomials
q * t^n (or zero) and multiply as ordinary matrices, raising
``RepresentationOverflow`` if a product entry is not again a monomial. The
normal element y with y^e = t lives there, so identities such as "the radical
is generated by y on either side" are checked on actual elements rather than
on valuations. ``min_plus_mul`` is the brute-force min-plus product on lists
of valuations (``valuations``), with ``None`` for the zero ideal, which
``logcentre.valmat`` never holds: the ideals a monomial matrix generates
entrywise (``ideal_of``) and the tropical identity have zero entries.

Rewriting is checked against a second strategy: ``rightmost_normal_form``
rewrites the rightmost redex of each term on its own, where
``logcentre.ncpoly.normal_form`` merges terms by word and rewrites the largest
word first, at the leftmost match of the first rule. On a confluent system the
two agree. ``rule_order_redex`` scans every rule and position in turn for
the redex ``normal_form`` rewrites, the leftmost match of the first matching
rule, and finds none in a normal form. ``heap_normal_form`` keeps the
schedule of ``normal_form`` on one heap of whole order keys, where the library
buckets words by weight and length; it also counts the distinct rewrites, so
the ``MAX_REWRITE_STEPS`` boundary can be checked against it.

``inflate`` blows a valuation matrix up into constant blocks, the Morita
equivalence under which the centre valuation must not move.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import mul
from typing import Optional

from logcentre.errors import LogCentreError
from logcentre.ncpoly import NCPoly
from logcentre.toric import ToricDivisor
from logcentre.valmat import ValMatrix


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


def det_int(cols) -> int:
    """Determinant of a square integer matrix (rows or columns alike) by
    fraction-free elimination; the 0x0 matrix has determinant 1."""
    return _eliminate(list(cols), len(cols))


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


def clear_denominators(row) -> list:
    """The rational row times the lcm of its denominators, as integers."""
    m = lcm(*(x.denominator for x in row))
    return [x.numerator * (m // x.denominator) for x in row]


def primitive_vector(v) -> tuple:
    """The integer vector divided by the gcd of its entries, orientation kept;
    ValueError for the zero vector."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def solve_exact(rows, rhs):
    """Solve row_i . x = rhs_i exactly for d unknowns: each equation scaled
    to integers, then solve_scaled. Returns the solution as a tuple of
    Fractions, or None when the system is inconsistent. Raises ValueError when
    rhs has not one entry per equation, or when no d equations are
    independent (column rank below d), consistent or not.
    """
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} equations but {len(rhs)} right-hand sides")
    solved = solve_scaled([clear_denominators([*row, r]) for row, r in zip(rows, rhs)])
    if solved is None:
        return None
    w, m = solved
    return tuple(Fraction(x, m) for x in w)


def rank(rows):
    return len(rref(rows)[1]) if rows else 0


def pairing(u, v) -> Fraction:
    """Dot product of a dual functional and a lattice coordinate vector."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch in pairing")
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


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


def integer_kernel_of_row(row):
    """Basis of {x integer vector : row . x = 0} for a nonzero integer row."""
    n = len(row)
    if all(v == 0 for v in row):
        raise ValueError("row must be nonzero")
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    cur = list(row)
    for j in range(1, n):
        a, b = cur[0], cur[j]
        if b == 0:
            continue
        g, x, y = xgcd(a, b)
        c0, cj = cols[0], cols[j]
        cols[0] = [x * p + y * q for p, q in zip(c0, cj)]
        cols[j] = [(-b // g) * p + (a // g) * q for p, q in zip(c0, cj)]
        cur[0], cur[j] = g, 0
    return [tuple(c) for c in cols[1:]]


def same_lattice_by_coords(first, second) -> bool:
    """Lattice equality the coordinate way: each basis, solved in the other's
    basis by ``rref``, has integer coordinates."""
    if first.dim != second.dim:
        return False
    for lattice, vectors in ((first, second.basis), (second, first.basis)):
        columns = list(zip(*lattice.basis))
        for vec in vectors:
            solved, _ = rref([[*row, x] for row, x in zip(columns, vec)])
            if any(row[-1].denominator != 1 for row in solved):
                return False
    return True


def to_ambient(lattice, coords) -> tuple:
    """The lattice point with the given coordinates, in ambient coordinates."""
    if len(coords) != lattice.dim:
        raise ValueError("dimension mismatch")
    return tuple(
        sum((c * Fraction(vec[i]) for c, vec in zip(coords, lattice.basis)), Fraction(0))
        for i in range(lattice.dim)
    )


def canonical_divisor(cone):
    """K as a divisor: coefficient -1 on every ray divisor."""
    return ToricDivisor((Fraction(-1),) * len(cone.rays))


def integer_pair(u):
    """A Fraction functional u as (w, m): m the lcm of its denominators, the
    least m >= 1 with m*u integral, and w = m*u; None for None."""
    if u is None:
        return None
    m = lcm(*(x.denominator for x in u))
    return tuple(int(x * m) for x in u), m


def divisor_route(cone, coeffs):
    """The functional u with <u, v_i> = -n_i on every ray, solved by
    ``solve_exact``; None when the divisor is not Q-Cartier."""
    return solve_exact(cone.rays, [-Fraction(c) for c in coeffs])


def q_cartier_route(pair):
    """The pair's -(K+D) functional as the functional of the divisor K + D,
    with coefficients d_i - 1, solved by ``solve_exact``."""
    return divisor_route(pair.cone, [d - 1 for d in pair.boundary.coeffs])


def contains(cone, v) -> bool:
    """Membership in the cone: v is on the nonnegative side of every facet."""
    return all(sum(a * b for a, b in zip(n, v)) >= 0 for n in cone.facets)


def _signed_minors(vectors, dim: int) -> list:
    """Signed maximal minors of dim - 1 vectors: a normal orthogonal to each."""
    return [(-1) ** i * det_int([v[:i] + v[i + 1 :] for v in vectors]) for i in range(dim)]


def facet_normals(dim: int, rays):
    """The facets of the cone over distinct primitive rays, found the older
    way, or the message ``Cone`` refuses the rays with. Each (d-1)-subset's
    normal is its signed minors, d determinants, made primitive; it is a facet
    when no two rays lie on opposite sides of it. The shape is then read off a
    second pass of every facet over every ray, with the refusals in the order
    ``Cone`` makes them.
    """
    found = set()
    spanning = False
    for subset in combinations(rays, dim - 1):
        n = _signed_minors(subset, dim)
        if not any(n):
            continue
        n = primitive_vector(n)
        pairings = [sum(a * b for a, b in zip(n, v)) for v in rays]
        spanning = spanning or any(pairings)
        if all(p >= 0 for p in pairings):
            found.add(n)
        elif all(p <= 0 for p in pairings):
            found.add(tuple(-x for x in n))
    if not spanning:
        return "cone is not full-dimensional"
    zeros = [{n for n in found if sum(a * b for a, b in zip(n, ray)) == 0} for ray in rays]
    if found in zeros:
        return "cone is not pointed"
    for ray, on in zip(rays, zeros):
        if sum(on <= other for other in zeros) > 1:
            return f"ray {ray} is not extreme"
    return tuple(sorted(found))


def pulled_back_facets(cone, columns):
    """The facets of the cone read on a sublattice whose basis is ``columns``
    in the cone's coordinates: each facet n becomes (n.col_k)_k, made
    primitive, and the result is sorted. Each ray, solved on the columns by
    ``rref`` and made primitive, must pair >= 0 with every pulled-back facet,
    and 0 exactly where it pairs 0 with the facet's base.
    """
    rows = list(zip(*columns))
    rays = []
    for ray in cone.rays:
        solved, _ = rref([[*row, x] for row, x in zip(rows, ray)])
        rays.append(primitive_vector(clear_denominators([row[-1] for row in solved])))
    facets = []
    for n in cone.facets:
        pulled = primitive_vector([sum(a * b for a, b in zip(n, col)) for col in columns])
        for ray, cover_ray in zip(cone.rays, rays):
            value = sum(a * b for a, b in zip(pulled, cover_ray))
            assert value >= 0, (n, ray)
            assert (value == 0) == (sum(a * b for a, b in zip(n, ray)) == 0), (n, ray)
        facets.append(pulled)
    return tuple(sorted(facets))


def fold_parallelepiped_points(cone):
    """The parallelepiped points of ``toric._parallelepiped_points``, listed the
    older way: the same pieces, in the same order, and the same Hermite coset
    representatives x; each normal n_i is the signed minors of the other
    d - 1 rays, d^2 determinants a piece, and x is folded into the
    parallelepiped by subtracting floor(n_i.x / |det|) v_i for each i.
    """
    dim, first = cone.dim, cone.rays[0]
    for facet in cone.facets:
        if sum(a * b for a, b in zip(facet, first)) == 0:
            continue
        on = [ray for ray in cone.rays if sum(a * b for a, b in zip(facet, ray)) == 0]
        for subset in combinations(on, dim - 1):
            piece = (first, *subset)
            normals = [_signed_minors(piece[:i] + piece[i + 1 :], dim) for i in range(dim)]
            size = abs(sum(a * b for a, b in zip(normals[0], first)))
            if not size:
                continue
            normals = [
                n if sum(a * b for a, b in zip(n, v)) > 0 else [-x for x in n]
                for n, v in zip(normals, piece)
            ]
            hermite = hermite_column_form(piece)
            for x in product(*(range(col[i]) for i, col in enumerate(hermite))):
                p = list(x)
                for n, v in zip(normals, piece):
                    q = sum(a * b for a, b in zip(n, x)) // size
                    p = [a - q * b for a, b in zip(p, v)]
                yield tuple(p)


# ---------------------------------------------------------------------------
# Valuation matrices: second closed forms.


def _check_size(n) -> int:
    if type(n) is not int or n < 1:
        raise ValueError(f"size must be a positive integer, got {n!r}")
    return n


def jacobson_radical(e: int) -> ValMatrix:
    """Radical of the standard order: units strictly above the diagonal, the
    maximal ideal on and below."""
    _check_size(e)
    return ValMatrix(tuple(tuple(0 if k > j else 1 for k in range(e)) for j in range(e)))


def dualizing_module(e: int) -> ValMatrix:
    """Dualizing bimodule of the standard order: the (1-e)-th radical power."""
    _check_size(e)
    return ValMatrix(tuple(tuple(-1 if k > j else 0 for k in range(e)) for j in range(e)))


def tropical_identity(size: int) -> list:
    """Identity for min_plus_mul: units on the diagonal, zero ideals elsewhere."""
    _check_size(size)
    return [[0 if k == j else None for k in range(size)] for j in range(size)]


def valuations(m: ValMatrix) -> list:
    """The entries of m as lists, the form min_plus_mul reads."""
    return [list(row) for row in m.entries]


def min_plus_mul(a, b) -> list:
    """Brute-force min-plus product of square lists, None standing for the
    zero ideal, the valuation +infinity."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for k in range(n):
            best = None
            for j in range(n):
                if a[i][j] is None or b[j][k] is None:
                    continue
                s = a[i][j] + b[j][k]
                if best is None or s < best:
                    best = s
            row.append(best)
        out.append(row)
    return out


def shift(m: ValMatrix, v: int) -> ValMatrix:
    """Scale every entry by t^v."""
    return ValMatrix(tuple(tuple(x + v for x in row) for row in m.entries))


def inflate(a: ValMatrix, blocks) -> ValMatrix:
    """Blow each scalar entry up to a constant block of the given sizes.

    blocks lists one positive size per row/column of a; the result is square of
    size sum(blocks) and Morita-corresponds to the same bimodule.
    """
    blocks = tuple(blocks)
    if len(blocks) != a.size:
        raise ValueError(f"expected {a.size} block sizes, got {len(blocks)}")
    if not all(type(n) is int and n >= 1 for n in blocks):
        raise ValueError("block sizes must be positive integers")
    rows = []
    for j, nj in enumerate(blocks):
        row = []
        for k, nk in enumerate(blocks):
            row.extend([a.entries[j][k]] * nk)
        rows.extend([tuple(row)] * nj)
    return ValMatrix(tuple(rows))


# ---------------------------------------------------------------------------
# Exact monomial matrices: the element-level oracle.


class RepresentationOverflow(LogCentreError):
    """An exact product left the single-monomial representation."""


Monomial = tuple  # (coefficient: Fraction, exponent: int); None encodes zero


def _norm_monomial(entry) -> Optional[Monomial]:
    if entry is None or entry == 0:
        return None
    coeff, exp = entry
    coeff = Fraction(coeff)
    if type(exp) is not int:
        raise ValueError(f"monomial exponent must be an integer, got {exp!r}")
    if coeff == 0:
        return None
    return (coeff, exp)


@dataclass(frozen=True)
class MonomialMatrix:
    """Square matrix whose entries are single Laurent monomials q * t^n or zero."""

    entries: tuple

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise ValueError("matrix must be nonempty")
        rows = []
        for row in self.entries:
            row = tuple(_norm_monomial(x) for x in row)
            if len(row) != n:
                raise ValueError("matrix must be square")
            rows.append(row)
        object.__setattr__(self, "entries", tuple(rows))

    @property
    def size(self) -> int:
        return len(self.entries)


def monomial_identity(size: int) -> MonomialMatrix:
    _check_size(size)
    one = (Fraction(1), 0)
    return MonomialMatrix(
        tuple(tuple(one if k == j else None for k in range(size)) for j in range(size))
    )


def t_scalar(size: int, power: int = 1) -> MonomialMatrix:
    """The central scalar matrix t^power * identity."""
    return monomial_scale(monomial_identity(size), exp=power)


def monomial_mul(a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
    """Ordinary matrix product; every entry sum must collapse to one monomial."""
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    n = a.size
    rows = []
    for i in range(n):
        row = []
        for k in range(n):
            sums = {}
            for j in range(n):
                x, y = a.entries[i][j], b.entries[j][k]
                if x is None or y is None:
                    continue
                exp = x[1] + y[1]
                sums[exp] = sums.get(exp, Fraction(0)) + x[0] * y[0]
            nonzero = {e: c for e, c in sums.items() if c != 0}
            if len(nonzero) > 1:
                raise RepresentationOverflow(
                    f"entry ({i},{k}) mixes t-exponents {sorted(nonzero)}"
                )
            if nonzero:
                ((exp, coeff),) = nonzero.items()
                row.append((coeff, exp))
            else:
                row.append(None)
        rows.append(tuple(row))
    return MonomialMatrix(tuple(rows))


def monomial_pow(a: MonomialMatrix, k: int) -> MonomialMatrix:
    if type(k) is not int or k < 0:
        raise ValueError(f"power must be a nonnegative integer, got {k!r}")
    out = monomial_identity(a.size)
    for _ in range(k):
        out = monomial_mul(out, a)
    return out


def monomial_scale(a: MonomialMatrix, coeff=1, exp: int = 0) -> MonomialMatrix:
    """Scale by the central monomial coeff * t^exp."""
    coeff = Fraction(coeff)
    rows = []
    for row in a.entries:
        rows.append(
            tuple(
                None if x is None or coeff == 0 else (x[0] * coeff, x[1] + exp)
                for x in row
            )
        )
    return MonomialMatrix(tuple(rows))


def y_matrix(e: int) -> MonomialMatrix:
    """The normal element y of the standard order: ones on the superdiagonal
    and t in the lower-left corner, so that y^e = t."""
    _check_size(e)
    one = (Fraction(1), 0)
    rows = []
    for j in range(e):
        row = [None] * e
        if j + 1 < e:
            row[j + 1] = one
        else:
            row[0] = (Fraction(1), 1)
        rows.append(tuple(row))
    return MonomialMatrix(tuple(rows))


def y_power(e: int, i: int) -> MonomialMatrix:
    """y^i for any integer i; negative powers use y^-e = t^-1."""
    _check_size(e)
    if type(i) is not int:
        raise ValueError(f"power must be an integer, got {i!r}")
    q, r = divmod(i, e)
    return monomial_scale(monomial_pow(y_matrix(e), r), exp=q)


def ideal_of(a: MonomialMatrix) -> list:
    """Valuations of the fractional-ideal matrix generated entrywise by a, as
    lists for min_plus_mul, None for a zero entry."""
    return [[None if x is None else x[1] for x in row] for row in a.entries]


# ---------------------------------------------------------------------------
# Rewriting: a second reduction strategy.


def rightmost_normal_form(poly: NCPoly, system) -> NCPoly:
    """Reduce by always rewriting the rightmost redex, the last rule first."""
    result = NCPoly.zero()
    stack = list(poly.terms())
    while stack:
        word, coeff = stack.pop()
        redexes = [
            (pos, index)
            for index, (lhs, _) in enumerate(system.rules)
            for pos in range(len(word) - len(lhs) + 1)
            if word[pos : pos + len(lhs)] == lhs
        ]
        if not redexes:
            result = result + NCPoly.monomial(word, coeff)
            continue
        pos, index = max(redexes)
        lhs, rhs = system.rules[index]
        for body, factor in rhs.terms():
            stack.append((word[:pos] + body + word[pos + len(lhs) :], coeff * factor))
    return result


def rule_order_redex(word, system):
    """(rule index, position) of the leftmost match of the first matching rule."""
    for index, (lhs, _) in enumerate(system.rules):
        span = len(lhs)
        for pos in range(len(word) - span + 1):
            if word[pos : pos + span] == lhs:
                return index, pos
    return None


def heap_normal_form(poly: NCPoly, system):
    """(normal form, distinct rewrites) on one heap of (-weight, length, coded word).

    The schedule ``logcentre.ncpoly.normal_form`` keeps: merged terms, the
    largest pending word first, each distinct word rewritten once at the
    redex of ``rule_order_redex``. Every key comes from
    ``RewriteSystem._descending_key`` and every reduct from the rule itself.
    """
    key = system._descending_key
    pending = dict(poly.terms())
    heap = [(key(word), word) for word in pending]
    heapq.heapify(heap)
    result, steps = {}, 0
    while heap:
        _, word = heapq.heappop(heap)
        coeff = pending.pop(word)
        if not coeff:
            continue
        redex = rule_order_redex(word, system)
        if redex is None:
            result[word] = coeff
            continue
        steps += 1
        index, pos = redex
        lhs, rhs = system.rules[index]
        for body, factor in rhs.terms():
            reduct = word[:pos] + body + word[pos + len(lhs) :]
            if reduct in pending:
                pending[reduct] += coeff * factor
            else:
                pending[reduct] = coeff * factor
                heapq.heappush(heap, (key(reduct), reduct))
    return NCPoly(result), steps
