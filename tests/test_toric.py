import random
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from oracles import (
    canonical_divisor,
    contains,
    divisor_route,
    fold_parallelepiped_points,
    integer_kernel_of_row,
    integer_pair,
    pairing,
    q_cartier_route,
    rank,
    rref,
    same_lattice_by_coords,
    solve_exact,
    to_ambient,
)

from logcentre import linalg, toric
from logcentre.errors import NotApplicable, ResourceLimit
from logcentre.toric import (
    Cone,
    ConePair,
    Lattice,
    ToricDivisor,
    canonical_check,
    canonical_functional,
    cover_correspondence_check,
    dual_cone,
    dual_cone_generators,
    hilbert_basis,
    klt_check,
    log_canonical_cover,
    pair_functional,
    q_cartier_functional,
)

# Shared fixtures: the half-point lattice over the square cone, and the
# one-third weighted plane.


def _square_pair():
    lattice = Lattice(((1, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2))))
    cone = Cone(lattice, ((0, 0, 1), (0, 1, 2), (1, 0, 2), (1, 1, 2)))
    return ConePair(cone, ToricDivisor((Fraction(1, 2), 0, 0, 0)))


def _third_pair():
    lattice = Lattice(((1, 0), (Fraction(1, 3), Fraction(1, 3))))
    cone = Cone(lattice, ((1, 0), (-1, 3)))
    return ConePair(cone, ToricDivisor((0, 0)))


def _orthant(dim):
    return Cone.from_rays(tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)))


# Lattices.


def test_lattice_roundtrip_and_membership():
    lattice = Lattice(((1, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2))))
    assert to_ambient(lattice, (0, 0, 2)) == (0, 0, 1)


@pytest.mark.parametrize("ambient", [(1, 0, 0, 5), (1, 0)], ids=["long", "short"])
def test_lattice_coordinates_need_matching_dimension(ambient):
    # An extra entry is not dropped: (1, 0, 0, 5) is no point of Z^3.
    lattice = Lattice.standard(3)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        to_ambient(lattice, ambient)


def test_lattice_requires_invertible_basis():
    with pytest.raises(ValueError):
        Lattice(((1, 0), (2, 0)))
    with pytest.raises(ValueError):
        Lattice(((1, 0),))


def test_dual_lattice_pairs_to_identity():
    lattice = Lattice(((2, 1), (1, 1)))
    dual = lattice.dual()
    for i, u in enumerate(dual.basis):
        for j, v in enumerate(lattice.basis):
            assert sum(a * b for a, b in zip(u, v)) == int(i == j)


def test_dual_lattice_round_trip_on_random_rational_bases():
    rng = random.Random(621)
    outcomes = set()
    for _ in range(300):
        dim = rng.randint(1, 4)
        basis = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]
            for _ in range(dim)
        ]
        if dim > 1 and rng.random() < 0.2:
            basis[-1] = [a + 2 * b for a, b in zip(basis[0], basis[1])]
        if rank(basis) < dim:
            with pytest.raises(ValueError, match="^matrix is singular$"):
                Lattice(basis)
            outcomes.add("singular")
            continue
        lattice = Lattice(basis)
        dual = lattice.dual()
        for i, u in enumerate(dual.basis):
            for j, v in enumerate(lattice.basis):
                assert sum(a * b for a, b in zip(u, v)) == int(i == j)
        assert dual.dual() == lattice
        # The integer form is reduced, so one lattice has one form, however
        # it was built, and the Fraction view rebuilds it.
        for each in (lattice, dual):
            entries = [x for row in each.scaled for x in row]
            assert each.denominator >= 1 and gcd(each.denominator, *entries) == 1, basis
            rebuilt = Lattice(each.basis)
            assert rebuilt == each and hash(rebuilt) == hash(each), basis
        outcomes.add("dual")
    assert outcomes == {"singular", "dual"}


def test_dual_basis_matches_the_solve_route():
    # One adjugate of the integer form against d Fraction solves
    # <u_i, b_j> = [i == j]; the integer form over its denominator, which the
    # dual gets without Lattice.__post_init__, must match too.
    rng = random.Random(3417)
    checked = 0
    while checked < 300:
        dim = rng.randint(1, 4)
        basis = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(dim)]
            for _ in range(dim)
        ]
        if rank(basis) < dim:
            continue
        lattice = Lattice(basis)
        unit = [[int(i == j) for j in range(dim)] for i in range(dim)]
        expected = Lattice(tuple(solve_exact(lattice.basis, e) for e in unit))
        dual = lattice.dual()
        assert dual.basis == expected.basis, basis
        assert (dual.scaled, dual.denominator) == (expected.scaled, expected.denominator)
        checked += 1


def test_computed_lattices_make_no_fraction(monkeypatch):
    # A lattice is held as its integer form: the cover, the dual and the
    # standard lattice are built from integer forms, and only the basis view
    # makes Fractions.
    from logcentre.casestudies import francia_input_document
    from logcentre.corpus import random_standard_pairs

    pairs = random_standard_pairs(3, 300)
    base = francia_input_document().objects["base"].cone
    runs = {
        "cover": lambda: all(cover_correspondence_check(pair) for pair in pairs),
        "dual": lambda: dual_cone(base),
        "standard": lambda: Lattice.standard(3),
        "standard basis": lambda: Lattice.standard(3).basis,
    }
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    counts, results = {}, {}
    for name, run in runs.items():
        made.clear()
        results[name] = run()
        counts[name] = len(made)
    monkeypatch.undo()
    assert counts == {"cover": 0, "dual": 0, "standard": 0, "standard basis": 9}
    assert results["cover"] is True


def test_same_lattice():
    standard = Lattice.standard(2)
    sheared = Lattice(((1, 0), (1, 1)))
    doubled = Lattice(((2, 0), (0, 1)))
    assert standard.same_lattice(sheared)
    assert not standard.same_lattice(doubled)
    assert not doubled.same_lattice(standard)


def _unimodular(rng, dim):
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(3 * dim):
        i, j = rng.sample(range(dim), 2) if dim > 1 else (0, 0)
        if i != j:
            c = rng.randint(-2, 2)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[i] = [-a for a in rows[i]]
    rng.shuffle(rows)
    return rows


def test_same_lattice_matches_coordinate_route():
    # Second bases: a unimodular change of basis (same lattice), an integer
    # change of |det| > 1 (a proper sublattice), or k times a unimodular change
    # with k dividing the denominator, a sublattice whose integer form can
    # match the first basis's when the two denominators are ignored. Then a
    # lattice of one more dimension.
    rng = random.Random(1702)
    verdicts = Counter()
    for _ in range(400):
        dim = rng.randint(1, 4)
        denominator = rng.choice((1, 2, 3, 4, 6))
        basis = [[Fraction(rng.randint(-4, 4), denominator) for _ in range(dim)]
                 for _ in range(dim)]
        if rank(basis) < dim:
            continue
        kind = rng.choice(("unimodular", "sublattice", "scaled"))
        if kind == "unimodular":
            change = _unimodular(rng, dim)
        elif kind == "sublattice":
            change = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
            if abs(linalg.det_int(change)) < 2:
                continue
        else:
            k = rng.choice([k for k in (2, 3) if denominator % k == 0] or [1])
            change = [[k * a for a in row] for row in _unimodular(rng, dim)]
        other = [[sum(c * row[i] for c, row in zip(line, basis)) for i in range(dim)]
                 for line in change]
        first, second = Lattice(basis), Lattice(other)
        expected = same_lattice_by_coords(first, second)
        assert expected == (abs(linalg.det_int(change)) == 1), (basis, change)
        assert first.same_lattice(second) == expected, (basis, change)
        assert second.same_lattice(first) == expected, (basis, change)
        verdicts[expected] += 1
        if dim < 4:
            wider = Lattice.standard(dim + 1)
            assert not first.same_lattice(wider) and not wider.same_lattice(first)
            assert not same_lattice_by_coords(first, wider)
    assert verdicts[True] > 50 and verdicts[False] > 50


# Cones.


def test_orthant_facets_and_membership():
    cone = _orthant(3)
    assert cone.facets == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert contains(cone, (2, 5, 0))
    assert not contains(cone, (-1, 0, 0))


def test_from_rays_primitivises():
    cone = Cone.from_rays(((2, 0), (0, 3)))
    assert cone.rays == ((1, 0), (0, 1))


def test_inexact_inputs_are_refused():
    # int() would truncate (5/2, 1) to (2, 1), whose cone is canonical; the
    # cone over (5, 2) and (0, 1) that was meant is not.
    assert canonical_check(Cone.from_rays(((2, 1), (0, 1)))) is True
    assert canonical_check(Cone.from_rays(((5, 2), (0, 1)))) is False
    for bad, shown in ((2.5, "2.5"), (Fraction(3, 2), "3/2"), (1.9, "1.9")):
        message = rf"^ray \({shown}, 1\) has a non-integer coordinate$"
        with pytest.raises(ValueError, match=message):
            Cone.from_rays(((bad, 1), (0, 1)))
        with pytest.raises(ValueError, match=message):
            Cone(Lattice.standard(2), ((0, 1), (bad, 1)))
    # An integral Fraction is an integer.
    cone = Cone.from_rays(((Fraction(4, 2), 1), (0, Fraction(1))))
    assert cone.rays == ((2, 1), (0, 1))
    assert {type(x) for ray in cone.rays for x in ray} == {int}
    # 0.1 would be 3602879701896397/36028797018963968.
    with pytest.raises(TypeError, match="^floating point entries are not exact"):
        ToricDivisor((0.1, 0))
    with pytest.raises(TypeError, match="^floating point entries are not exact"):
        Lattice(((1, 0), (0, 0.5)))
    assert ToricDivisor((Fraction(1, 10), 0)).coeffs == (Fraction(1, 10), 0)


def test_bools_text_and_decimals_are_not_rationals():
    # Fraction() would read True as 1, and "0.5" or "1e-1" by its own parser.
    for bad in (True, "0.5", "1e-1", Decimal("0.1")):
        message = f"^expected an int or a Fraction, got {type(bad).__name__}$"
        with pytest.raises(TypeError, match=message):
            ToricDivisor((bad, 0))
        with pytest.raises(TypeError, match=message):
            Lattice(((bad, 0), (0, 1)))


@pytest.mark.parametrize("dim", [True, 2.0, "3", 0, -1])
def test_standard_lattice_dimension_is_a_positive_int(dim):
    message = rf"^lattice dimension must be a positive integer, got {re.escape(repr(dim))}$"
    with pytest.raises(ValueError, match=message):
        Lattice.standard(dim)


def test_bool_and_non_number_coordinates_are_refused():
    # int() would read True as 1. A number is shown as written, anything else
    # by repr, so the text "1" does not read as the number 1.
    for bad, shown in ((True, "True"), ("1", "'1'"), (None, "None"), ([1], "[1]")):
        message = rf"^ray \({re.escape(shown)}, 0\) has a non-integer coordinate$"
        with pytest.raises(ValueError, match=message):
            Cone.from_rays(((bad, 0), (0, 1)))


@pytest.mark.parametrize("rays", [((), (0, 1)), ((0, 1), ())], ids=["first", "second"])
def test_empty_ray_is_a_dimension_mismatch(rays):
    # Each ray's length is checked before any ray is made primitive, against
    # the lattice's dimension or, by default, the longest ray's length.
    for lattice in (None, Lattice.standard(2)):
        with pytest.raises(ValueError, match="^ray dimension mismatch$"):
            Cone.from_rays(rays, lattice)


def test_cone_validation():
    with pytest.raises(ValueError, match=r"^ray \(2, 0\) is not primitive$"):
        Cone(Lattice.standard(2), ((2, 0), (0, 1)))
    # The half-plane y >= 0: its lineality line holds the rays (1, 0), (-1, 0).
    with pytest.raises(ValueError, match="^cone is not pointed$"):
        Cone.from_rays(((1, 0), (-1, 0), (0, 1)))
    with pytest.raises(ValueError, match=r"^ray \(1, 1\) is not extreme$"):
        Cone.from_rays(((1, 0), (0, 1), (1, 1)))
    with pytest.raises(ValueError, match="^rays must be pairwise distinct$"):
        Cone.from_rays(((1, 0), (1, 0), (0, 1)))
    with pytest.raises(ValueError, match="^cone is not full-dimensional$"):
        Cone.from_rays(((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="^cone needs at least one ray$"):
        Cone(Lattice.standard(2), ())
    with pytest.raises(ValueError, match="^cone needs at least one ray$"):
        Cone.from_rays(())
    with pytest.raises(ValueError, match="^cone is not pointed$"):
        Cone.from_rays(((1,), (-1,)))
    # Rank d - 1, then rank below d - 1.
    with pytest.raises(ValueError, match="^cone is not full-dimensional$"):
        Cone.from_rays(((1, 0, 1), (0, 1, 1), (1, 1, 2), (1, -1, 0)))
    with pytest.raises(ValueError, match="^cone is not full-dimensional$"):
        Cone.from_rays(((1, 1, 1, 0), (2, 2, 2, 1), (-1, -1, -1, 0)))
    # (1, 1, 1) is interior: it lies on no facet.
    with pytest.raises(ValueError, match=r"^ray \(1, 1, 1\) is not extreme$"):
        Cone.from_rays(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
    # The whole plane: no facets, so every ray lies on all of them.
    with pytest.raises(ValueError, match="^cone is not pointed$"):
        Cone.from_rays(((1, 0), (0, 1), (-1, -1)))


def _oracle_normal(subset, dim):
    """Primitive integer vector orthogonal to dim - 1 independent vectors."""
    red, pivots = rref(subset)
    free = next(c for c in range(dim) if c not in pivots)
    x = [Fraction(int(c == free)) for c in range(dim)]
    for row, c in zip(red, pivots):
        x[c] = -row[free]
    m = lcm(*(q.denominator for q in x))
    return linalg.primitive_vector([int(q * m) for q in x])


def _oracle_cone(dim, rays):
    """Facets of the cone over distinct primitive rays, or the refusal message,
    from the rank tests: the rays span, the facets span, and the facets on
    each ray have rank d - 1."""
    if rank(rays) != dim:
        return "cone is not full-dimensional"
    facets = set()
    for subset in combinations(rays, dim - 1):
        if rank(subset) == dim - 1:
            n = _oracle_normal(subset, dim)
            values = [sum(a * b for a, b in zip(n, ray)) for ray in rays]
            if min(values) >= 0:
                facets.add(n)
            elif max(values) <= 0:
                facets.add(tuple(-x for x in n))
    facets = tuple(sorted(facets))
    if rank(facets) != dim:
        return "cone is not pointed"
    for ray in rays:
        touching = [n for n in facets if sum(a * b for a, b in zip(n, ray)) == 0]
        if rank(touching) != dim - 1:
            return f"ray {ray} is not extreme"
    return facets


def test_cone_shape_matches_rank_oracle_on_random_ray_sets():
    rng = random.Random(4453)
    outcomes = set()
    for _ in range(1000):
        dim = rng.randint(1, 4)
        bound = rng.randint(1, 3)
        count = rng.randint(1, dim + 3)
        if dim > 1 and rng.random() < 0.3:
            # Combinations of fewer than dim vectors: rank below dim.
            gens = [
                [rng.randint(-bound, bound) for _ in range(dim)]
                for _ in range(rng.randint(1, dim - 1))
            ]
            vectors = [
                [sum(rng.randint(-2, 2) * g[i] for g in gens) for i in range(dim)]
                for _ in range(count)
            ]
        else:
            vectors = [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(count)]
        rays = list(dict.fromkeys(linalg.primitive_vector(v) for v in vectors if any(v)))
        if not rays:
            continue
        expected = _oracle_cone(dim, rays)
        try:
            actual = Cone(Lattice.standard(dim), rays).facets
        except ValueError as exc:
            actual = str(exc)
        assert actual == expected, (dim, rays)
        outcomes.add(expected.split()[-1] if isinstance(expected, str) else "built")
    assert outcomes == {"built", "full-dimensional", "pointed", "extreme"}


def test_cone_resource_limits():
    with pytest.raises(ResourceLimit):
        _orthant(5)
    with pytest.raises(ResourceLimit):
        Cone.from_rays(((1, 0), (101, 1)))


def test_dimension_limit_names_its_constant():
    with pytest.raises(ResourceLimit, match=r"^dimension 5 exceeds .* MAX_DIM = 4$"):
        _orthant(5)


def test_ray_coordinate_limit_names_its_constant():
    with pytest.raises(ResourceLimit, match=r"^ray \(101, 1\) has .* MAX_RAY_COORD = 100$"):
        Cone.from_rays(((1, 0), (101, 1)))


def test_parallelepiped_limit_names_its_constant():
    # One simplicial piece of determinant 100^4 - 1; K has index 101, so the
    # canonical test has to enumerate too.
    cone = Cone.from_rays(((100, 1, 0, 0), (0, 100, 1, 0), (0, 0, 100, 1), (1, 0, 0, 100)))
    assert toric.MAX_PARALLELEPIPED_POINTS == 10**6
    for check in (hilbert_basis, canonical_check):
        with pytest.raises(
            ResourceLimit,
            match=r"^fundamental parallelepipeds hold 99999999 lattice points, "
            r"above the cap MAX_PARALLELEPIPED_POINTS = 1000000$",
        ):
            check(cone)


def _paraboloid_rays(count):
    # Points (a, b, a^2 + b^2) at height 1 lie on a strictly convex surface,
    # so every one of them spans an extreme ray.
    points = sorted(product(range(-9, 10), repeat=2), key=lambda p: (p[0] ** 2 + p[1] ** 2, p))
    return [(a, b, a * a + b * b, 1) for a, b in points[:count]]


def test_facet_enumeration_is_capped():
    # C(28, 3) * 28 = 91,728 pairings fit under the cap; C(29, 3) * 29 = 105,966 do not.
    assert toric.MAX_FACET_PAIRINGS == 10**5
    assert len(Cone.from_rays(_paraboloid_rays(28)).rays) == 28
    with pytest.raises(
        ResourceLimit,
        match=r"^29 rays in dimension 4 need 105966 facet pairings, "
        r"above the cap MAX_FACET_PAIRINGS = 100000$",
    ):
        Cone.from_rays(_paraboloid_rays(29))
    with pytest.raises(ResourceLimit, match="need 6572800 facet pairings"):
        Cone.from_rays(_paraboloid_rays(80))


def test_one_dimensional_cone():
    cone = Cone.from_rays(((1,),))
    assert cone.facets == ((1,),)
    assert hilbert_basis(cone) == ((1,),)
    assert canonical_check(cone) is True


# Q-Cartier functionals and indices.


def test_square_pair_functionals():
    pair = _square_pair()
    assert q_cartier_functional(pair.cone, canonical_divisor(pair.cone)) is None
    assert canonical_functional(pair.cone) is None
    w, m = pair_functional(pair)
    assert (w, m) == ((0, 0, 1), 2)  # u = (0, 0, 1/2), index 2
    for ray, coeff in zip(pair.cone.rays, pair.boundary.coeffs):
        assert pairing(w, ray) == m * (1 - coeff)


def test_third_pair_functional():
    pair = _third_pair()
    assert pair_functional(pair) == ((3, 2), 3)  # u = (1, 2/3), index 3


def test_simplicial_divisors_are_always_q_cartier():
    cone = _orthant(3)
    assert q_cartier_functional(cone, ToricDivisor((1, 2, 3))) == ((-1, -2, -3), 1)


def _assert_integer_pair(solved):
    # None, or (w, m) in lowest terms: a tuple of ints over an int m >= 1.
    if solved is not None:
        w, m = solved
        assert type(w) is tuple and all(type(x) is int for x in (*w, m)), solved
        assert m >= 1 and gcd(m, *w) == 1, solved


def test_pair_functional_matches_q_cartier_route():
    # The integer rows [q*v, q - p] against the Fraction divisor D - 1 route,
    # and the rows [q*v, -p] of random rational divisors against solve_exact.
    # Every public functional is (w, m) or None: q_cartier_functional,
    # canonical_functional, pair_functional, KltResult.functional and
    # CoverResult.cover_functional.
    from logcentre.corpus import random_standard_pairs

    def k_route(cone):
        return integer_pair(divisor_route(cone, canonical_divisor(cone).coeffs))

    boundaries = [(0, 0, 0), (Fraction(1, 2),) * 3, (Fraction(1, 3),) * 3,
                  (0, Fraction(1, 2), Fraction(1, 3))]
    quotients = [
        ConePair(_cyclic_quotient_cone(r, a, b), ToricDivisor(boundary))
        for r, a, b in _quotient_weights(8)
        for boundary in boundaries
    ]
    corpus = [pair for seed in range(3) for pair in random_standard_pairs(seed, 300)]
    square = ConePair(_square_pair().cone, ToricDivisor((0, 0, 0, 0)))
    denominators, k_denominators, covers = Counter(), Counter(), Counter()
    for pair in (*quotients, *corpus, _square_pair(), _third_pair(), square):
        u = pair_functional(pair)
        assert u == integer_pair(q_cartier_route(pair)), pair
        assert klt_check(pair).functional == u, pair
        k = canonical_functional(pair.cone)
        assert k == k_route(pair.cone), pair
        assert q_cartier_functional(pair.cone, canonical_divisor(pair.cone)) == k, pair
        for solved in (u, k):
            _assert_integer_pair(solved)
        denominators[None if u is None else u[1]] += 1
        k_denominators[None if k is None else k[1]] += 1
        try:
            cover = log_canonical_cover(pair)
        except NotApplicable:
            covers["refused"] += 1
            continue
        assert cover.cover_functional == k_route(cover.cover_cone), pair
        _assert_integer_pair(cover.cover_functional)
        covers["built"] += 1
    assert pair_functional(square) is None and denominators[None] >= 1
    assert denominators[1] > 0 and len(denominators) > 5, denominators
    assert k_denominators[None] > 0 and len(k_denominators) > 3, k_denominators
    assert covers["built"] > 900 and covers["refused"] > 0, covers

    rng = random.Random(2212)
    outcomes = Counter()
    cones = [pair.cone for pair in (*quotients[::4], *corpus[::31], _square_pair())]
    for cone in cones:
        for _ in range(3):
            coeffs = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in cone.rays)
            u = q_cartier_functional(cone, ToricDivisor(coeffs))
            assert u == integer_pair(divisor_route(cone, coeffs)), (cone, coeffs)
            _assert_integer_pair(u)
            outcomes["none" if u is None else "q-cartier"] += 1
    assert outcomes["none"] > 0 and outcomes["q-cartier"] > 0, outcomes


def test_cover_lattice_matches_fraction_construction(monkeypatch):
    # The cover lattice built from the base's integer form equals the one that
    # Lattice.__post_init__ makes from the Fraction basis vectors, down to the
    # reduced integer form; on quotient covers the common denominator drops.
    from logcentre.corpus import random_standard_pairs

    built = []
    sublattice = toric._sublattice

    def recorded(base, columns):
        lattice = sublattice(base, columns)
        built.append((base, columns, lattice))
        return lattice

    monkeypatch.setattr(toric, "_sublattice", recorded)
    quotients = [
        ConePair(_cyclic_quotient_cone(r, a, b), ToricDivisor((0, 0, 0)))
        for r, a, b in _quotient_weights(12)
    ]
    assert len(quotients) == 137
    corpus = [pair for seed in range(2) for pair in random_standard_pairs(seed, 300)]
    reduced = 0
    for pair in (*quotients, *corpus):
        built.clear()
        cover = log_canonical_cover(pair)
        ((base, columns, lattice),) = built
        assert lattice is cover.cover_lattice and base == pair.cone.lattice
        expected = Lattice(tuple(to_ambient(base, col) for col in columns))
        assert lattice.basis == expected.basis, pair
        assert lattice.scaled == expected.scaled, pair
        assert lattice.denominator == expected.denominator, pair
        reduced += lattice.denominator < base.denominator
    assert reduced > 100, reduced


def test_q_cartier_functional_does_not_depend_on_ray_order():
    # The four rays with first coordinate 1 span a facet of the cone over the
    # cube, so when they are listed first the first four equations are singular.
    cube = [(a, b, c, 1) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    first, last = Cone.from_rays(cube), Cone.from_rays(cube[4:] + cube[:4])
    u = (Fraction(1, 2), Fraction(-1, 3), 1, 2)
    for cone in (first, last):
        assert q_cartier_functional(cone, canonical_divisor(cone)) == ((0, 0, 0, 1), 1)
        assert canonical_functional(cone) == ((0, 0, 0, 1), 1)
        divisor = ToricDivisor(tuple(-pairing(u, ray) for ray in cone.rays))
        assert q_cartier_functional(cone, divisor) == ((3, -2, 6, 12), 6)
        # Moving one coefficient leaves no functional.
        bent = ToricDivisor((divisor.coeffs[0] + 1,) + divisor.coeffs[1:])
        assert q_cartier_functional(cone, bent) is None


# klt tests.


def test_square_pair_is_klt():
    result = klt_check(_square_pair())
    assert result.is_klt is True
    assert result.functional == ((0, 0, 1), 2)


def test_klt_fails_without_functional():
    pair = ConePair(_square_pair().cone, ToricDivisor((0, 0, 0, 0)))
    result = klt_check(pair)
    assert result.is_klt is False
    assert result.functional is None


def test_klt_fails_on_coefficient_one():
    pair = ConePair(_orthant(2), ToricDivisor((1, 0)))
    result = klt_check(pair)
    assert result.is_klt is False
    assert result.functional == ((0, 1), 1)


def test_boundary_coefficient_range():
    with pytest.raises(ValueError):
        ConePair(_orthant(2), ToricDivisor((Fraction(3, 2), 0)))
    with pytest.raises(ValueError):
        ConePair(_orthant(2), ToricDivisor((-Fraction(1, 2), 0)))
    with pytest.raises(ValueError):
        ConePair(_orthant(2), ToricDivisor((0,)))


# Hilbert bases, with an independent generation-and-minimality oracle.


def _assert_is_hilbert_basis(cone, basis):
    dim = cone.dim
    lo = [sum(min(0, r[i]) for r in cone.rays) for i in range(dim)]
    hi = [sum(max(0, r[i]) for r in cone.rays) for i in range(dim)]
    points = [
        p
        for p in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        if any(p) and contains(cone, p)
    ]

    @lru_cache(maxsize=None)
    def representable(point, skip):
        if not any(point):
            return True
        for g in basis:
            if g == skip:
                continue
            rest = tuple(a - b for a, b in zip(point, g))
            if contains(cone, rest) and representable(rest, skip):
                return True
        return False

    for p in points:
        assert representable(p, None), f"{p} not generated"
    for g in basis:
        assert not representable(g, g), f"{g} is redundant"


def test_hilbert_basis_orthant():
    assert hilbert_basis(_orthant(2)) == ((0, 1), (1, 0))
    assert hilbert_basis(_orthant(3)) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_hilbert_basis_needs_interior_generator():
    cone = Cone.from_rays(((1, 0), (1, 2)))
    assert hilbert_basis(cone) == ((1, 0), (1, 1), (1, 2))


def test_hilbert_basis_third_singularity():
    basis = hilbert_basis(_third_pair().cone)
    assert basis == ((-1, 3), (0, 1), (1, 0))


def test_hilbert_basis_oracle_fixed_cones():
    for rays in (((1, 0), (1, 2)), ((1, 0), (-1, 3)), ((2, -1), (0, 1)), ((1, 0), (3, 4))):
        cone = Cone.from_rays(rays)
        _assert_is_hilbert_basis(cone, hilbert_basis(cone))
    cover = Cone.from_rays(((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
    _assert_is_hilbert_basis(cover, hilbert_basis(cover))


@given(st.tuples(*(st.integers(-3, 3) for _ in range(4))))
def test_hilbert_basis_oracle_random(entries):
    a, b, c, d = entries
    assume(a * d - b * c != 0)
    rays = (linalg.primitive_vector((a, b)), linalg.primitive_vector((c, d)))
    assume(rays[0] != rays[1])
    cone = Cone.from_rays(rays)
    _assert_is_hilbert_basis(cone, hilbert_basis(cone))


def test_hilbert_basis_is_deterministic_and_contains_rays():
    cone = Cone.from_rays(((2, -1), (0, 1)))
    basis = hilbert_basis(cone)
    assert basis == hilbert_basis(cone)
    assert set(cone.rays) <= set(basis)


@given(st.tuples(*(st.integers(-3, 3) for _ in range(4))), st.sampled_from([0, 1, 2]))
def test_klt_reduces_to_coefficient_bound(entries, style):
    # whenever a supporting functional exists, klt means exactly that every
    # boundary coefficient is below one
    a, b, c, d = entries
    assume(a * d - b * c != 0)
    rays = (linalg.primitive_vector((a, b)), linalg.primitive_vector((c, d)))
    assume(rays[0] != rays[1])
    coeffs = ((0, 0), (Fraction(1, 2), Fraction(2, 3)), (1, Fraction(1, 2)))[style]
    pair = ConePair(Cone.from_rays(rays), ToricDivisor(coeffs))
    result = klt_check(pair)
    assert result.functional is not None  # simplicial, so always representable
    assert result.is_klt == all(x < 1 for x in coeffs)


def test_hilbert_basis_of_rectangle_cones():
    # The cone over an a x b rectangle at height one is Gorenstein and its
    # Hilbert basis is exactly the (a+1)(b+1) lattice points of the rectangle.
    for a in range(1, 5):
        for b in range(1, 5):
            cone = Cone.from_rays(((0, 0, 1), (a, 0, 1), (0, b, 1), (a, b, 1)))
            basis = hilbert_basis(cone)
            assert len(basis) == (a + 1) * (b + 1)
            assert set(basis) == {(i, j, 1) for i in range(a + 1) for j in range(b + 1)}
            assert canonical_check(cone) is True


def test_det_one_cone_is_answered():
    # Its zonotope spans a box of over 2 * 10^6 points, but its one
    # parallelepiped holds only the origin.
    rays = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (99, 99, 99, 1))
    cone = Cone.from_rays(rays)
    assert hilbert_basis(cone) == tuple(sorted(rays))
    assert canonical_check(cone) is True


def test_hilbert_basis_of_a_det_99_cone():
    cone = Cone.from_rays(((1, 0, 0), (0, 1, 0), (97, 98, 99)))
    assert hilbert_basis(cone) == ((0, 1, 0), (1, 0, 0), (1, 1, 1), (49, 50, 50), (97, 98, 99))


# Canonical test.


def test_canonical_examples():
    assert canonical_check(_orthant(2)) is True
    assert canonical_check(_third_pair().cone) is False
    cover = Cone.from_rays(((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
    assert canonical_check(cover) is True


def test_canonical_requires_q_cartier():
    with pytest.raises(NotApplicable):
        canonical_check(_square_pair().cone)


def test_canonical_refusals_come_in_order():
    # K of the cube cone is Cartier, so it is canonical without enumeration.
    cube = Cone.from_rays([(a, b, c, 1) for a in (-10, 10) for b in (-10, 10) for c in (-10, 10)])
    assert canonical_check(cube) is True
    # NotApplicable comes before the cap, which hilbert_basis meets.
    not_q_cartier = Cone.from_rays(
        ((100, 1, 0, 0), (0, 100, 1, 0), (0, 0, 100, 1), (1, 0, 0, 100), (1, 0, 0, 0))
    )
    with pytest.raises(NotApplicable):
        canonical_check(not_q_cartier)
    with pytest.raises(ResourceLimit):
        hilbert_basis(not_q_cartier)


@lru_cache(maxsize=None)
def _all_pairs_hilbert_basis(cone):
    # Oracle: candidates from the zonotope box, each one tested for
    # reducibility against every other candidate. Cached, as _oracle_canonical
    # asks for the same cones again.
    dim = cone.dim
    lo = [sum(min(0, r[i]) for r in cone.rays) for i in range(dim)]
    hi = [sum(max(0, r[i]) for r in cone.rays) for i in range(dim)]
    candidates = [
        p
        for p in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        if any(p) and contains(cone, p)
    ]
    return tuple(
        sorted(
            x
            for x in candidates
            if not any(
                y != x and contains(cone, tuple(a - b for a, b in zip(x, y)))
                for y in candidates
            )
        )
    )


def _oracle_canonical(cone):
    u = divisor_route(cone, canonical_divisor(cone).coeffs)
    if u is None:
        return None
    return all(pairing(u, h) >= 1 for h in _all_pairs_hilbert_basis(cone))


def _quotient_weights(below):
    """(r, a, b) of the isolated quotients 1/r(1,a,b), a <= b, for r < below."""
    return [
        (r, a, b)
        for r in range(2, below)
        for a in range(1, r)
        for b in range(a, r)
        if gcd(a, r) == 1 and gcd(b, r) == 1
    ]


def _cyclic_quotient_cone(r, a, b):
    # 1/r(1,a,b): the positive orthant over the lattice Z^3 + Z(1,a,b)/r.
    lattice = Lattice(((Fraction(1, r), Fraction(a, r), Fraction(b, r)), (0, 1, 0), (0, 0, 1)))
    return Cone(lattice, ((r, -a, -b), (0, 1, 0), (0, 0, 1)))


def test_canonical_matches_reid_tai_on_cyclic_quotients():
    # Reid-Tai: 1/r(w) is canonical iff sum {k*w_i/r} >= 1 for k = 1..r-1.
    verdicts = []
    for r in range(2, 12):
        for a in range(1, r):
            for b in range(a, r):
                if gcd(a, r) != 1 or gcd(b, r) != 1:
                    continue
                expected = all(
                    sum(k * w % r for w in (1, a, b)) >= r for k in range(1, r)
                )
                assert canonical_check(_cyclic_quotient_cone(r, a, b)) is expected, (r, a, b)
                verdicts.append(expected)
    assert True in verdicts and False in verdicts


def _random_cone(rng):
    dim = rng.choice((2, 3, 4))
    bound = {2: 4, 3: 2, 4: 1}[dim]
    count = rng.randint(dim, dim + 1)
    # Rays at a common height make K Q-Cartier on non-simplicial cones too.
    height = rng.randint(1, 3) if dim == 3 and rng.random() < 0.5 else None
    rays = set()
    while len(rays) < count:
        v = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if height is not None:
            v = v[:-1] + (height,)
        if any(v):
            rays.add(linalg.primitive_vector(v))
    return Cone.from_rays(sorted(rays))


def _random_cones():
    """100 seeded random cones."""
    rng = random.Random(20230217)
    cones = []
    while len(cones) < 100:
        try:
            cones.append(_random_cone(rng))
        except ValueError:
            continue  # not pointed, not full-dimensional, or a ray not extreme
    return cones


def test_canonical_and_hilbert_basis_match_oracles_on_random_cones():
    verdicts = []
    for cone in _random_cones():
        expected = _oracle_canonical(cone)
        if expected is None:
            with pytest.raises(NotApplicable):
                canonical_check(cone)
        else:
            assert canonical_check(cone) is expected, cone
        basis = hilbert_basis(cone)
        assert basis == _all_pairs_hilbert_basis(cone)
        _assert_is_hilbert_basis(cone, basis)
        verdicts.append(expected)
    assert {True, False, None} <= set(verdicts)


def _height_two_rays(rng):
    # 6 to 8 points of a box in {-1, 0, 1}^3, each with an odd coordinate, at
    # height 2: primitive rays on which K is u = x_4 / 2, of index 2. In a
    # quarter of the draws one ray is moved to height 3, which leaves no u.
    lows = [rng.choice((-1, 0)) for _ in range(3)]
    pool = [(*v, 2) for v in product(*(range(lo, 2) for lo in lows)) if any(x % 2 for x in v)]
    rays = rng.sample(pool, min(len(pool), rng.randint(6, 8)))
    if rng.random() < 0.25:
        rays[0] = rays[0][:3] + (3,)
    return rays


def _zonotope_box_size(rays):
    size = 1
    for coords in zip(*rays):
        size *= sum(abs(x) for x in coords) + 1
    return size


def _large_facet_cones():
    """Ten seeded cones with a facet of 4 or more rays: such a facet splits
    into overlapping simplicial pieces, so the parallelepipeds repeat points."""
    rng = random.Random(6264)
    wanted = {6: 4, 7: 4, 8: 2}  # cones still to find, by ray count
    cones = []
    while any(wanted.values()):
        rays = _height_two_rays(rng)
        if not wanted.get(len(rays)) or _zonotope_box_size(rays) > 2100:
            continue  # the box bound keeps the all-pairs oracle under a second
        try:
            cone = Cone.from_rays(rays)
        except ValueError:
            continue  # a ray not extreme
        if max(sum(pairing(n, ray) == 0 for ray in cone.rays) for n in cone.facets) < 4:
            continue
        wanted[len(rays)] -= 1
        cones.append(cone)
    return cones


def test_canonical_and_hilbert_basis_match_oracles_on_cones_with_large_facets():
    seen = []
    for cone in _large_facet_cones():
        expected = _oracle_canonical(cone)
        if expected is None:
            with pytest.raises(NotApplicable):
                canonical_check(cone)
        else:
            assert canonical_functional(cone)[1] > 1
            assert canonical_check(cone) is expected, cone
        assert hilbert_basis(cone) == _all_pairs_hilbert_basis(cone), cone
        seen.append(expected)
    assert set(seen) == {True, False, None}


@pytest.mark.parametrize("row_length", [toric._ROW_LENGTH, 2], ids=["rows", "short-rows"])
def test_residue_listing_matches_the_fold(monkeypatch, row_length):
    # The same points in the same order, repeats included, as the fold of
    # each coset representative by the integer parts of its coefficients;
    # rows of two residues split the longer rows as a large piece would be.
    monkeypatch.setattr(toric, "_ROW_LENGTH", row_length)
    cones = _random_cones() + _large_facet_cones()
    repeats = 0
    for cone in cones:
        points = list(toric._parallelepiped_points(cone))
        assert points == list(fold_parallelepiped_points(cone)), cone
        repeats += len(points) - len(set(points))
    assert repeats
    # Pieces with two pivots above 1 list more than one row of residues.
    pivots = [
        [col[j] for j, col in enumerate(linalg.hermite_column_form(piece))]
        for cone in cones
        for piece, _, _ in toric._pieces(cone)
    ]
    assert any(sum(p > 1 for p in piece) > 1 for piece in pivots)


def test_facets_of_random_cones():
    rng = random.Random(20231018)
    built = []
    for _ in range(600):
        dim = rng.choice((2, 3, 4))
        # Keeps every (dim-1)-minor, so every dual ray coordinate, within MAX_RAY_COORD.
        bound = rng.randint(1, {2: 9, 3: 4, 4: 2}[dim])
        rays = {
            linalg.primitive_vector(v)
            for v in (
                tuple(rng.randint(-bound, bound) for _ in range(dim))
                for _ in range(rng.randint(dim, dim + 3))
            )
            if any(v)
        }
        if len(rays) < dim:
            continue  # cannot span the space
        try:
            cone = Cone.from_rays(sorted(rays))
        except ValueError:
            continue  # not pointed, not full-dimensional, or a ray not extreme
        built.append(dim)
        for n in cone.facets:
            assert gcd(*(abs(x) for x in n)) == 1, (cone, n)
            values = [sum(a * b for a, b in zip(n, ray)) for ray in cone.rays]
            assert min(values) >= 0, (cone, n)
            touching = [ray for ray, value in zip(cone.rays, values) if value == 0]
            assert rank(touching) == dim - 1, (cone, n)
        assert set(dual_cone(dual_cone(cone)).rays) == set(cone.rays)
    assert len(built) >= 150 and set(built) == {2, 3, 4}, len(built)


def _bipyramid_cone():
    # The cone at height 1 over the bipyramid on a lattice 16-gon: 18 rays
    # and 32 facets, so its dual needs too many facet pairings.
    steps = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1)]
    corners = [(0, 0)]
    for a, b in steps + [(-a, -b) for a, b in steps[:-1]]:
        corners.append((corners[-1][0] + a, corners[-1][1] + b))
    rays = [(2 * x - 1, 2 * y - 9, 0, 2) for x, y in corners]
    return Cone.from_rays(rays + [(0, 0, 1, 1), (0, 0, -1, 1)])


def test_dual_cone_takes_its_facets_from_the_rays():
    # The dual of the dual is the cone: the dual built from the cone's rays
    # equals the one whose facets Cone.__post_init__ enumerates, and it is
    # refused exactly when, and as, that one is.
    skew = Cone.from_rays(((1, 2, 100), (100, 1, 3), (3, 100, 1)))
    outcomes = Counter()
    for cone in (*_random_cones(), *_large_facet_cones(), _bipyramid_cone(), skew):
        try:
            expected = Cone(cone.lattice.dual(), cone.facets)
        except ResourceLimit as exc:
            with pytest.raises(ResourceLimit) as refused:
                dual_cone(cone)
            assert str(refused.value) == str(exc)
            outcomes[next(n for n in ("MAX_RAY_COORD", "MAX_FACET_PAIRINGS") if n in str(exc))] += 1
            continue
        dual = dual_cone(cone)
        assert dual.lattice == expected.lattice and dual.rays == expected.rays == cone.facets
        assert dual.facets == expected.facets == tuple(sorted(cone.rays)), cone
        outcomes["built"] += 1
    assert outcomes == {"built": 110, "MAX_FACET_PAIRINGS": 1, "MAX_RAY_COORD": 1}, outcomes


# Index-one covers.


def test_square_pair_cover():
    cover = log_canonical_cover(_square_pair())
    assert cover.degree == 2
    assert cover.cover_cone.rays == ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1))
    assert cover.cover_lattice.same_lattice(Lattice.standard(3))
    assert canonical_check(cover.cover_cone) is True


def test_third_pair_cover():
    cover = log_canonical_cover(_third_pair())
    assert cover.degree == 3
    assert cover.cover_cone.rays == ((1, 0), (-1, 1))
    assert cover.cover_lattice.same_lattice(Lattice.standard(2))
    assert canonical_check(cover.cover_cone) is True


def test_cover_scales_rays_by_boundary_index():
    pair = ConePair(_orthant(2), ToricDivisor((Fraction(1, 2), Fraction(2, 3))))
    cover = log_canonical_cover(pair)
    assert cover.degree == 6
    w, m = pair_functional(pair)
    assert cover.cover_lattice.same_lattice(cover.cover_lattice)
    for cover_ray, ray, e in zip(cover.cover_cone.rays, pair.cone.rays, (2, 3)):
        scaled = tuple(e * x for x in ray)
        assert pairing(w, scaled) == m
        # the rescaled ray lies in the cover lattice: it is the cover ray there
        assert to_ambient(cover.cover_lattice, cover_ray) == to_ambient(pair.cone.lattice, scaled)


def test_trivial_cover_is_identity():
    pair = ConePair(_orthant(3), ToricDivisor((0, 0, 0)))
    cover = log_canonical_cover(pair)
    assert cover.degree == 1
    assert cover.cover_cone.rays == pair.cone.rays
    assert cover.cover_lattice.same_lattice(Lattice.standard(3))


def _kernel_route(pair):
    # {x : m*u . x = 0 mod m} as the projection of the integer kernel of the
    # row (m*u, -m): the projected kernel vectors and their Hermite form.
    w, m = pair_functional(pair)
    row = [*w, -m]
    kernel = integer_kernel_of_row(row)
    for vec in kernel:
        assert sum(a * b for a, b in zip(row, vec)) == 0
    projected = [vec[:-1] for vec in kernel]
    return projected, linalg.hermite_column_form(projected)


def test_cover_lattice_matches_kernel_route():
    rng = random.Random(80)
    degrees, rational = set(), 0
    while len(degrees) < 8 or rational < 100:
        dim = rng.choice((2, 3))
        basis = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]
                 for _ in range(dim)]
        if rng.random() < 0.3 or rank(basis) < dim:
            basis = Lattice.standard(dim).basis
        rays = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(dim)]
        if linalg.det_int(rays) == 0:
            continue
        indices = [rng.choice((1, 2, 3, 4, 6)) for _ in rays]
        boundary = ToricDivisor(tuple(Fraction(e - 1, e) for e in indices))
        pair = ConePair(Cone.from_rays(rays, Lattice(basis)), boundary)
        cover = log_canonical_cover(pair)
        projected, hermite = _kernel_route(pair)
        base = pair.cone.lattice
        projected_lattice = Lattice(tuple(to_ambient(base, vec) for vec in projected))
        assert cover.cover_lattice.same_lattice(projected_lattice), pair
        assert cover.cover_lattice.basis == tuple(to_ambient(base, col) for col in hermite), pair
        degrees.add(cover.degree)
        rational += pair.cone.lattice != Lattice.standard(dim)
    assert 1 in degrees and max(degrees) >= 12


def test_pulled_back_cover_facets_match_rebuilt_cone():
    # The cover cone is built from the pair's facets pulled back to the cover
    # basis; enumerating facets from its rays must give the same cone.
    from logcentre.casestudies import francia_input_document
    from logcentre.corpus import random_standard_pairs

    quotients = [
        ConePair(_cyclic_quotient_cone(r, a, b), ToricDivisor((0, 0, 0)))
        for r, a, b in _quotient_weights(12)
    ]
    base = francia_input_document().objects["base"]
    corpus = [pair for seed in range(3) for pair in random_standard_pairs(seed, 300)]
    degrees = Counter()
    for pair in (base, *quotients, *corpus):
        cover = log_canonical_cover(pair)
        rebuilt = Cone(cover.cover_lattice, cover.cover_cone.rays)
        assert cover.cover_cone.facets == rebuilt.facets, pair
        assert cover.cover_cone == rebuilt, pair
        degrees[cover.degree > 1] += 1
    assert degrees[True] > 500 and degrees[False] > 0, degrees


def test_cover_ray_coordinate_limit_keeps_its_message(monkeypatch):
    # Cover rays (2, -1) and (0, 1) at degree 2: the first is above a bound of 1.
    pair = ConePair(_orthant(2), ToricDivisor((Fraction(1, 2), Fraction(1, 2))))
    assert log_canonical_cover(pair).cover_cone.rays == ((2, -1), (0, 1))
    monkeypatch.setattr(toric, "MAX_RAY_COORD", 1)
    with pytest.raises(
        ResourceLimit,
        match=r"^ray \(2, -1\) has a coordinate above the desk-scale bound MAX_RAY_COORD = 1$",
    ):
        log_canonical_cover(pair)


def test_cover_requires_standard_coefficients():
    with pytest.raises(NotApplicable, match=r"^boundary coefficient 1/3 is not of the form"):
        log_canonical_cover(ConePair(_orthant(2), ToricDivisor((Fraction(1, 3), 0))))
    with pytest.raises(NotApplicable, match=r"^boundary coefficient 1 is not of the form"):
        log_canonical_cover(ConePair(_orthant(2), ToricDivisor((1, 0))))


def test_cover_requires_q_cartier():
    pair = ConePair(_square_pair().cone, ToricDivisor((0, 0, 0, 0)))
    with pytest.raises(NotApplicable):
        log_canonical_cover(pair)


# Dual cones.


def test_dual_of_orthant_is_orthant():
    dual = dual_cone(_orthant(3))
    assert dual.rays == _orthant(3).facets
    assert dual_cone_generators(_orthant(3)) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_double_dual_restores_extreme_rays():
    cone = Cone.from_rays(((1, 0), (1, 2)))
    assert set(dual_cone(dual_cone(cone)).rays) == set(cone.rays)


def test_dual_generators_square_pair():
    pair = _square_pair()
    base = dual_cone_generators(pair.cone)
    assert base == ((-2, 0, 1), (-1, -1, 1), (0, -2, 1), (0, 1, 0), (1, 0, 0))
    cover = log_canonical_cover(pair)
    up = dual_cone_generators(cover.cover_cone)
    assert up == ((-1, 0, 1), (0, -1, 1), (0, 1, 0), (1, 0, 0))
    for gen in base:
        assert all(pairing(gen, ray) >= 0 for ray in pair.cone.rays)


# Correspondence.


def test_cover_functional_is_the_solved_one():
    from logcentre.casestudies import francia_input_document
    from logcentre.corpus import random_standard_pairs

    base = francia_input_document().objects["base"]
    for pair in (base, *random_standard_pairs(1, 300)):
        cover = log_canonical_cover(pair)
        solved = q_cartier_functional(cover.cover_cone, canonical_divisor(cover.cover_cone))
        assert cover.cover_functional == solved, pair


def test_correspondence_on_fixed_pairs():
    assert cover_correspondence_check(_square_pair()) is True
    assert cover_correspondence_check(_third_pair()) is True


def test_correspondence_needs_q_cartier():
    pair = ConePair(_square_pair().cone, ToricDivisor((0, 0, 0, 0)))
    with pytest.raises(NotApplicable, match=r"^K\+D is not Q-Cartier$"):
        cover_correspondence_check(pair)


def test_correspondence_refuses_in_order():
    # K+D not Q-Cartier and 1/3 not standard: the Q-Cartier refusal comes first.
    pair = ConePair(_square_pair().cone, ToricDivisor((Fraction(1, 3), 0, 0, 0)))
    with pytest.raises(NotApplicable, match=r"^K\+D is not Q-Cartier$"):
        cover_correspondence_check(pair)
    with pytest.raises(NotApplicable, match=r"^boundary coefficient 1/3 "):
        cover_correspondence_check(ConePair(_orthant(2), ToricDivisor((Fraction(1, 3), 0))))


def test_each_functional_is_solved_once(monkeypatch, tmp_path, capsys):
    from logcentre import cli
    from logcentre.casestudies import francia_input_document
    from logcentre.corpus import random_standard_pairs
    from logcentre.iodoc import serialize_document

    solved = []
    solve_scaled = linalg.solve_scaled

    def counted(eqs):
        solved.append([list(eq) for eq in eqs])
        return solve_scaled(eqs)

    # Every exact solve goes through the one integer solve, and every
    # canonical test through canonical_check.
    monkeypatch.setattr(linalg, "solve_scaled", counted)
    checked = []
    canonical = toric.canonical_check

    def counted_check(cone, *functional):
        checked.append(cone)
        return canonical(cone, *functional)

    monkeypatch.setattr(toric, "canonical_check", counted_check)
    base = francia_input_document().objects["base"]
    for pair in (base, *random_standard_pairs(1, 3)):
        solved.clear()
        checked.clear()
        assert cover_correspondence_check(pair) is True
        assert len(checked) == 1, pair
        # -(K+D) on the base only, as the rows [q_i*v_i, q_i - p_i] for
        # d_i = p_i/q_i: the cover brings its own K functional.
        rows = [
            [d.denominator * x for x in ray] + [d.denominator - d.numerator]
            for ray, d in zip(pair.cone.rays, pair.boundary.coeffs)
        ]
        assert solved == [rows], pair

    path = tmp_path / "francia.json"
    path.write_text(serialize_document(francia_input_document()))
    solved.clear()
    checked.clear()
    assert cli.main(["toric", "canonical", f"{path}#cover"]) == 0
    assert capsys.readouterr().out == "canonical=true u=(0,0,1) index=1\n"
    assert len(solved) == 1 and len(checked) == 1
    # K of the base is not Q-Cartier: one solve of the rows [v_i, 1], then exit 3.
    solved.clear()
    checked.clear()
    assert cli.main(["toric", "canonical", f"{path}#base"]) == 3
    assert capsys.readouterr().out == ""
    assert solved == [[[*ray, 1] for ray in base.cone.rays]] and len(checked) == 1

    # toric index and qcartier: one solve of the rows [q_i*v_i, -p_i] for the
    # coefficients n_i = p_i/q_i of the divisor, K+D by default.
    third = Fraction(-1, 3)
    cases = [
        ("qcartier", [], [d - 1 for d in base.boundary.coeffs], 0, "u=(0,0,1/2)"),
        ("index", [], [d - 1 for d in base.boundary.coeffs], 0, "2"),
        ("qcartier", ["--divisor", "K"], [-1] * 4, 3, "none"),
        ("index", ["--divisor", "K"], [-1] * 4, 3, "none"),
        ("qcartier", ["--divisor", "0,0,-1/3,-1/3"], [0, 0, third, third], 0, "u=(1/3,0,0)"),
        ("index", ["--divisor", "0,0,-1/3,-1/3"], [0, 0, third, third], 0, "3"),
    ]
    for command, flags, coeffs, code, out in cases:
        solved.clear()
        assert cli.main(["toric", command, f"{path}#base", *flags]) == code
        assert capsys.readouterr().out == out + "\n"
        rows = [
            [Fraction(n).denominator * x for x in ray] + [-Fraction(n).numerator]
            for ray, n in zip(base.cone.rays, coeffs)
        ]
        assert solved == [rows], (command, flags)


# Metamorphic gates: no answer depends on the coordinates or on the ray order.


def _small_unimodular(rng, dim):
    """A in GL_d(Z): d elementary row operations and a sign on the identity,
    then the rows permuted; its entries stay small, so most mapped rays keep
    below MAX_RAY_COORD."""
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(dim):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-1, 1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    k = rng.randrange(dim)
    rows[k] = [-a for a in rows[k]]
    rng.shuffle(rows)
    return rows


def _inverse_transpose(a):
    """A^(-T) of A in GL_d(Z), read off the reduced form [I | A^(-1)] of
    [A | I]; its entries are integers exactly when det A = +-1."""
    d = len(a)
    reduced, _ = rref([[*row, *(int(i == j) for j in range(d))] for i, row in enumerate(a)])
    assert all(x.denominator == 1 for row in reduced for x in row)
    return [[int(reduced[j][d + i]) for j in range(d)] for i in range(d)]


def _apply(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def _outcome(answer):
    """answer(), "n/a" for NotApplicable, or "limit" for a ResourceLimit."""
    try:
        return answer()
    except NotApplicable:
        return "n/a"
    except ResourceLimit:
        return "limit"


def _index(solved):
    return None if solved is None else solved[1]


def _invariants(pair):
    """The answers that must not depend on the coordinates or the ray order."""
    cone = pair.cone
    return {
        "canonical": _outcome(lambda: canonical_check(cone)),
        "K index": _outcome(lambda: _index(canonical_functional(cone))),
        "klt": _outcome(lambda: klt_check(pair).is_klt),
        "K+D index": _outcome(lambda: _index(pair_functional(pair))),
        "cover degree": _outcome(lambda: log_canonical_cover(pair).degree),
        "correspondence": _outcome(lambda: cover_correspondence_check(pair)),
    }


def _assert_same(first, second, context):
    # A refusal is allowed on either side: a change of coordinates can move
    # the work of an answer past a limit.
    for key, value in first.items():
        if "limit" not in (value, second[key]):
            assert value == second[key], (key, context)


# (dimension, cones, coordinate bound, canonical outcomes that occur there):
# every cone in dimension 2 is simplicial, so its K is Q-Cartier.
_METAMORPHIC_SAMPLES = (
    (2, 60, 3, {True, False}),
    (3, 100, 3, {True, False, "n/a"}),
    (4, 20, 2, {True, False, "n/a"}),
)


def test_answers_survive_a_change_of_coordinates_and_of_ray_order():
    for dim, count, bound, outcomes in _METAMORPHIC_SAMPLES:
        verdicts = _metamorphic_gate(dim, count, bound)
        assert outcomes <= set(verdicts), (dim, verdicts)


def _metamorphic_gate(dim, count, bound):
    """Check `count` seeded cones in dimension `dim` over d to d + 2 rays
    (x_1, ..., x_(d-1), z) with |x_i| <= bound and 1 <= z <= bound, so every
    cone is pointed; boundary coefficients (e-1)/e. Returns the count of each
    canonical outcome."""
    rng = random.Random(2929)
    verdicts, checked = Counter(), 0
    while checked < count:
        rays = [(*(rng.randint(-bound, bound) for _ in range(dim - 1)), rng.randint(1, bound))
                for _ in range(rng.randint(dim, dim + 2))]
        try:
            cone = Cone.from_rays(rays)
        except ValueError:
            continue  # repeated, dependent or not extreme rays
        checked += 1
        boundary = tuple(Fraction(e - 1, e) for e in rng.choices((1, 2, 3), k=len(cone.rays)))
        pair = ConePair(cone, ToricDivisor(boundary))
        expected = _invariants(pair)
        verdicts[expected["canonical"]] += 1
        a = _small_unimodular(rng, dim)
        order = rng.sample(range(len(cone.rays)), len(cone.rays))
        permuted = ConePair(Cone.from_rays([cone.rays[i] for i in order]),
                            ToricDivisor(tuple(boundary[i] for i in order)))
        _assert_same(expected, _invariants(permuted), (cone.rays, order))
        try:
            mapped_cone = Cone.from_rays([_apply(a, ray) for ray in cone.rays])
        except ResourceLimit:
            continue  # a mapped coordinate above MAX_RAY_COORD
        mapped = ConePair(mapped_cone, ToricDivisor(boundary))
        _assert_same(expected, _invariants(mapped), (cone.rays, a))
        normals = _inverse_transpose(a)
        assert set(mapped_cone.facets) == {_apply(normals, n) for n in cone.facets}
        for semigroup, change in ((hilbert_basis, a), (dual_cone_generators, normals)):
            basis = _outcome(lambda: semigroup(cone))
            mapped_basis = _outcome(lambda: semigroup(mapped_cone))
            if "limit" not in (basis, mapped_basis):
                assert set(mapped_basis) == {_apply(change, p) for p in basis}, (cone.rays, a)
    return verdicts
