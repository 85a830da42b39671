import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (
    clear_denominators,
    det_int,
    hermite_column_form,
    primitive_vector,
    rref,
    solve_exact,
    solve_scaled,
    xgcd,
)

from logcentre import linalg

_small = st.integers(-6, 6)


def _matrix(n):
    return st.lists(st.lists(_small, min_size=n, max_size=n), min_size=n, max_size=n)


def test_rref_pivots():
    m, pivots = rref([[2, 4], [1, 2]])
    assert m == [[1, 2], [0, 0]]
    assert pivots == [0]


def test_solve_exact_unique():
    x = solve_exact([[2, 0], [1, 1]], [4, 3])
    assert x == (Fraction(2), Fraction(1))


def test_solve_exact_inconsistent_returns_none():
    assert solve_exact([[1, 0], [0, 1], [1, 1]], [1, 1, 3]) is None
    # Rank deficient: no two equations are independent, so there is nothing
    # to solve, whether or not the system is consistent.
    with pytest.raises(ValueError, match="^system does not determine a unique solution$"):
        solve_exact([[1, 1], [2, 2]], [1, 3])


def test_solve_exact_overdetermined_consistent():
    x = solve_exact([[1, 0], [0, 1], [1, 1]], [2, 3, 5])
    assert x == (Fraction(2), Fraction(3))


def test_solve_exact_underdetermined_raises():
    with pytest.raises(ValueError):
        solve_exact([[1, 1]], [1])


def test_solve_exact_needs_one_rhs_per_equation():
    rows = [[1, 0], [0, 1]]
    with pytest.raises(ValueError, match="^2 equations but 3 right-hand sides$"):
        solve_exact(rows, [1, 0, 5])
    with pytest.raises(ValueError, match="^2 equations but 1 right-hand sides$"):
        solve_exact(rows, [1])


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(_matrix(n), st.lists(_small, min_size=n, max_size=n))))
def test_solve_recovers_known_solution(case):
    rows, x = case
    if det_int(rows) == 0:
        return
    rhs = [sum(r * v for r, v in zip(row, x)) for row in rows]
    assert solve_exact(rows, rhs) == tuple(Fraction(v) for v in x)


def _oracle_solve(rows, rhs):
    """The Fraction elimination answer: a tuple, None (full rank, inconsistent)
    or "deficient" (column rank below the number of unknowns)."""
    n = len(rows[0])
    red, pivots = rref([list(row) + [r] for row, r in zip(rows, rhs)])
    if len([c for c in pivots if c < n]) < n:
        return "deficient"
    if n in pivots:
        return None
    return tuple(row[-1] for row in red[:n])


def _seeded_systems():
    """1500 seeded rational systems as augmented rows, with their unknown count."""
    rng = random.Random(20000)

    def rational():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    for _ in range(1500):
        n = rng.randint(1, 4)
        count = rng.randint(n, n + 3)
        if rng.random() < 0.4:
            # Combinations of at most n augmented rows have rank at most n:
            # rank deficient, or of full rank and consistent.
            gens = [[rational() for _ in range(n + 1)] for _ in range(rng.randint(1, n))]
            eqs = [
                [sum(rng.randint(-2, 2) * g[i] for g in gens) for i in range(n + 1)]
                for _ in range(count)
            ]
        else:
            eqs = [[rational() for _ in range(n + 1)] for _ in range(count)]
        yield eqs, n


def test_solve_exact_matches_rref_oracle():
    outcomes = set()
    for eqs, n in _seeded_systems():
        rows, rhs = [eq[:n] for eq in eqs], [eq[n] for eq in eqs]
        expected = _oracle_solve(rows, rhs)
        try:
            actual = solve_exact(rows, rhs)
        except ValueError as exc:
            assert str(exc) == "system does not determine a unique solution"
            actual = "deficient"
        assert actual == expected, (rows, rhs)
        outcomes.add("solved" if isinstance(expected, tuple) else expected)
    assert outcomes == {"solved", None, "deficient"}


def test_solve_scaled_matches_rref_oracle():
    # Each row cleared to integers: w/m is the solution in lowest terms.
    outcomes = set()
    for eqs, n in _seeded_systems():
        expected = _oracle_solve([eq[:n] for eq in eqs], [eq[n] for eq in eqs])
        scaled = [clear_denominators(eq) for eq in eqs]
        try:
            actual = solve_scaled(scaled)
        except ValueError as exc:
            assert str(exc) == "system does not determine a unique solution"
            actual = "deficient"
        if isinstance(expected, tuple):
            w, m = actual
            assert m >= 1 and gcd(m, *w) == 1, (scaled, actual)
            assert tuple(Fraction(x, m) for x in w) == expected, (scaled, actual)
            assert m == lcm(*(x.denominator for x in expected)), (scaled, actual)
            outcomes.add("solved" if m == 1 else "fractional")
        else:
            assert actual == expected, (scaled, actual)
            outcomes.add(expected)
    assert outcomes == {"solved", "fractional", None, "deficient"}


def _det_oracle(rows):
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * _det_oracle(minor)
    return total


@given(st.integers(1, 4).flatmap(_matrix))
def test_det_matches_cofactor_expansion(rows):
    assert det_int(rows) == _det_oracle(rows)


def _det_by_elimination(rows):
    """Fraction Gaussian elimination: the signed product of the pivots."""
    work = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(work)):
        i = next((i for i in range(k, len(work)) if work[i][k]), None)
        if i is None:
            return Fraction(0)
        if i != k:
            work[k], work[i] = work[i], work[k]
            det = -det
        det *= work[k][k]
        for j in range(k + 1, len(work)):
            f = work[j][k] / work[k][k]
            work[j] = [a - f * b for a, b in zip(work[j], work[k])]
    return det


def _solve_or_deficient(rows, rhs):
    try:
        return solve_exact(rows, rhs)
    except ValueError as exc:
        assert str(exc) == "system does not determine a unique solution"
        return "deficient"


def test_det_and_solve_match_fraction_elimination_above_dimension_four():
    # Dense matrices of size 5 to 12, where a cofactor expansion would take
    # minutes to hours; about a third are made singular by a repeated
    # combination of rows. Each is solved square, and with one more equation
    # that keeps or breaks consistency.
    rng = random.Random(51)
    outcomes = set()
    for n in range(5, 13):
        for _ in range(6):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if rng.random() < 1 / 3:
                rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
            det = det_int(rows)
            assert det == _det_by_elimination(rows), rows
            x = [rng.randint(-5, 5) for _ in range(n)]
            eqs = rows + [[rng.randint(-9, 9) for _ in range(n)]]
            rhs = [sum(a * v for a, v in zip(row, x)) for row in eqs]
            rhs[-1] += rng.randint(0, 1)
            for system in ((rows, rhs[:n]), (eqs, rhs)):
                expected = _oracle_solve(*system)
                assert _solve_or_deficient(*system) == expected, system
                outcomes.add(expected if expected in ("deficient", None) else "solved")
            assert (det == 0) == (_oracle_solve(rows, rhs[:n]) == "deficient")
    assert outcomes == {"solved", None, "deficient"}


def test_primitive_vector_examples():
    assert primitive_vector((2, 4, 6)) == (1, 2, 3)
    assert primitive_vector((-3, 6)) == (-1, 2)
    assert primitive_vector((0, 0, 5)) == (0, 0, 1)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))


@given(st.lists(_small, min_size=1, max_size=4))
def test_primitive_vector_gcd_one(vec):
    if not any(vec):
        return
    prim = primitive_vector(vec)
    assert gcd(*(abs(x) for x in prim)) == 1
    # same ray: vec is a positive multiple of prim
    g = gcd(*(abs(x) for x in vec))
    assert tuple(x // g for x in vec) == prim


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_xgcd_identity(a, b):
    g, x, y = xgcd(a, b)
    assert g == gcd(a, b)
    assert a * x + b * y == g


def _hnf_shape_ok(cols):
    n = len(cols)
    for j, col in enumerate(cols):
        assert col[j] > 0
        assert all(col[i] == 0 for i in range(j))
    # entries left of each pivot reduced into [0, pivot)
    for i in range(n):
        for j in range(i):
            assert 0 <= cols[j][i] < cols[i][i]


@given(st.integers(2, 4).flatmap(_matrix))
def test_hermite_column_form_shape_and_det(rows):
    cols = [list(col) for col in zip(*rows)]
    if _det_oracle(rows) == 0:
        return
    hnf = hermite_column_form(cols)
    _hnf_shape_ok(hnf)
    assert abs(det_int(hnf)) == abs(_det_oracle(rows))


@given(st.integers(2, 3).flatmap(_matrix), st.integers(-3, 3))
def test_hermite_column_form_is_lattice_invariant(rows, k):
    cols = [list(col) for col in zip(*rows)]
    if _det_oracle(rows) == 0:
        return
    # column operations do not change the lattice, so the HNF is unchanged
    mixed = [list(c) for c in cols]
    mixed[0] = [a + k * b for a, b in zip(mixed[0], mixed[1])]
    mixed.append([-x for x in mixed[-1]])
    assert hermite_column_form(mixed) == hermite_column_form(cols)


def _augmented_route(w, m):
    # The columns (w_j, e_j) and (m, 0, ..., 0) span Z^(d+1), as gcd(m, *w) = 1,
    # and those that are 0 in the first coordinate span {x : w.x = 0 mod m}: the
    # Hermite form has pivot 1 in the first row, and dropping that column and
    # that row leaves the Hermite form of the congruence lattice.
    d = len(w)
    hnf = hermite_column_form(
        [(wj, *(int(i == j) for i in range(d))) for j, wj in enumerate(w)] + [(m,) + (0,) * d]
    )
    assert hnf[0][0] == 1
    return [col[1:] for col in hnf[1:]]


def test_congruence_basis_matches_the_augmented_hermite_form():
    rng = random.Random(34)
    seen = Counter()
    while len(seen) < 8 or min(seen.values()) < 20:
        d = rng.randint(1, 4)
        m = rng.choice((1, rng.randint(1, 60), rng.choice((12, 24, 36, 60))))
        w = [rng.choice((0, rng.randint(-80, 80), rng.randint(-3, 3))) for _ in range(d)]
        if gcd(m, *w) != 1:
            continue
        basis = linalg.congruence_basis(w, m)
        assert basis == _augmented_route(w, m), (w, m)
        _hnf_shape_ok(basis)
        assert det_int(basis) == m
        assert all(sum(a * b for a, b in zip(w, col)) % m == 0 for col in basis)
        pivots = [col[k] for k, col in enumerate(basis)]
        seen[f"d = {d}"] += 1
        seen["m = 1"] += m == 1
        seen["zero w_j"] += 0 in w
        seen["negative w_j"] += min(w) < 0
        seen["two pivots above 1"] += sum(p > 1 for p in pivots) >= 2
    assert linalg.congruence_basis((), 1) == []
    assert linalg.congruence_basis((3, 0), 4) == [(4, 0), (0, 1)]
    assert linalg.congruence_basis((2, 3), 6) == [(3, 0), (0, 2)]


@pytest.mark.parametrize(
    "w, m", [((1, 2), 0), ((1, 2), -3), ((2, 4), 6), ((0, 0), 2), ((), 2)]
)
def test_congruence_basis_refuses_a_modulus_below_one_or_a_common_factor(w, m):
    message = rf"^need m >= 1 and gcd\(m, \*w\) = 1, got w = {re.escape(str(w))}, m = {m}$"
    with pytest.raises(ValueError, match=message):
        linalg.congruence_basis(w, m)
