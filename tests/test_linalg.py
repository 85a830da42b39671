from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logcentre import linalg

_small = st.integers(-6, 6)


def _matrix(n):
    return st.lists(st.lists(_small, min_size=n, max_size=n), min_size=n, max_size=n)


def _rank(rows):
    return len(linalg.rref(rows)[1]) if rows else 0


def test_rref_pivots():
    m, pivots = linalg.rref([[2, 4], [1, 2]])
    assert m == [[1, 2], [0, 0]]
    assert pivots == [0]


def test_solve_exact_unique():
    x = linalg.solve_exact([[2, 0], [1, 1]], [4, 3])
    assert x == (Fraction(2), Fraction(1))


def test_solve_exact_inconsistent_returns_none():
    assert linalg.solve_exact([[1, 1], [2, 2]], [1, 3]) is None


def test_solve_exact_overdetermined_consistent():
    x = linalg.solve_exact([[1, 0], [0, 1], [1, 1]], [2, 3, 5])
    assert x == (Fraction(2), Fraction(3))


def test_solve_exact_underdetermined_raises():
    with pytest.raises(ValueError):
        linalg.solve_exact([[1, 1]], [1])


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(_matrix(n), st.lists(_small, min_size=n, max_size=n))))
def test_solve_recovers_known_solution(case):
    rows, x = case
    if linalg.det_int(rows) == 0:
        return
    rhs = [sum(r * v for r, v in zip(row, x)) for row in rows]
    assert linalg.solve_exact(rows, rhs) == tuple(Fraction(v) for v in x)


@given(st.integers(1, 4).flatmap(_matrix))
def test_invert_roundtrip(rows):
    if linalg.det_int(rows) == 0:
        with pytest.raises(ValueError):
            linalg.invert(rows)
        return
    inv = linalg.invert(rows)
    n = len(rows)
    prod = [
        [sum(Fraction(rows[i][k]) * inv[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert prod == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


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
    assert linalg.det_int(rows) == _det_oracle(rows)


def test_primitive_vector_examples():
    assert linalg.primitive_vector((2, 4, 6)) == (1, 2, 3)
    assert linalg.primitive_vector((-3, 6)) == (-1, 2)
    assert linalg.primitive_vector((0, 0, 5)) == (0, 0, 1)
    with pytest.raises(ValueError):
        linalg.primitive_vector((0, 0))


@given(st.lists(_small, min_size=1, max_size=4))
def test_primitive_vector_gcd_one(vec):
    if not any(vec):
        return
    prim = linalg.primitive_vector(vec)
    assert gcd(*(abs(x) for x in prim)) == 1
    # same ray: vec is a positive multiple of prim
    g = gcd(*(abs(x) for x in vec))
    assert tuple(x // g for x in vec) == prim


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_xgcd_identity(a, b):
    g, x, y = linalg.xgcd(a, b)
    assert g == gcd(a, b)
    assert a * x + b * y == g


@given(st.lists(_small, min_size=2, max_size=5))
def test_integer_kernel_of_row(row):
    if not any(row):
        return
    kernel = linalg.integer_kernel_of_row(row)
    assert len(kernel) == len(row) - 1
    assert _rank(kernel) == len(row) - 1
    for vec in kernel:
        assert sum(r * v for r, v in zip(row, vec)) == 0


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
    hnf = linalg.hermite_column_form(cols)
    _hnf_shape_ok(hnf)
    assert abs(linalg.det_int(hnf)) == abs(_det_oracle(rows))


@given(st.integers(2, 3).flatmap(_matrix), st.integers(-3, 3))
def test_hermite_column_form_is_lattice_invariant(rows, k):
    cols = [list(col) for col in zip(*rows)]
    if _det_oracle(rows) == 0:
        return
    # column operations do not change the lattice, so the HNF is unchanged
    mixed = [list(c) for c in cols]
    mixed[0] = [a + k * b for a, b in zip(mixed[0], mixed[1])]
    mixed.append([-x for x in mixed[-1]])
    assert linalg.hermite_column_form(mixed) == linalg.hermite_column_form(cols)
