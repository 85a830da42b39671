from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logcentre.errors import ResourceLimit
from logcentre.valmat import (
    MAX_RAMIFICATION_INDEX,
    ValMatrix,
    centralizer,
    omega_power,
    radical_power,
    standard_order,
    tropical_mul,
)
from oracles import (
    MonomialMatrix,
    RepresentationOverflow,
    dualizing_module,
    ideal_of,
    inflate,
    jacobson_radical,
    min_plus_mul,
    monomial_identity,
    monomial_mul,
    monomial_pow,
    shift,
    t_scalar,
    tropical_identity,
    valuations,
    y_matrix,
    y_power,
)


def test_frozen_building_blocks():
    assert standard_order(2).entries == ((0, 0), (1, 0))
    assert jacobson_radical(2).entries == ((1, 0), (1, 1))
    assert dualizing_module(2).entries == ((0, -1), (0, 0))
    assert tropical_identity(2) == [[0, None], [None, 0]]
    assert standard_order(1).entries == ((0,),)
    assert jacobson_radical(1).entries == ((1,),)


def test_frozen_radical_square():
    square = tropical_mul(jacobson_radical(2), jacobson_radical(2))
    assert square.entries == ((1, 1), (2, 1))
    assert square == radical_power(2, 2)


def test_frozen_omega_powers():
    assert omega_power(3, 2).entries == ((-1, -1, -2), (-1, -1, -1), (0, -1, -1))
    assert omega_power(2, 1) == dualizing_module(2)
    assert omega_power(5, 0) == standard_order(5)


def test_radical_power_zero_and_one():
    for e in range(1, 8):
        assert radical_power(e, 0) == standard_order(e)
        assert radical_power(e, 1) == jacobson_radical(e)
        assert radical_power(e, 1 - e) == dualizing_module(e)


@given(st.integers(1, 8), st.integers(0, 20))
def test_radical_power_matches_bruteforce(e, i):
    radical = valuations(jacobson_radical(e))
    acc = valuations(standard_order(e))
    for _ in range(i):
        acc = min_plus_mul(acc, radical)
    assert ValMatrix(acc) == radical_power(e, i)


@given(st.integers(1, 8), st.integers(0, 12))
def test_omega_power_matches_bruteforce(e, i):
    omega = valuations(dualizing_module(e))
    acc = valuations(standard_order(e))
    for _ in range(i):
        acc = min_plus_mul(acc, omega)
    assert ValMatrix(acc) == omega_power(e, i)


@given(st.integers(1, 8), st.integers(-20, 20), st.integers(-20, 20))
def test_radical_powers_are_additive(e, i, j):
    product = min_plus_mul(valuations(radical_power(e, i)), valuations(radical_power(e, j)))
    assert ValMatrix(product) == radical_power(e, i + j)


@given(st.integers(1, 8), st.integers(-20, 20))
def test_powers_are_closed_bimodules(e, i):
    order = standard_order(e)
    for m in (radical_power(e, i), omega_power(e, abs(i))):
        assert tropical_mul(order, m) == m
        assert tropical_mul(m, order) == m


@st.composite
def _matrix_pair(draw):
    n = draw(st.integers(1, 4))
    entry = st.integers(-5, 5)
    make = lambda: [[draw(entry) for _ in range(n)] for _ in range(n)]
    return make(), make()


@given(_matrix_pair())
def test_tropical_mul_matches_bruteforce(pair):
    a, b = pair
    assert tropical_mul(ValMatrix(a), ValMatrix(b)) == ValMatrix(min_plus_mul(a, b))


def test_tropical_identity_is_neutral():
    m = valuations(radical_power(4, 3))
    ident = tropical_identity(4)
    assert min_plus_mul(ident, m) == m
    assert min_plus_mul(m, ident) == m


def test_shift_scales_every_entry():
    shifted = shift(standard_order(3), 2)
    assert shifted.entries == ((2, 2, 2), (3, 2, 2), (3, 3, 2))


def test_centralizer_frozen_values():
    assert centralizer(standard_order(4)) == 0
    assert centralizer(omega_power(2, 1)) == 0
    assert centralizer(omega_power(3, 2)) == -1
    assert centralizer(radical_power(3, 2)) == 1


@given(st.integers(1, 10), st.integers(0, 30))
def test_centralizer_of_omega_power_closed_form(e, i):
    assert centralizer(omega_power(e, i)) == -(i * (e - 1) // e)


def test_centralizer_requires_bimodule():
    with pytest.raises(ValueError, match="not closed under multiplication by the standard order"):
        centralizer(ValMatrix(((0, 5), (5, 0))))


def test_inflate_frozen_example():
    inflated = inflate(standard_order(2), (1, 2))
    assert inflated.entries == ((0, 0, 0), (1, 0, 0), (1, 0, 0))


def test_inflate_validates_blocks():
    with pytest.raises(ValueError):
        inflate(standard_order(2), (1,))
    with pytest.raises(ValueError):
        inflate(standard_order(2), (1, 0))


@given(st.integers(1, 4), st.integers(-8, 8), st.integers(-8, 8),
       st.lists(st.integers(1, 3), min_size=1, max_size=4))
def test_inflate_commutes_with_products(e, i, j, blocks):
    blocks = tuple((blocks * e)[:e])
    lhs = inflate(tropical_mul(radical_power(e, i), radical_power(e, j)), blocks)
    rhs = tropical_mul(inflate(radical_power(e, i), blocks), inflate(radical_power(e, j), blocks))
    assert lhs == rhs


@given(st.integers(1, 4), st.integers(0, 10), st.lists(st.integers(1, 3), min_size=1, max_size=4))
def test_inflate_preserves_diagonal_maximum(e, i, blocks):
    blocks = tuple((blocks * e)[:e])
    inflated = inflate(omega_power(e, i), blocks)
    assert max(inflated.diagonal()) == centralizer(omega_power(e, i))


def test_valmatrix_validation():
    with pytest.raises(ValueError, match="^matrix must be nonempty$"):
        ValMatrix(())
    with pytest.raises(ValueError):
        ValMatrix(((0, 1),))
    with pytest.raises(ValueError):
        ValMatrix(((0.5,),))
    with pytest.raises(ValueError):
        tropical_mul(standard_order(2), standard_order(3))


def test_zero_ideal_is_refused():
    # A bimodule of a hereditary order is a full lattice: no entry is the zero ideal.
    with pytest.raises(ValueError, match="^valuation entries must be integers, got None$"):
        ValMatrix(((0, None), (None, 0)))
    with pytest.raises(ValueError, match="^valuation entries must be integers, got inf$"):
        ValMatrix(((float("inf"),),))


def test_bools_are_not_integers():
    # isinstance(True, int) holds; every integer argument is an int, never a bool.
    with pytest.raises(ValueError, match="^power must be an integer, got True$"):
        radical_power(2, True)
    with pytest.raises(ValueError, match="^ramification index must be a positive integer, got True$"):
        omega_power(True, 1)
    with pytest.raises(ValueError, match="^dualizing power must be a nonnegative integer, got True$"):
        omega_power(2, True)
    with pytest.raises(ValueError, match="^ramification index must be a positive integer, got True$"):
        standard_order(True)
    with pytest.raises(ValueError, match="^valuation entries must be integers, got True$"):
        ValMatrix(((True,),))


def test_ramification_index_limit():
    big = MAX_RAMIFICATION_INDEX + 1
    for build in (standard_order, lambda e: radical_power(e, 1), lambda e: omega_power(e, 1)):
        assert build(MAX_RAMIFICATION_INDEX).size == MAX_RAMIFICATION_INDEX
        with pytest.raises(ResourceLimit, match=(
            f"^ramification index {big}, above the limit "
            f"MAX_RAMIFICATION_INDEX = {MAX_RAMIFICATION_INDEX}$"
        )):
            build(big)


# Element-level monomial model.


def test_oracles_refuse_bools_as_integers():
    # The oracles refuse a bool where src would, so no check compares src with
    # an oracle that built an object src refuses to build.
    calls = [
        (lambda: jacobson_radical(True), "size must be a positive integer"),
        (lambda: y_power(2, True), "power must be an integer"),
        (lambda: monomial_pow(y_matrix(2), True), "power must be a nonnegative integer"),
        (lambda: inflate(standard_order(1), (True,)), "block sizes must be positive integers"),
        (lambda: MonomialMatrix((((1, True),),)), "monomial exponent must be an integer"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError, match=f"^{message}"):
            call()


def test_y_power_e_is_uniformizer():
    for e in range(1, 9):
        assert monomial_pow(y_matrix(e), e) == t_scalar(e, 1)
        assert y_power(e, e) == t_scalar(e, 1)


def test_y_negative_power_inverts():
    for e in range(1, 7):
        assert monomial_mul(y_power(e, -1), y_matrix(e)) == monomial_identity(e)


@given(st.integers(1, 6), st.integers(-10, 10), st.integers(-10, 10))
def test_y_power_additive(e, i, j):
    assert monomial_mul(y_power(e, i), y_power(e, j)) == y_power(e, i + j)


def test_radical_is_generated_by_y_on_both_sides():
    for e in range(1, 9):
        order = valuations(standard_order(e))
        y_ideal = ideal_of(y_matrix(e))
        assert min_plus_mul(y_ideal, order) == valuations(jacobson_radical(e))
        assert min_plus_mul(order, y_ideal) == valuations(jacobson_radical(e))


def test_dualizing_module_is_generated_by_y_power():
    for e in range(1, 9):
        generator = ideal_of(y_power(e, 1 - e))
        order = valuations(standard_order(e))
        assert min_plus_mul(generator, order) == valuations(dualizing_module(e))


@given(st.integers(1, 8), st.integers(-15, 15))
def test_radical_powers_generated_by_y_powers(e, i):
    generator = ideal_of(y_power(e, i))
    order = valuations(standard_order(e))
    assert min_plus_mul(generator, order) == valuations(radical_power(e, i))


def test_monomial_mul_overflow():
    mixed = MonomialMatrix((((1, 0), (1, 1)), ((1, 0), (1, 0))))
    with pytest.raises(RepresentationOverflow):
        monomial_mul(mixed, mixed)


def test_monomial_cancellation_is_not_overflow():
    a = MonomialMatrix((((1, 0), (-1, 0)), (None, (1, 0))))
    b = MonomialMatrix((((1, 0), (1, 0)), (None, (1, 0))))
    product = monomial_mul(a, b)
    assert product.entries[0][1] is None  # 1 - 1 cancels exactly


def test_monomial_matrix_normalisation():
    m = MonomialMatrix((((2, 0), 0), (None, (Fraction(1, 2), -1))))
    assert m.entries[0][0] == (Fraction(2), 0)
    assert m.entries[0][1] is None
    assert m.entries[1][1] == (Fraction(1, 2), -1)
    with pytest.raises(ValueError):
        MonomialMatrix((((1, 0.5),),))
