from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logcentre.errors import InputError, NonterminationSuspected, ResourceLimit
from logcentre.ncpoly import (
    MAX_NESTING_DEPTH,
    CommPoly,
    LocalElement,
    NCPoly,
    RewriteSystem,
    builtin_system,
    clifford_system,
    commutative_quotient_check,
    invariant_presentation_holds,
    is_central,
    matrix_compose,
    normal_form,
    parse_poly,
    quiver_relations_hold,
    verify_identity,
)

GENS = ("a", "b", "c")
A, B, C = (NCPoly.generator(x) for x in GENS)


# Free algebra arithmetic and printing.


def test_str_formatting():
    assert str(A * B - 2 * C**3) == "a*b - 2*c^3"
    assert str(NCPoly.zero()) == "0"
    assert str(NCPoly.one()) == "1"
    assert str(-A) == "-a"
    assert str(Fraction(1, 2) * A) == "1/2*a"
    assert str(A * A * A) == "a^3"


def test_arithmetic_basics():
    assert (A + B) * (A - B) == A * A - A * B + B * A - B * B
    assert (A + B) ** 2 == A * A + A * B + B * A + B * B
    assert A - A == NCPoly.zero()
    assert A * NCPoly.zero() == NCPoly.zero()
    assert 3 * A == A + A + A
    assert A * 2 == 2 * A


def test_scalars_are_exact():
    with pytest.raises(TypeError):
        NCPoly.constant(0.5)
    assert NCPoly.constant(Fraction(1, 3)) * 3 == NCPoly.one()


def test_noncommutativity():
    assert A * B != B * A


# Parser.


def test_parse_examples():
    assert parse_poly("a*b - 2*c^3", GENS) == A * B - 2 * C**3
    assert parse_poly("ab", GENS) == A * B
    assert parse_poly("2a^2", GENS) == 2 * A**2
    assert parse_poly("(a+b)^2", GENS) == (A + B) ** 2
    assert parse_poly("-a", GENS) == -A
    assert parse_poly("1/2 * a", GENS) == Fraction(1, 2) * A
    assert parse_poly("3", GENS) == NCPoly.constant(3)


def test_parse_errors():
    with pytest.raises(InputError):
        parse_poly("a +", GENS)
    with pytest.raises(InputError):
        parse_poly("a & b", GENS)
    with pytest.raises(InputError):
        parse_poly("", GENS)
    with pytest.raises(InputError):
        parse_poly("1.5 * a", GENS)
    with pytest.raises(InputError):
        parse_poly("a*d", GENS)
    for zero in ("1/0", "2*a + 1/00*b"):
        with pytest.raises(InputError, match="division by zero"):
            parse_poly(zero, GENS)


def test_parse_nesting_depth_limit():
    deepest = MAX_NESTING_DEPTH
    assert parse_poly("(" * deepest + "a" + ")" * deepest, GENS) == A
    assert parse_poly("(a)" * 3 * deepest, GENS) == A ** (3 * deepest)
    for depth in (deepest + 1, 1200):
        with pytest.raises(ResourceLimit, match=f"parentheses nest {depth} deep"):
            parse_poly("(" * depth + "a" + ")" * depth, GENS)


@given(
    st.lists(
        st.tuples(
            st.integers(-4, 4).filter(bool),
            st.lists(st.sampled_from("abc"), max_size=4),
        ),
        max_size=4,
    )
)
def test_parse_str_roundtrip(raw_terms):
    poly = NCPoly.zero()
    for coeff, word in raw_terms:
        poly = poly + coeff * NCPoly.monomial(tuple(word))
    assert parse_poly(str(poly), GENS) == poly


# Rewrite systems.


def test_rejects_nonterminating_rule():
    with pytest.raises(ValueError):
        RewriteSystem(("a", "b"), ((("a", "b"), B * A),))


def test_rejects_unknown_letters_and_empty_lhs():
    with pytest.raises(ValueError):
        RewriteSystem(("a",), ((("a", "z"), NCPoly.zero()),))
    with pytest.raises(ValueError):
        RewriteSystem(("a",), (((), NCPoly.one()),))
    with pytest.raises(ValueError):
        RewriteSystem(("a", "a"), ())


def test_weight_validation():
    with pytest.raises(ValueError):
        RewriteSystem(("a", "b"), (), weights=(1,))
    with pytest.raises(ValueError):
        RewriteSystem(("a", "b"), (), weights=(0, 1))


def test_clifford_requires_weights():
    # under uniform weights the product rule increases the order key
    with pytest.raises(ValueError):
        RewriteSystem(("a", "b", "c"), ((("b", "a"), A * B - 2 * C**3),))
    clifford_system()  # weighted version is accepted


def test_builtin_lookup():
    assert builtin_system("clifford") == clifford_system()
    with pytest.raises(InputError):
        builtin_system("unknown")


# Normal forms.


def test_normal_form_examples():
    system = clifford_system()
    assert str(normal_form(parse_poly("b*a", GENS), system)) == "a*b - 2*c^3"
    assert str(normal_form(parse_poly("c*b*a", GENS), system)) == "a*b*c - 2*c^4"
    assert normal_form(NCPoly.zero(), system) == NCPoly.zero()


def test_normal_form_rejects_foreign_letters():
    with pytest.raises(InputError):
        normal_form(NCPoly.generator("z"), clifford_system())


@st.composite
def _clifford_polys(draw):
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(-3, 3).filter(bool),
                st.lists(st.sampled_from("abc"), max_size=5),
            ),
            max_size=3,
        )
    )
    poly = NCPoly.zero()
    for coeff, word in terms:
        poly = poly + coeff * NCPoly.monomial(tuple(word))
    return poly


@given(_clifford_polys())
def test_normal_form_is_idempotent(poly):
    system = clifford_system()
    nf = normal_form(poly, system)
    assert normal_form(nf, system) == nf


@given(_clifford_polys(), _clifford_polys())
def test_normal_form_is_linear(p, q):
    system = clifford_system()
    assert normal_form(p + q, system) == normal_form(p, system) + normal_form(q, system)


@given(_clifford_polys(), _clifford_polys())
def test_normal_form_respects_products(p, q):
    system = clifford_system()
    lhs = normal_form(p * q, system)
    rhs = normal_form(normal_form(p, system) * normal_form(q, system), system)
    assert lhs == rhs


@given(_clifford_polys())
def test_normal_form_has_no_redex(poly):
    system = clifford_system()
    nf = normal_form(poly, system)
    for word, _ in nf.terms():
        assert system.find_redex(word) is None


@given(_clifford_polys())
def test_normal_form_words_are_sorted(poly):
    # reduced words use the monomial basis a^i b^j c^k
    nf = normal_form(poly, clifford_system())
    for word, _ in nf.terms():
        assert tuple(sorted(word)) == word


def test_step_cap():
    system = clifford_system()
    big = (A + B + C) ** 4
    with pytest.raises(NonterminationSuspected):
        normal_form(big * big, system, step_cap=1)


def test_step_cap_env_override(monkeypatch):
    monkeypatch.setenv("LOGCENTRE_STEP_CAP", "1")
    with pytest.raises(NonterminationSuspected):
        normal_form(parse_poly("c*b*a", GENS), clifford_system())


# Centrality and identities in the quadric algebra.


def test_centre_membership():
    system = clifford_system()
    assert is_central(A**2, system)
    assert is_central(B**2, system)
    assert is_central(A * B + B * A, system)
    assert is_central(C**2, system)
    assert not is_central(C, system)
    assert not is_central(A, system)


def test_commutator_identities():
    system = clifford_system()
    assert verify_identity((A * B - B * A) ** 2, 4 * C**6, system)
    assert verify_identity((A * B + B * A) ** 2 - 4 * A**2 * B**2, 4 * C**6, system)
    assert not verify_identity(A * B, B * A, system)


def test_resolution_matrix_composes_to_zero():
    system = clifford_system()
    mat = (
        (-C, NCPoly.zero(), -A),
        (NCPoly.zero(), C, B),
        (-B, A, -2 * C**2),
    )
    row = ((B, A, C),)
    col = ((A,), (B,), (C,))
    assert matrix_compose(row, mat, system) == ((NCPoly.zero(),) * 3,)
    assert matrix_compose(mat, col, system) == ((NCPoly.zero(),),) * 3


# Commutative quadric quotient and the local matrix model.


def test_comm_poly_relation():
    a, b, c, d = (CommPoly.var(x) for x in "abcd")
    assert a * d == b * c
    assert a * a * d == a * b * c
    assert (a * d - b * c).is_zero
    assert a * d * d == b * c * d


def test_local_element_equality():
    a, b, c, d = (CommPoly.var(x) for x in "abcd")
    half_b = LocalElement(b, 1)  # b/a
    assert half_b == LocalElement(a * b, 2)
    assert half_b * LocalElement(a, 0) == LocalElement(b, 0)
    assert half_b * LocalElement(c, 0) == LocalElement(d, 0)  # bc/a = d


def test_quiver_and_invariant_checks():
    assert quiver_relations_hold() is True
    assert invariant_presentation_holds() is True


def test_commutative_quotient_dispatch():
    assert commutative_quotient_check("francia-algebra") is True
    with pytest.raises(InputError):
        commutative_quotient_check("who-knows")
