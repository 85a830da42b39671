import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import heap_normal_form, rightmost_normal_form, rule_order_redex

from logcentre import ncpoly
from logcentre.errors import InputError, ResourceLimit
from logcentre.iodoc import loads
from logcentre.ncpoly import (
    MAX_NESTING_DEPTH,
    MAX_PARSE_WORK,
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
from logcentre.ncpoly import _critical_pairs, _quadric_system

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
    with pytest.raises(TypeError, match="^floating point entries are not exact; use Fraction$"):
        NCPoly.constant(0.5)
    assert NCPoly.constant(Fraction(1, 3)) * 3 == NCPoly.one()


def test_a_float_is_unequal_and_no_operand():
    # Equality with a float is answered, never raised; arithmetic refuses it.
    assert not A == 1.5 and A != 1.5 and A not in [1.5]
    assert NCPoly.constant(1) != 1.0
    with pytest.raises(TypeError):
        A + 0.5
    for operate in (lambda: 1.5 - A, lambda: A - 1.5, lambda: A * 1.5, lambda: 1.5 * A):
        with pytest.raises(TypeError):
            operate()


def test_a_scalar_minus_a_polynomial_and_its_repr():
    assert str(3 - A) == "3 - a" and 3 - A == NCPoly.constant(3) - A
    assert repr(A) == "NCPoly(a)"


def test_bools_and_text_are_not_scalars():
    # Fraction() would read True as 1 and "1/2" by its own parser.
    for bad in (True, "1/2"):
        with pytest.raises(TypeError, match=f"^expected an int or a Fraction, got {type(bad).__name__}$"):
            NCPoly.constant(bad)


def test_constants_hash_as_their_values():
    # equal objects hash equal, so a constant and its value are one set element
    for value in (3, -1, Fraction(1, 2), Fraction(-7, 3), 0):
        poly = NCPoly.constant(value)
        assert poly == value and hash(poly) == hash(value)
        assert len({poly, value}) == 1
    assert hash(NCPoly.zero()) == hash(0) and len({NCPoly.zero(), 0}) == 1
    assert len({A, A + 0, 2 * A, A * B, B * A}) == 4


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
    # One input per error path of the tokenizer and the parser, with its message.
    cases = [
        ("", "empty expression"),
        ("  ", "empty expression"),
        ("a +", "unexpected end of expression"),
        ("(a", "unbalanced parenthesis"),
        ("a)", "unexpected token ')'"),
        ("a^b", "exponent must be a nonnegative integer"),
        ("a^", "exponent must be a nonnegative integer"),
        ("a^1/2", "exponent must be a nonnegative integer"),
        ("a & b", "cannot tokenize '& b'"),
        ("1.5 * a", "cannot tokenize '.5 * a'"),
        ("a*d", "unknown generator 'd'"),
        ("a*-b", "unexpected token '-'"),
        ("a*+b", "unexpected token '+'"),
        ("1/0", "division by zero in '1/0'"),
        ("2*a + 1/00*b", "division by zero in '1/00'"),
    ]
    for text, message in cases:
        with pytest.raises(InputError) as caught:
            parse_poly(text, GENS)
        assert str(caught.value) == message, text


def test_parse_nesting_depth_limit():
    deepest = MAX_NESTING_DEPTH
    assert parse_poly("(" * deepest + "a" + ")" * deepest, GENS) == A
    assert parse_poly("(a)" * 3 * deepest, GENS) == A ** (3 * deepest)
    for depth in (deepest + 1, 1200):
        message = f"^parentheses nest {depth} deep, above the limit MAX_NESTING_DEPTH = {deepest}$"
        with pytest.raises(ResourceLimit, match=message):
            parse_poly("(" * depth + "a" + ")" * depth, GENS)


def test_parse_work_budget():
    assert parse_poly("a^40000", GENS) == NCPoly.monomial(("a",) * 40000)
    assert len(parse_poly("(a+b+c)^10", GENS).terms()) == 3**10
    for text in ("a^1000000", "(a+b+c)^12", "(a+b+c)^6*(a+b+c)^6"):
        with pytest.raises(ResourceLimit, match=(
            r"^expanding the expression takes at least \d+ term products, letters and "
            rf"coefficient bits, above the limit MAX_PARSE_WORK = {MAX_PARSE_WORK}$"
        )):
            parse_poly(text, GENS)


def test_parse_work_counts_products_and_letters(monkeypatch):
    # (a+b)*(a+b)*c: 2*2 + 2*2 + 2*2 term products and letters, then 4*1 + 1*8 + 4*1.
    # The charges of the two powers are pinned too, so that a change to the
    # parser cannot change what the budget counts.
    x, y = NCPoly.generator("x"), NCPoly.generator("y")
    cases = [
        ("(a+b)*(a+b)*c", GENS, 28, (A + B) ** 2 * C),
        ("(a+b+c)^10", GENS, 709020, (A + B + C) ** 10),
        ("((-1)*x + (1)*y)^13", ("x", "y"), 117280, (y - x) ** 13),
    ]
    for text, gens, work, expected in cases:
        monkeypatch.setattr(ncpoly, "MAX_PARSE_WORK", work - 1)
        with pytest.raises(ResourceLimit, match=(
            f"^expanding the expression takes at least {work} term products, letters and "
            f"coefficient bits, above the limit MAX_PARSE_WORK = {work - 1}$"
        )):
            parse_poly(text, gens)
        monkeypatch.setattr(ncpoly, "MAX_PARSE_WORK", work)
        assert parse_poly(text, gens) == expected, text


def _coefficient_types(poly):
    return {type(coeff) for _, coeff in poly.terms()}


def test_integral_coefficients_stay_int():
    system = clifford_system()
    for text in ("a*b - 2*c^3", "(a - 3*b + 2*c)^5", "4/2*b*a", "(b*a)^3 - 7"):
        poly = parse_poly(text, GENS)
        assert _coefficient_types(poly) == {int}, text
        assert _coefficient_types(normal_form(poly, system)) <= {int}, text
    for _, rhs in system.rules:
        assert _coefficient_types(rhs) == {int}
    half = parse_poly("1/2*a + 3*b", GENS)
    assert {coeff for _, coeff in half.terms()} == {Fraction(1, 2), 3}


def _random_expression(rng, depth):
    """(text, dict of word -> Fraction) for a random expression over a, b."""
    roll = rng.random() if depth else 0
    if roll < 0.4:
        if rng.random() < 0.6:
            letter = rng.choice("ab")
            return letter, {(letter,): Fraction(1)}
        value = Fraction(rng.randint(0, 5), rng.choice((1, 1, 2, 3)))
        return f"{value.numerator}/{value.denominator}", {(): value}
    if roll < 0.55:
        text, terms = _random_expression(rng, depth - 1)
        return f"-({text})", {w: -c for w, c in terms.items()}
    if roll < 0.85:
        (left, p), (right, q) = (_random_expression(rng, depth - 1) for _ in range(2))
        op = rng.choice("+-*")
        if op == "*":
            return f"({left})*({right})", _reference_product(p, q)
        sign = 1 if op == "+" else -1
        terms = dict(p)
        for w, c in q.items():
            terms[w] = terms.get(w, 0) + sign * c
        return f"({left}) {op} ({right})", terms
    text, terms = _random_expression(rng, depth - 1)
    exponent = rng.randint(0, 6)
    power = {(): Fraction(1)}
    for _ in range(exponent):
        power = _reference_product(power, terms)
    return f"({text})^{exponent}", power


def _reference_product(p, q):
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return out


def test_parse_matches_fraction_reference():
    rng = random.Random(13)
    for _ in range(300):
        text, terms = _random_expression(rng, 3)
        expected = {w: c for w, c in terms.items() if c}
        assert dict(parse_poly(text, ("a", "b")).terms()) == expected, text


def _parse_case(rng, depth):
    """(text, level, the same polynomial built by NCPoly arithmetic) over GENS.

    The level says where the text may stand unbracketed: 0 an atom, 1 a power,
    2 a term (a product, or signed), 3 a sum.
    """
    roll = rng.random() if depth else 0
    if roll < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            letter = rng.choice(GENS)
            return letter, 0, NCPoly.generator(letter)
        if kind == 1:  # juxtaposed letters in one name
            word = tuple(rng.choice(GENS) for _ in range(rng.randint(2, 3)))
            return "".join(word), 0, NCPoly.monomial(word)
        if kind == 2:
            value = rng.randint(0, 12)
            return str(value), 0, NCPoly.constant(value)
        numerator, denominator = rng.randint(0, 7), rng.randint(1, 6)
        return f"{numerator}/{denominator}", 0, NCPoly.constant(Fraction(numerator, denominator))
    if roll < 0.4:
        text, _, poly = _parse_case(rng, depth - 1)
        return f"({text})", 0, poly
    if roll < 0.55:
        text, poly = _parse_operand(rng, depth, 0)
        exponent = rng.randint(0, 3)
        return f"{text}^{exponent}", 1, poly**exponent
    if roll < 0.75:
        (left, p), (right, q) = _parse_operand(rng, depth, 2), _parse_operand(rng, depth, 1)
        separator = rng.choice(("*", " * ", " ", "" if right[0] == "(" else " "))
        return f"{left}{separator}{right}", 2, p * q
    if roll < 0.85:
        text, poly = _parse_operand(rng, depth, 2)
        signs = rng.choice(("-", "+", "--", "-+", "- - -"))
        return f"{signs}{text}", 2, -poly if signs.count("-") % 2 else poly
    (left, p), (right, q) = _parse_operand(rng, depth, 3), _parse_operand(rng, depth, 2)
    if rng.random() < 0.5:
        return f"{left} + {right}", 3, p + q
    return f"{left} - {right}", 3, p - q


def _parse_operand(rng, depth, level):
    """A random subexpression, bracketed when its level is above `level`."""
    text, own, poly = _parse_case(rng, depth - 1)
    return (text if own <= level else f"({text})"), poly


def test_parse_matches_ncpoly_arithmetic():
    rng = random.Random(29)
    texts = []
    for _ in range(400):
        text, _, poly = _parse_case(rng, 4)
        assert parse_poly(text, GENS) == poly, text
        texts.append(text)
    joined = "".join(texts)
    for feature in (" - -", "--", "*", ") (", "^", "/", "(("):
        assert feature in joined, feature


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


def test_generator_names_are_nonempty_strings():
    # str() would turn 1 and 2 into names; each non-string is refused instead.
    for generators in ((1, 2), ("a", 1), ("a", ""), ("a", ("b",)), ("a", ["b"])):
        with pytest.raises(ValueError, match="^generators must be distinct nonempty strings"):
            RewriteSystem(generators, ())
    assert RewriteSystem(["a", "b"], ()).generators == ("a", "b")


def test_generator_names_are_names_an_expression_can_spell():
    # "+" reads as an operator, "x y" as x times y and "2x" as 2 times x, so no
    # document could give a rule in such a generator, nor read one back.
    for name in ("+", "x y", "2x", "a-b", "é"):
        with pytest.raises(ValueError) as refused:
            RewriteSystem((name, "a"), (((name,), NCPoly()),))
        assert str(refused.value) == f"generator {name!r} does not match [A-Za-z_][A-Za-z0-9_]*"
    assert RewriteSystem(("_", "x1", "X_2"), ()).generators == ("_", "x1", "X_2")


def test_weight_validation():
    with pytest.raises(ValueError):
        RewriteSystem(("a", "b"), (), weights=(1,))
    with pytest.raises(ValueError):
        RewriteSystem(("a", "b"), (), weights=(0, 1))


def test_weights_are_ints_not_truncated():
    # int() would read 1.5 as 1, "3" as 3 and True as 1: each is refused by name.
    cases = [((1.5, 1), "1.5"), (("3", True), "'3'"), ((2, True), "True"),
             ((Fraction(2), 1), "Fraction(2, 1)")]
    for weights, name in cases:
        with pytest.raises(ValueError, match=rf"^weight {re.escape(name)} is not an integer$"):
            RewriteSystem(("a", "b"), (), weights=weights)
    assert RewriteSystem(("a", "b"), (), weights=[2, 1]).weights == (2, 1)


def test_exponent_is_an_int_not_a_bool():
    with pytest.raises(ValueError, match="^exponent must be a nonnegative integer$"):
        NCPoly.generator("a") ** True


def test_weights_must_be_a_sequence():
    with pytest.raises(ValueError, match="^weights must be a sequence, got 5$"):
        RewriteSystem(("a",), (), 5)


def test_rules_must_be_a_sequence():
    with pytest.raises(ValueError, match="^rules must be a sequence, got 5$"):
        RewriteSystem(("a",), 5)


def test_generators_must_be_a_sequence():
    with pytest.raises(ValueError, match="^generators must be a sequence, got 5$"):
        RewriteSystem(5, ())


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
        assert rule_order_redex(word, system) is None


@given(_clifford_polys())
def test_normal_form_words_are_sorted(poly):
    # reduced words use the monomial basis a^i b^j c^k
    nf = normal_form(poly, clifford_system())
    for word, _ in nf.terms():
        assert tuple(sorted(word)) == word


def _seeded_clifford_poly(rng):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        word = tuple(rng.choice(GENS) for _ in range(rng.randint(0, 5)))
        terms[word] = terms.get(word, 0) + rng.choice((1, -1, 2, -3, Fraction(1, 2)))
    return NCPoly(terms)


def _signed(poly, signs):
    """The image of poly under the generator scaling (a, b, c) -> (sa*a, sb*b, sc*c)."""
    sign = dict(zip(GENS, signs))
    out = {}
    for word, coeff in poly.terms():
        for letter in word:
            coeff *= sign[letter]
        out[word] = coeff
    return NCPoly(out)


def test_normal_form_metamorphic_gate():
    # No oracle: in a confluent system nf is the quotient map, so it is linear
    # and multiplicative modulo the ideal, and it commutes with the sign
    # automorphisms of the Clifford relations, those with sa*sb = sc.
    system = clifford_system()
    automorphisms = [s for s in product((1, -1), repeat=3) if s[0] * s[1] == s[2]]
    rng = random.Random(2)
    for _ in range(500):
        p, q = _seeded_clifford_poly(rng), _seeded_clifford_poly(rng)
        nf_p, nf_q, nf_pq = (normal_form(x, system) for x in (p, q, p * q))
        assert nf_pq == normal_form(nf_p * nf_q, system), (p, q)
        assert normal_form(p + q, system) == normal_form(nf_p + nf_q, system), (p, q)
        signs = rng.choice(automorphisms)
        assert normal_form(_signed(p * q, signs), system) == _signed(nf_pq, signs), (p, q)


def test_step_cap(monkeypatch):
    system = clifford_system()
    big = (A + B + C) ** 4
    monkeypatch.setattr(ncpoly, "MAX_REWRITE_STEPS", 1)
    with pytest.raises(ResourceLimit, match=r"^reducing .* at least 2 distinct rewrites, .* = 1$"):
        normal_form(big * big, system)


def test_step_cap_is_read_per_call(monkeypatch):
    system = clifford_system()
    monkeypatch.setattr(ncpoly, "MAX_REWRITE_STEPS", 1)
    with pytest.raises(ResourceLimit, match="MAX_REWRITE_STEPS"):
        normal_form(parse_poly("c*b*a", GENS), system)
    with pytest.raises(ResourceLimit, match="MAX_REWRITE_STEPS"):
        clifford_system()  # resolving its critical pair c*b*a is rewriting too


@pytest.mark.parametrize(
    "text, needed",
    [
        ("(a+b+c)^6", 779),  # distinct words; rewriting term by term took 9573
        ("(a+b+c)^7", 2602),
        ("(a+b+c)^8", 6423),
        ("c*b*a - b*c*a", 3),  # merged: c*b*a -> -b*c*a joins the other term
    ],
)
def test_step_cap_counts_distinct_rewrites(monkeypatch, text, needed):
    fresh = clifford_system()
    used = clifford_system()
    normal_form((A + B + C) ** 4, used)
    poly = parse_poly(text, GENS)
    monkeypatch.setattr(ncpoly, "MAX_REWRITE_STEPS", needed)
    expected = normal_form(poly, fresh)
    assert normal_form(poly, used) == expected
    monkeypatch.setattr(ncpoly, "MAX_REWRITE_STEPS", needed - 1)
    message = (
        f"^reducing the polynomial takes at least {needed} distinct rewrites, "
        f"above the limit MAX_REWRITE_STEPS = {needed - 1}$"
    )
    for system in (fresh, used):
        with pytest.raises(ResourceLimit, match=message):
            normal_form(poly, system)


@pytest.mark.parametrize("text", ["(x+y)^{n}", "(x-y)^{n}", "(-x+y)^{n}"])
def test_quantum_power_rewrite_count_closed_form(monkeypatch, text):
    # Every word of length n occurs in the expansion; a rewrite keeps the
    # number of y's, so no coefficients cancel, and each of the 2^n - n - 1
    # words that are not x^i y^j is rewritten exactly once.
    system = _quantum_plane()
    for n in range(2, 11):
        poly = parse_poly(text.format(n=n), system.generators)
        needed = 2**n - n - 1
        monkeypatch.setattr(ncpoly, "MAX_REWRITE_STEPS", needed)
        normal_form(poly, system)
        monkeypatch.setattr(ncpoly, "MAX_REWRITE_STEPS", needed - 1)
        with pytest.raises(ResourceLimit, match=f"at least {needed} distinct rewrites"):
            normal_form(poly, system)


# Confluence: every critical pair must resolve.


def test_rejects_unresolved_overlap():
    # z*w = x*v holds in the algebra but both words are irreducible, so
    # verify_identity would answer a wrong "no" on this system.
    z, v = NCPoly.generator("z"), NCPoly.generator("v")
    with pytest.raises(ValueError, match=r"x\*y -> z and y\*w -> v do not resolve on x\*y\*w"):
        RewriteSystem(("v", "w", "x", "y", "z"), ((("x", "y"), z), (("y", "w"), v)))
    doc = (
        '{"version": "1", "objects": {"sys": {"type": "presentation",'
        ' "generators": ["v", "w", "x", "y", "z"],'
        ' "rules": [{"lhs": "x*y", "rhs": "z"}, {"lhs": "y*w", "rhs": "v"}]}}}'
    )
    with pytest.raises(InputError, match=r"sys: rules .* do not resolve on x\*y\*w"):
        loads(doc)


def test_inclusions_are_critical_pairs():
    a, b = NCPoly.generator("a"), NCPoly.generator("b")
    with pytest.raises(ValueError, match=r"do not resolve on a\*b$"):
        RewriteSystem(("a", "b"), ((("a", "b"), a), (("a", "b"), b)))
    with pytest.raises(ValueError, match=r"do not resolve on a\*b\*a$"):
        RewriteSystem(("a", "b"), ((("a", "b", "a"), a), (("b",), NCPoly.one())))
    RewriteSystem(("a", "b"), ((("a", "b", "a"), NCPoly.zero()), (("b",), NCPoly.zero())))


def test_inclusion_tail_follows_the_match():
    # c sits inside a*c*b with the tail b after it, so the second reduct is a*b*b.
    system = RewriteSystem(GENS, ((("a", "c", "b"), A * B**2), (("c",), B)))
    assert str(normal_form(A * C * B, system)) == "a*b^2"


def test_rule_that_keeps_its_left_side_is_refused():
    with pytest.raises(ValueError, match=r"^rule a -> 2\*a breaks the termination order$"):
        RewriteSystem(("a",), ((("a",), 2 * A),))


def test_multi_letter_generator_names():
    ab, cd = NCPoly.generator("ab"), NCPoly.generator("cd")
    system = RewriteSystem(("ab", "cd"), ((("cd", "ab"), ab * cd),))
    assert str(normal_form(cd * ab * cd, system)) == "ab*cd^2"


def test_shipped_systems_are_confluent():
    qp = loads(
        '{"version": "1", "objects": {"qp": {"type": "presentation",'
        ' "generators": ["x", "y"], "rules": [{"lhs": "y*x", "rhs": "2*x*y"}]}}}'
    ).objects["qp"]
    counts = [len(list(_critical_pairs(s.rules))) for s in (clifford_system(), qp, _quadric_system())]
    assert counts == [1, 0, 8]
    words = [word for _, _, word, _, _ in _critical_pairs(clifford_system().rules)]
    assert words == [("c", "b", "a")]


def _random_system(rng, weights=None):
    """(generators, rules, weights) of a terminating system: 2-3 generators,
    1-3 rules, left sides of length 1-3.

    Given weights, each generator's weight is drawn from them, and a right side
    may be up to two letters longer than its left side, so that rewrites leave
    their class of equal weight and length both ways. Without, the weights are
    None and the draws are those the seeded tests have always made.
    """
    gens = ("a", "b", "c")[: rng.randint(2, 3)]
    if weights is not None:
        weights = tuple(rng.choice(weights) for _ in gens)
    probe = RewriteSystem(gens, (), weights)
    longer = 0 if weights is None else 2
    rules = []
    for _ in range(rng.randint(1, 3)):
        lhs = tuple(rng.choice(gens) for _ in range(rng.randint(1, 3)))
        smaller = [
            word
            for size in range(len(lhs) + 1 + longer)
            for word in product(gens, repeat=size)
            if probe._descending_key(word) > probe._descending_key(lhs)
        ]
        rhs = NCPoly.zero()
        for word in rng.sample(smaller, min(len(smaller), rng.randint(0, 2))):
            rhs = rhs + NCPoly.monomial(word, rng.choice((1, -1, 2)))
        rules.append((lhs, rhs))
    return gens, tuple(rules), weights


def _random_systems(seed=7, count=60, weights=None):
    """The seeded random systems that construction accepts, and how many it refused."""
    rng = random.Random(seed)
    accepted, rejected = [], 0
    for _ in range(count):
        gens, rules, drawn = _random_system(rng, weights)
        try:
            accepted.append(RewriteSystem(gens, rules, drawn))
        except ValueError as exc:
            assert "do not resolve" in str(exc)
            rejected += 1
    return accepted, rejected


def _quantum_plane():
    x, y = NCPoly.generator("x"), NCPoly.generator("y")
    return RewriteSystem(("x", "y"), ((("y", "x"), 2 * x * y),))


def test_confluent_systems_agree_with_rightmost_reduction():
    accepted, rejected = _random_systems()
    assert accepted and rejected
    for system in accepted:
        for size in range(6):
            for word in product(system.generators, repeat=size):
                poly = NCPoly.monomial(word)
                assert normal_form(poly, system) == rightmost_normal_form(poly, system)


def test_merged_and_cancelling_terms_agree_with_rightmost_reduction():
    rng = random.Random(11)
    accepted, _ = _random_systems()
    for system in accepted:
        for _ in range(20):
            poly = NCPoly.zero()
            for _ in range(rng.randint(2, 6)):
                word = tuple(rng.choice(system.generators) for _ in range(rng.randint(0, 5)))
                poly = poly + NCPoly.monomial(word, rng.choice((1, -1, 2, -2)))
            assert normal_form(poly, system) == rightmost_normal_form(poly, system)
    clifford, quantum = clifford_system(), _quantum_plane()
    x, y = (NCPoly.generator(g) for g in quantum.generators)
    signs = (1, -1)
    cases = [
        (clifford, (sa * A + sb * B + sc * C) ** n)
        for sa, sb, sc in product(signs, repeat=3)
        for n in range(5)
    ] + [(quantum, (sx * x + sy * y) ** n) for sx, sy in product(signs, repeat=2) for n in range(7)]
    # a*c + c*a reduces to a*c - a*c, so every Clifford power from 2 on cancels terms
    assert normal_form(A * C + C * A, clifford).is_zero
    for system, poly in cases:
        assert normal_form(poly, system) == rightmost_normal_form(poly, system)


def _rule_shifts(system):
    """How each rule's reducts leave their parent's class of equal weight and length."""
    weight = dict(zip(system.generators, system.weights))
    shifts = set()
    for lhs, rhs in system.rules:
        for word, _ in rhs.terms():
            drop = sum(map(weight.get, lhs)) - sum(map(weight.get, word))
            shifts.add("drop" if drop else "longer" if len(word) > len(lhs) else "stay")
    return shifts


def _matches_triple_heap(monkeypatch, poly, system):
    """The oracle's normal form and its distinct rewrites: normal_form passes
    at that count and is refused one below it, so the buckets rewrite the same
    words in the same order."""
    expected, steps = heap_normal_form(poly, system)
    monkeypatch.setattr(ncpoly, "MAX_REWRITE_STEPS", steps)
    assert normal_form(poly, system) == expected
    if steps:
        monkeypatch.setattr(ncpoly, "MAX_REWRITE_STEPS", steps - 1)
        with pytest.raises(ResourceLimit, match=f"at least {steps} distinct rewrites"):
            normal_form(poly, system)
    return expected, steps


def test_bucketed_schedule_matches_triple_heap(monkeypatch):
    accepted, rejected = _random_systems(seed=19, weights=(1, 2, 3))
    assert accepted and rejected
    assert set().union(*map(_rule_shifts, accepted)) == {"drop", "longer", "stay"}
    rng = random.Random(31)
    counted = 0
    for system in accepted + [clifford_system(), _quantum_plane(), _quadric_system()]:
        for _ in range(8):
            poly = NCPoly.zero()
            for _ in range(rng.randint(1, 6)):
                word = tuple(rng.choice(system.generators) for _ in range(rng.randint(0, 6)))
                poly = poly + NCPoly.monomial(word, rng.choice((1, -1, 2, Fraction(1, 2))))
            counted += _matches_triple_heap(monkeypatch, poly, system)[1] > 0
    assert counted > len(accepted)


def test_bucketed_schedule_matches_triple_heap_on_expansions(monkeypatch):
    # Every rule of both systems keeps weight and length, so (u ± v)^n is one
    # class of hundreds of words. In the quantum plane every word of length n
    # is in the expansion, so each reduct is already pending and the sorted
    # bucket alone gives the order; in the quadric, b*c -> a*d brings in words
    # with a (and d), which wait in the side heap and interleave with the bucket.
    quantum, quadric = _quantum_plane(), _quadric_system()
    x, y = (NCPoly.generator(g) for g in quantum.generators)
    _, b, c, d = (NCPoly.generator(g) for g in quadric.generators)
    for system, u, v, top in ((quantum, x, y, 9), (quadric, b, c, 9), (quadric, b + d, c, 5)):
        assert _rule_shifts(system) == {"stay"}
        for n in range(2, top + 1):
            for poly in ((u + v) ** n, (u - v) ** n):
                expected, steps = _matches_triple_heap(monkeypatch, poly, system)
                assert steps and (expected.letters() > poly.letters()) == (system is quadric)
    # With a seeded half of the words of (x ± y)^n left out, many reducts are
    # new to the class and reached from several words, so the side heap and the
    # bucket must interleave for each to be rewritten once.
    rng = random.Random(3)
    for n in range(4, 10):
        for poly in ((x + y) ** n, (x - y) ** n):
            half = NCPoly([term for term in poly.terms() if rng.random() < 0.5])
            _matches_triple_heap(monkeypatch, half, quantum)


def _commuting_system(gens, used, extra=()):
    """The generators in `used` commute (y*x -> x*y for x before y), plus `extra` rules."""
    rules = [((y, x), NCPoly.monomial((x, y))) for i, x in enumerate(used) for y in used[i + 1 :]]
    return RewriteSystem(gens, tuple(rules) + tuple(extra))


def test_generator_coding_edge_cases():
    # Single-letter names, coded by str.translate; names that are prefixes of
    # each other, and 300 generators, whose codes chr(299), chr(298), ... pass
    # one byte for the first 44 of them, coded letter by letter.
    prefixed = ("x", "x1", "x10")
    square = ((("x1", "x1"), NCPoly.generator("x10")),)
    many = tuple(f"g{i}" for i in range(300))
    used = ("g0", "g1", "g43", "g44", "g298", "g299")
    top = ((("g299", "g299"), NCPoly.generator("g0") - NCPoly.generator("g44")),)
    cases = [
        (_commuting_system(GENS, GENS, ((("a", "a"), B - C),)), GENS),
        (_commuting_system(prefixed, prefixed, square), prefixed),
        (_commuting_system(many, used, top), used + ("g150",)),
    ]
    for system, letters in cases:
        for size in range(5):
            for word in product(letters, repeat=size):
                poly = NCPoly.monomial(word, 3) - NCPoly.monomial(word[::-1])
                assert normal_form(poly, system) == rightmost_normal_form(poly, system)
        # Letters that str.translate would pass through or split: a code
        # character, a control character, a name spelled with generator
        # letters, and the empty name.
        spelled = letters[0] + letters[1]
        traps = [
            ("z", letters[0], "x1 "),
            (system._code[letters[0]],),
            ("\x00",),
            (letters[1], "\x01"),
            (spelled,),
            ("", spelled),
        ]
        for word in traps:
            foreign = NCPoly.monomial(word) + NCPoly.generator("w")
            with pytest.raises(InputError) as caught:
                normal_form(foreign, system)
            unknown = sorted({*word, "w"} - set(system.generators))
            assert str(caught.value) == f"polynomial uses unknown generators {unknown}"


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


def test_matrix_compose_refuses_an_empty_right_factor():
    system = clifford_system()
    for m, n in ((((),), ()), ((), ())):
        with pytest.raises(ValueError, match="^right factor has no rows$"):
            matrix_compose(m, n, system)
    assert matrix_compose(((A,),), ((B, C),), system) == ((A * B, A * C),)


def test_matrix_compose_refuses_mismatched_ragged_and_foreign_factors():
    system = clifford_system()
    with pytest.raises(ValueError, match="^inner dimensions do not match$"):
        matrix_compose(((A, B),), ((C,),), system)
    with pytest.raises(ValueError, match="^ragged matrix$"):
        matrix_compose(((A, B),), ((A, B), (C,)), system)
    with pytest.raises(TypeError, match=r"^cannot use 1\.5 as a matrix entry$"):
        matrix_compose(((A,),), ((1.5,),), system)


# The quadric cone k[a,b,c,d]/(ad - bc) as a rewrite system.


def test_quadric_relation():
    system = _quadric_system()
    a, b, c, d = (NCPoly.generator(x) for x in "abcd")
    assert verify_identity(a * d, b * c, system)
    assert verify_identity(a * a * d, a * b * c, system)
    assert verify_identity(a * d * d, b * c * d, system)
    assert not verify_identity(a * d, a * c, system)


def test_quadric_cleared_denominators():
    # b/a = ab/a^2, (b/a)*a = b and (b/a)*c = d, each times a power of a
    system = _quadric_system()
    a, b, c, d = (NCPoly.generator(x) for x in "abcd")
    assert verify_identity(b * a * a, a * b * a, system)
    assert verify_identity(b * a, a * b, system)
    assert verify_identity(b * c, a * d, system)
    assert not verify_identity(b * c, a * c, system)


def test_quiver_and_invariant_checks():
    assert quiver_relations_hold() is True
    assert invariant_presentation_holds() is True


def test_commutative_quotient_dispatch():
    assert commutative_quotient_check("francia-algebra") is True
    with pytest.raises(InputError):
        commutative_quotient_check("who-knows")
