"""Noncommutative polynomial arithmetic with terminating, confluent rewriting.

Polynomials are finite rational combinations of words over named generators.
Integral coefficients are plain ints and only true fractions are Fractions, so
integer work never pays for Fraction arithmetic; ints and Fractions compare,
hash and print alike. The parser walks a flat list of bare tokens, expands
products in full and powers by squaring, and charges each product the term
products, letters and wide coefficient bits it writes against MAX_PARSE_WORK.
A :class:`RewriteSystem` carries rules ``lhs -> rhs`` together with a
termination witness: a weighted degree order under which every monomial of a
rule's right-hand side is strictly smaller than its left-hand side. Words are
compared by total weight, then by length (at equal weight a longer word is
smaller), then left-to-right by generator rank, which is a multiplication
compatible well-order, so every rewrite sequence halts. Construction also
resolves every critical pair, so the system is confluent and a normal form is
the same whichever redex is rewritten first. A normal form merges terms by
word and rewrites the largest pending word first, so each distinct word is
rewritten once. It holds words as strings, one character per generator, coded
by one str.translate per word when every generator name is a single character,
in buckets of equal weight and length: the redex, the leftmost match of the
first rule that matches, is found by str.find, and within a bucket the word
order is str order, so a bucket is sorted once when its class comes up. The
only guard is a work limit: past MAX_REWRITE_STEPS distinct rewrites in one
call, normal_form raises ResourceLimit.

Normal forms decide identities and centrality in algebras presented by such
systems. The rank two quiver algebra over the quadric cone k[a,b,c,d]/(ad - bc)
is checked the same way: the quadric is a rewrite system that commutes the
generators and trades bc for ad, and the quiver's matrices have entries in it.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import groupby

from .errors import InputError, ResourceLimit
from .numerals import exact, read_int, write
from .records import Record, sequence

# Distinct words one normal_form call rewrites: (a+b+c)^6 in Clifford takes 779.
MAX_REWRITE_STEPS = 10**6
# The parser recurses four frames per parenthesis, so this stays well inside
# Python's default recursion limit of 1000.
MAX_NESTING_DEPTH = 100
# Term products plus letters written by the parser's products and powers:
# (a+b+c)^10 costs about 7e5 and a^40000 about 1.2e5, where a^1000000 and
# (a+b+c)^12 are refused.
MAX_PARSE_WORK = 2 * 10**6


def _coerce(value):
    """An exact coefficient: an int when it is integral, else a Fraction."""
    if type(value) is int:
        return value
    value = exact(value)
    return value.numerator if value.denominator == 1 else value


def _accumulate(data: dict, key, coeff) -> None:
    """Add coeff to data[key], dropping the key when the sum is zero."""
    acc = data.get(key, 0) + coeff
    if acc:
        data[key] = acc
    else:
        data.pop(key, None)


class NCPoly:
    """Noncommutative polynomial: a finite map from words to rational numbers."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for word, coeff in items:
                word = tuple(word)
                _accumulate(data, word, _coerce(coeff))
        self._terms = data

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls()

    @classmethod
    def constant(cls, value) -> "NCPoly":
        return cls({(): value})

    @classmethod
    def one(cls) -> "NCPoly":
        return cls.constant(1)

    @classmethod
    def monomial(cls, word, coeff=1) -> "NCPoly":
        return cls({tuple(word): coeff})

    @classmethod
    def generator(cls, name: str) -> "NCPoly":
        return cls({(str(name),): 1})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """Term list sorted by (length, word), shortest first."""
        return sorted(self._terms.items(), key=lambda item: (len(item[0]), item[0]))

    def letters(self) -> frozenset:
        return frozenset().union(*self._terms)

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        data = dict(self._terms)
        for word, coeff in other._terms.items():
            _accumulate(data, word, coeff)
        return _poly(data)

    __radd__ = __add__

    def __neg__(self):
        return _poly({w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        data: dict = {}
        get = data.get
        right = other._terms.items()
        for w1, c1 in self._terms.items():
            for w2, c2 in right:
                word = w1 + w2
                data[word] = get(word, 0) + c1 * c2
        for word in [word for word, coeff in data.items() if not coeff]:
            del data[word]
        return _poly(data)

    def __rmul__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, exponent: int):
        if type(exponent) is not int or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _power(self, exponent, NCPoly.__mul__)

    def __eq__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        terms = self._terms
        if terms.keys() <= {()}:  # a constant equals its value, so it hashes as it
            return hash(terms.get((), 0))
        return hash(frozenset(terms.items()))

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for index, (word, coeff) in enumerate(self.terms()):
            magnitude = abs(coeff)
            if not word:
                body = write(magnitude)
            elif magnitude == 1:
                body = _word_str(word)
            else:
                body = f"{write(magnitude)}*{_word_str(word)}"
            if index == 0:
                chunks.append(("-" if coeff < 0 else "") + body)
            else:
                chunks.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(chunks)

    def __repr__(self):
        return f"NCPoly({self})"


def _poly(data: dict) -> NCPoly:
    """The polynomial on data, a dict of nonzero coefficients, taken without a copy."""
    out = object.__new__(NCPoly)
    out._terms = data
    return out


def _power(base: NCPoly, exponent: int, multiply) -> NCPoly:
    """base**exponent by repeated squaring, with multiply(x, y) for each product.

    Powers of one element commute, so the order of the factors is immaterial.
    """
    if not exponent:
        return NCPoly.one()
    out = None
    while True:
        if exponent & 1:
            out = base if out is None else multiply(out, base)
        exponent >>= 1
        if not exponent:
            return out
        base = multiply(base, base)


def _size(terms: dict) -> int:
    """The terms' letters plus their coefficients' bits past one 64-bit word each."""
    size = sum(map(len, terms))
    for c in terms.values():
        bits = (c if type(c) is int else c.numerator * c.denominator).bit_length()
        if bits > 64:
            size += bits - 64
    return size


def _word_str(word) -> str:
    runs = [(letter, len(list(run))) for letter, run in groupby(word)]
    return "*".join(letter if size == 1 else f"{letter}^{size}" for letter, size in runs)


def _as_poly(value) -> NCPoly | None:
    if isinstance(value, NCPoly):
        return value
    if type(value) is int or isinstance(value, Fraction):
        return NCPoly.constant(value)
    return None


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"\s*(?:(\d+)(?:/(\d+))?|({_NAME.pattern})|([-+*^()])|(\S))")


def _tokenize(text: str) -> list:
    """The tokens _Parser reads, in one pass; ResourceLimit past MAX_NESTING_DEPTH."""
    tokens = []
    depth = deepest = 0
    for match in _TOKEN.finditer(text):
        kind = match.lastindex  # 1 integer, 2 fraction, 3 name, 4 operator, 5 anything else
        token = match[kind]
        if kind == 4:
            depth += (token == "(") - (token == ")")
            deepest = max(deepest, depth)
        elif kind == 5:
            raise InputError(f"cannot tokenize {text[match.start():].strip()[:20]!r}")
        elif kind < 3:
            token = read_int(match[1])
            if kind == 2:
                denominator = read_int(match[2])
                if not denominator:
                    raise InputError(f"division by zero in {text[match.start(1):match.end()]!r}")
                token = _coerce(Fraction(token, denominator))
        tokens.append(token)
    if deepest > MAX_NESTING_DEPTH:
        raise ResourceLimit.over(f"parentheses nest {deepest} deep",
                                 "MAX_NESTING_DEPTH", MAX_NESTING_DEPTH)
    tokens.append(None)
    return tokens


class _Parser:
    """Recursive descent over +, -, *, ^, parentheses and juxtaposition.

    It reads the flat token list by index: an operator is its character, a name
    its string, a number its int or Fraction, and None ends the list. Every
    product A*B, powers included, is charged |A|*|B| + |B|*sum|a| + |A|*sum|b|
    (term products plus letters and wide coefficient bits written, see _size)
    before it is formed; the parse is refused once the charges pass MAX_PARSE_WORK.
    """

    def __init__(self, tokens, generators):
        self.tokens = tokens
        self.pos = 0
        # Tokens are strs, so no other name can match one; RewriteSystem refuses
        # such names, and frozenset could not hold a list among them.
        self.generators = frozenset(g for g in generators if type(g) is str)
        self.work = 0

    def product(self, left: NCPoly, right: NCPoly) -> NCPoly:
        left_terms, right_terms = left._terms, right._terms
        self.work += len(left_terms) * len(right_terms) + (
            len(right_terms) * _size(left_terms) + len(left_terms) * _size(right_terms)
        )
        if self.work > MAX_PARSE_WORK:
            raise ResourceLimit.over(f"expanding the expression takes at least {self.work} term "
                                     "products, letters and coefficient bits",
                                     "MAX_PARSE_WORK", MAX_PARSE_WORK)
        return left * right

    def parse(self) -> NCPoly:
        if self.tokens[0] is None:
            raise InputError("empty expression")
        poly = self.expr()
        token = self.tokens[self.pos]
        if token is not None:
            raise InputError(f"unexpected token {token!r}")
        return poly

    def expr(self) -> NCPoly:
        # Summands are merged into one dict, so a long sum costs linear time;
        # term() returns a new polynomial, so its dict is ours to extend.
        tokens = self.tokens
        data = self.term()._terms
        while tokens[self.pos] in ("+", "-"):
            sign = -1 if tokens[self.pos] == "-" else 1
            self.pos += 1
            for word, coeff in self.term()._terms.items():
                _accumulate(data, word, sign * coeff)
        return _poly(data)

    def term(self) -> NCPoly:
        tokens = self.tokens
        sign = 1
        while tokens[self.pos] in ("+", "-"):
            sign = -sign if tokens[self.pos] == "-" else sign
            self.pos += 1
        poly = self.factor()
        while True:
            token = tokens[self.pos]
            if token == "*":
                self.pos += 1
            elif token is None or token in (")", "+", "-", "^"):
                return poly if sign > 0 else -poly
            poly = self.product(poly, self.factor())

    def factor(self) -> NCPoly:
        base = self.atom()
        if self.tokens[self.pos] == "^":
            exponent = self.tokens[self.pos + 1]
            if type(exponent) is not int:
                raise InputError("exponent must be a nonnegative integer")
            self.pos += 2
            base = _power(base, exponent, self.product)
        return base

    def atom(self) -> NCPoly:
        token = self.tokens[self.pos]
        self.pos += 1
        if type(token) is not str:
            if token is None:
                raise InputError("unexpected end of expression")
            return _poly({(): token} if token else {})
        if token == "(":
            inner = self.expr()
            if self.tokens[self.pos] != ")":
                raise InputError("unbalanced parenthesis")
            self.pos += 1
            return inner
        if token in ")*^+-":  # signs open a term, never a factor; names are not operators
            raise InputError(f"unexpected token {token!r}")
        # a generator, or juxtaposed single-letter generators such as "ab" for a*b
        word = (token,) if token in self.generators else tuple(token)
        if self.generators.issuperset(word):
            return _poly({word: 1})
        raise InputError(f"unknown generator {token!r}")


def parse_poly(text: str, generators) -> NCPoly:
    """Parse an expression like ``a*b - 2*c^3`` over the given generators.

    ResourceLimit when parentheses nest deeper than MAX_NESTING_DEPTH or the
    products of the expansion cost more than MAX_PARSE_WORK.
    """
    return _Parser(_tokenize(text), generators).parse()


class RewriteSystem(Record):
    """Prioritised rewrite rules, verified terminating and confluent.

    generators fixes the rank used for tie-breaking; weights (positive ints,
    default all 1, i.e. plain degree-lex) give the leading component of the
    word order. Every right-hand-side word must be strictly smaller than its
    rule's left-hand side, and every critical pair must resolve, otherwise
    construction fails.
    """

    _fields = ("generators", "rules", "weights")
    _defaults = (None,)
    __slots__ = (*_fields, "_code", "_name", "_tables", "_weighing", "_coded_rules")

    def __post_init__(self):
        gens = sequence(self.generators, "generators")
        if not gens or any(type(g) is not str or not g for g in gens) or len(set(gens)) < len(gens):
            raise ValueError(f"generators must be distinct nonempty strings, got {gens!r}")
        for g in gens:  # no expression spells another name, so no document would round-trip
            if not _NAME.fullmatch(g):
                raise ValueError(f"generator {g!r} does not match {_NAME.pattern}")
        object.__setattr__(self, "generators", gens)
        if self.weights is None:
            weights = (1,) * len(gens)
        else:
            weights = sequence(self.weights, "weights")
            for w in weights:
                if type(w) is not int:
                    raise ValueError(f"weight {w!r} is not an integer")
        if len(weights) != len(gens) or any(w <= 0 for w in weights):
            raise ValueError("need one positive weight per generator")
        object.__setattr__(self, "weights", weights)
        # Generator i is the character chr(n-1-i), so words of equal weight and
        # length sort largest first as their coded strings do.
        code = {g: chr(len(gens) - 1 - i) for i, g in enumerate(gens)}
        name = {c: g for g, c in code.items()}
        object.__setattr__(self, "_code", code)
        object.__setattr__(self, "_name", name)
        # With single-character names a word is coded, and decoded, by one
        # str.translate of its joined letters.
        single = all(len(g) == 1 for g in gens)
        tables = (str.maketrans(code), str.maketrans(name)) if single else (None, None)
        object.__setattr__(self, "_tables", tables)
        # A coded word weighs base * len + delta * count(char) per generator of
        # weight base + delta; base, the commonest weight, needs no count.
        base = max(sorted(set(weights)), key=weights.count)
        extra = tuple((code[g], w - base) for g, w in zip(gens, weights) if w != base)
        object.__setattr__(self, "_weighing", (base, extra))
        rules, coded = [], []
        for lhs, rhs in sequence(self.rules, "rules"):
            lhs = tuple(lhs)
            if not lhs:
                raise ValueError("rule left-hand side must be a nonempty word")
            rhs = rhs if isinstance(rhs, NCPoly) else NCPoly(rhs)
            for letter in lhs + tuple(rhs.letters()):
                if letter not in gens:
                    raise ValueError(f"rule uses unknown generator {letter!r}")
            top = self._descending_key(lhs)
            reducts = []
            for word, factor in rhs.terms():
                key = self._descending_key(word)
                if not key > top:
                    raise ValueError(
                        f"rule {_word_str(lhs)} -> {rhs} breaks the termination order"
                    )
                # (weight drop, length growth), or None when the reduct stays in
                # its parent's class of equal weight and length
                shift = (key[0] - top[0], key[1] - top[1])
                reducts.append((key[2], factor, None if shift == (0, 0) else shift))
            rules.append((lhs, rhs))
            coded.append((top[2], len(lhs), tuple(reducts)))
        object.__setattr__(self, "rules", tuple(rules))
        object.__setattr__(self, "_coded_rules", tuple(coded))
        for i, j, word, left, right in _critical_pairs(self.rules):
            if normal_form(left, self) != normal_form(right, self):
                raise ValueError(
                    f"rules {_rule_str(self.rules[i])} and {_rule_str(self.rules[j])} "
                    f"do not resolve on {_word_str(word)}"
                )

    def _descending_key(self, word):
        """(-weight, length, coded word): sorts words largest first in the word order.

        A word is larger when its total weight is larger, then when it is
        shorter, then when its generator ranks are larger left to right, that
        is when its coded string is smaller. KeyError on an unknown generator.
        """
        text = "".join(map(self._code.__getitem__, word))
        base, extra = self._weighing
        weight = base * len(text) + sum(delta * text.count(char) for char, delta in extra)
        return (-weight, len(text), text)


def _rule_str(rule) -> str:
    lhs, rhs = rule
    return f"{_word_str(lhs)} -> {rhs}"


def _critical_pairs(rules):
    """(i, j, word, reduct by rule i, reduct by rule j) for every ambiguity.

    An overlap is lhs_i extended by the rest of lhs_j, where a proper suffix of
    lhs_i is a proper prefix of lhs_j (i = j allowed); an inclusion is lhs_i
    with lhs_j inside it (i != j). For a terminating system, the system is
    confluent exactly when both reducts of each have one normal form (Bergman,
    "The diamond lemma for ring theory", Adv. Math. 29, 1978).
    """
    for i, (lhs_i, rhs_i) in enumerate(rules):
        for j, (lhs_j, rhs_j) in enumerate(rules):
            for k in range(1, min(len(lhs_i), len(lhs_j))):
                if lhs_i[-k:] == lhs_j[:k]:
                    head, tail = NCPoly.monomial(lhs_i[:-k]), NCPoly.monomial(lhs_j[k:])
                    yield i, j, lhs_i + lhs_j[k:], rhs_i * tail, head * rhs_j
            if i == j:
                continue
            span = len(lhs_j)
            for pos in range(len(lhs_i) - span + 1):
                if lhs_i[pos : pos + span] == lhs_j:
                    head, tail = NCPoly.monomial(lhs_i[:pos]), NCPoly.monomial(lhs_i[pos + span :])
                    yield i, j, lhs_i, rhs_i, head * rhs_j * tail


def normal_form(poly: NCPoly, system: RewriteSystem) -> NCPoly:
    """Fully reduce a polynomial; ResourceLimit past MAX_REWRITE_STEPS rewrites.

    Pending terms are merged by word and rewritten largest word first. Every
    reduct of a word is strictly smaller than it, so a popped word never comes
    back: each distinct word is rewritten once, with its merged coefficient,
    and a word whose terms cancel is dropped unrewritten. The step limit
    counts these distinct rewrites. Words are coded on entry, one character
    per generator (one str.translate per word when every generator name is a
    single character), and decoded on exit; a word is rewritten at the
    leftmost str.find match of the first rule whose coded left-hand side it
    holds. Coded words wait in buckets by class (-weight, length); a heap of
    class keys yields the classes in order, and a bucket is sorted once when
    its class comes up and taken from its end. A reduct of equal weight and
    length that is not pending yet joins a side heap, and the next word is the
    larger head of the two in the word order; any other reduct joins a later
    bucket.
    """
    limit = MAX_REWRITE_STEPS
    code, name, rules = system._code, system._name, system._coded_rules
    table, inverse = system._tables
    base, extra = system._weighing
    # str.translate passes unknown characters through, so this is the guard.
    letters = poly.letters()
    if not letters <= code.keys():
        unknown = sorted(letters - code.keys())
        raise InputError(f"polynomial uses unknown generators {unknown}")
    pending: dict = {}
    buckets = defaultdict(list)
    for word, coeff in poly._terms.items():
        text = "".join(word).translate(table) if table else "".join(map(code.__getitem__, word))
        pending[text] = coeff
        length = len(text)
        weight = base * length
        for char, delta in extra:
            weight += delta * text.count(char)
        buckets[-weight, length].append(text)
    classes = list(buckets)
    heapify(classes)
    result: dict = {}
    steps = 0
    while classes:
        negated_weight, length = key = heappop(classes)
        bucket = buckets.pop(key)
        bucket.sort(reverse=True)
        side: list = []
        while bucket or side:
            text = heappop(side) if side and (not bucket or side[0] < bucket[-1]) else bucket.pop()
            coeff = pending.pop(text)
            if not coeff:
                continue
            for lhs, span, reducts in rules:
                pos = text.find(lhs)
                if pos >= 0:
                    break
            else:
                word = text.translate(inverse) if inverse else map(name.__getitem__, text)
                result[tuple(word)] = coeff
                continue
            steps += 1
            if steps > limit:
                raise ResourceLimit.over(f"reducing the polynomial takes at least {steps} distinct "
                                         "rewrites", "MAX_REWRITE_STEPS", limit)
            prefix, suffix = text[:pos], text[pos + span :]
            for body, factor, shift in reducts:
                reduct = prefix + body + suffix
                if reduct in pending:
                    pending[reduct] += coeff * factor
                    continue
                pending[reduct] = coeff * factor
                if shift is None:
                    heappush(side, reduct)
                    continue
                target = (negated_weight + shift[0], length + shift[1])
                if target not in buckets:
                    heappush(classes, target)
                buckets[target].append(reduct)
    return _poly(result)


def is_central(poly: NCPoly, system: RewriteSystem) -> bool:
    """True when the polynomial commutes with every generator of the system."""
    for name in system.generators:
        gen = NCPoly.generator(name)
        if not normal_form(gen * poly - poly * gen, system).is_zero:
            return False
    return True


def verify_identity(lhs: NCPoly, rhs: NCPoly, system: RewriteSystem) -> bool:
    return normal_form(lhs - rhs, system).is_zero


def matrix_compose(m, n, system: RewriteSystem):
    """Product of two matrices of polynomials, entries in normal form."""
    m = tuple(tuple(_entry(x) for x in row) for row in m)
    n = tuple(tuple(_entry(x) for x in row) for row in n)
    if any(len(row) != len(n) for row in m):
        raise ValueError("inner dimensions do not match")
    if not n:
        raise ValueError("right factor has no rows")
    width = len(n[0])
    if any(len(row) != width for row in n):
        raise ValueError("ragged matrix")
    out = []
    for row in m:
        out_row = []
        for j in range(width):
            total = NCPoly.zero()
            for k, entry in enumerate(row):
                total = total + entry * n[k][j]
            out_row.append(normal_form(total, system))
        out.append(tuple(out_row))
    return tuple(out)


def _entry(value) -> NCPoly:
    poly = _as_poly(value)
    if poly is None:
        raise TypeError(f"cannot use {value!r} as a matrix entry")
    return poly


def clifford_system() -> RewriteSystem:
    """Generalised quaternion presentation: ca=-ac, cb=-bc, ba=ab-2c^3.

    Plain degree-lex cannot orient the last rule (its right side has a longer
    word), so generator weights 3, 3, 2 make all three rules weight-homogeneous
    and the order drops to the tie-breakers.
    """
    a, b, c = (NCPoly.generator(x) for x in "abc")
    rules = (
        (("c", "a"), -(a * c)),
        (("c", "b"), -(b * c)),
        (("b", "a"), a * b - 2 * c**3),
    )
    return RewriteSystem(("a", "b", "c"), rules, weights=(3, 3, 2))


BUILTIN_SYSTEMS = {"clifford": clifford_system}


def builtin_system(name: str) -> RewriteSystem:
    if name not in BUILTIN_SYSTEMS:
        raise InputError(f"unknown builtin system {name!r}")
    return BUILTIN_SYSTEMS[name]()


def _quadric_system() -> RewriteSystem:
    """The quadric cone k[a,b,c,d]/(ad - bc) as a rewrite system.

    Six rules y*x -> x*y, one for each pair with y after x, make the algebra
    commutative, and b*c -> a*d trades bc for ad; all eight critical pairs
    resolve, so normal forms decide equality in the quadric ring.
    """
    gens = ("a", "b", "c", "d")
    rules = [((y, x), NCPoly.monomial((x, y))) for i, x in enumerate(gens) for y in gens[i + 1 :]]
    rules.append((("b", "c"), NCPoly.monomial(("a", "d"))))
    return RewriteSystem(gens, tuple(rules))


def quiver_relations_hold() -> bool:
    """Check the four braid-style relations of the rank two quiver algebra.

    The arrows act on a rank two module over the quadric cone; the only
    fractional entry is b/a in vbar. Relation 1 has no vbar and each side of
    relations 2-4 has it exactly once, so those are checked on a*vbar, whose
    entry is b: a is a nonzerodivisor of the domain, so clearing it is exact.
    """
    system = _quadric_system()
    a, b, c = (NCPoly.generator(x) for x in "abc")
    u = ((0, a), (0, 0))
    v = ((0, c), (0, 0))
    ubar = ((0, 0), (1, 0))
    a_vbar = ((0, 0), (b, 0))

    def compose(x, y, z):
        return matrix_compose(matrix_compose(x, y, system), z, system)

    checks = (
        (compose(u, ubar, v), compose(v, ubar, u)),
        (compose(u, a_vbar, v), compose(v, a_vbar, u)),
        (compose(ubar, u, a_vbar), compose(a_vbar, u, ubar)),
        (compose(ubar, v, a_vbar), compose(a_vbar, v, ubar)),
    )
    return all(lhs == rhs for lhs, rhs in checks)


def invariant_presentation_holds() -> bool:
    """x = a^2, y = ab, z = b^2 kill xz - y^2, xd - yc and yd - zc."""
    system = _quadric_system()
    a, b, c, d = (NCPoly.generator(g) for g in system.generators)
    x, y, z = a * a, a * b, b * b
    relations = (x * z - y * y, x * d - y * c, y * d - z * c)
    return all(normal_form(r, system).is_zero for r in relations)


def commutative_quotient_check(name: str) -> bool:
    """Named consistency checks tying a presentation to its commutative model."""
    if name != "francia-algebra":
        raise InputError(f"unknown algebra {name!r}")
    return quiver_relations_hold() and invariant_presentation_holds()
