"""Bundled worked examples with self-checking reports.

Each case study builds its inputs through the public document layer, runs the
relevant pipelines end to end, and compares every intermediate against a
frozen expected value. The reports double as executable documentation and as
regression anchors for the test suite.

``francia``: a half-point lattice over the cone on a unit square, with a
single boundary coefficient 1/2. Its canonical class alone is not Q-Cartier,
the pair is klt of index two, and the index-one cover is the Gorenstein cone
over the unit square in the standard lattice.

``clifford``: a graded algebra on three generators whose rewrite presentation
anticommutes c past a and b and straightens ba; its degree-zero behaviour
matches a ramified matrix order with e = 2.
"""

from __future__ import annotations

from fractions import Fraction

from . import iodoc, linalg, ncpoly, valmat
from .errors import InputError
from .iodoc import VERSION, InputDocument
from .ncpoly import NCPoly, clifford_system, is_central, matrix_compose, normal_form
from .orders import (
    OrderSpec,
    RamificationDatum,
    cover_graded_valuations,
    discriminant,
)
from .records import Record
from .toric import (
    Cone,
    ConePair,
    Lattice,
    ToricDivisor,
    as_fractions,
    canonical_check,
    canonical_functional,
    cover_correspondence_check,
    dual_cone_generators,
    klt_check,
    log_canonical_cover,
    pair_functional,
)


class CheckResult(Record):
    __slots__ = _fields = ("check_id", "description", "expected", "actual", "passed")


class CaseStudyReport(Record):
    __slots__ = _fields = ("name", "checks")

    @property
    def overall(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "overall": self.overall,
            "checks": [
                {
                    "id": check.check_id,
                    "description": check.description,
                    "expected": check.expected,
                    "actual": check.actual,
                    "passed": check.passed,
                }
                for check in self.checks
            ],
        }

    def to_text(self) -> str:
        lines = [f"case study: {self.name}"]
        for check in self.checks:
            status = "ok" if check.passed else "FAIL"
            line = f"  [{status}] {check.check_id}: {check.description}: {check.actual}"
            if not check.passed:
                line += f" (expected {check.expected})"
            lines.append(line)
        lines.append(f"overall: {'pass' if self.overall else 'fail'}")
        return "\n".join(lines)


def _check(checks: list, check_id: str, description: str, expected, actual) -> None:
    expected, actual = str(expected), str(actual)
    checks.append(CheckResult(check_id, description, expected, actual, expected == actual))


def _fmt_functional(solved) -> str:
    """A functional (w, m) as its Fractions w/m, or "none" for None."""
    return "none" if solved is None else "(" + ", ".join(map(str, as_fractions(solved))) + ")"


def _fmt_vectors(vectors) -> str:
    return str([list(v) for v in vectors])


def francia_input_document() -> InputDocument:
    """Base pair, expected cover, and the matching ramified order."""
    base_lattice = Lattice(((1, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2))))
    base = ConePair(
        Cone(base_lattice, ((0, 0, 1), (0, 1, 2), (1, 0, 2), (1, 1, 2))),
        ToricDivisor((Fraction(1, 2), 0, 0, 0)),
    )
    cover = ConePair(
        Cone(Lattice.standard(3), ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1))),
        ToricDivisor((0, 0, 0, 0)),
    )
    order = OrderSpec("francia-order", (RamificationDatum("D_rho", 2, (1, 1)),))
    return InputDocument(VERSION, {"base": base, "cover": cover, "francia-order": order})


def clifford_input_document() -> InputDocument:
    order = OrderSpec("clifford-order", (RamificationDatum("B", 2, (1, 1)),))
    return InputDocument(
        VERSION, {"clifford-order": order, "clifford-algebra": clifford_system()}
    )


def _francia_report() -> CaseStudyReport:
    doc = francia_input_document()
    pair = doc.objects["base"]
    expected_cover = doc.objects["cover"]
    order = doc.objects["francia-order"]
    cone = pair.cone
    checks: list = []

    _check(
        checks,
        "canonical-not-q-cartier",
        "the canonical class alone admits no supporting functional",
        "none",
        _fmt_functional(canonical_functional(cone)),
    )

    u = pair_functional(pair)
    _check(
        checks,
        "pair-q-cartier",
        "functional representing -(K+D) on the rays",
        "(0, 0, 1/2)",
        _fmt_functional(u),
    )
    _check(
        checks,
        "cartier-index",
        "least multiple of K+D that is Cartier",
        2,
        "none" if u is None else u[1],
    )

    _check(checks, "klt", "the pair is Kawamata log terminal", True, klt_check(pair).is_klt)
    _check(
        checks,
        "primitive-ray-coordinates",
        "stored rays are primitive lattice vectors",
        True,
        all(linalg.primitive_vector(ray) == ray for ray in cone.rays),
    )

    disc = discriminant(order)
    _check(
        checks,
        "log-centre-divisor",
        "boundary divisor read off the ramified order",
        "1/2*D_rho",
        disc,
    )
    boundary_ok = pair.boundary.coeffs[0] == disc.coefficient("D_rho") and all(
        c == 0 for c in pair.boundary.coeffs[1:]
    )
    _check(
        checks,
        "boundary-matches-discriminant",
        "toric boundary coefficients equal the order's discriminant",
        True,
        boundary_ok,
    )

    cover = log_canonical_cover(pair)
    _check(checks, "cover-degree", "index-one cover degree", 2, cover.degree)
    _check(
        checks,
        "cover-lattice-standard",
        "cover lattice is the full integer lattice",
        True,
        cover.cover_lattice.same_lattice(Lattice.standard(3)),
    )
    _check(
        checks,
        "cover-rays",
        "cover rays in cover lattice coordinates",
        "[[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]]",
        _fmt_vectors(cover.cover_cone.rays),
    )
    _check(
        checks,
        "cover-matches-document",
        "computed cover agrees with the bundled cover object",
        True,
        cover.cover_cone.rays == expected_cover.cone.rays
        and cover.cover_lattice.same_lattice(expected_cover.cone.lattice),
    )
    _check(
        checks,
        "cover-canonical",
        "the cover has canonical singularities",
        True,
        canonical_check(cover.cover_cone, cover.cover_functional),
    )
    # K solved on the cover cone itself: the cover's own functional is integral
    # by construction, so its index would check nothing.
    cover_k = canonical_functional(cover.cover_cone)
    _check(
        checks,
        "cover-gorenstein",
        "canonical class of the cover is Cartier",
        True,
        cover_k is not None and cover_k[1] == 1,
    )
    _check(
        checks,
        "klt-matches-cover-canonical",
        "klt verdict downstairs equals canonical verdict upstairs",
        True,
        cover_correspondence_check(pair),
    )

    base_gens = dual_cone_generators(cone)
    cover_gens = dual_cone_generators(cover.cover_cone)
    _check(
        checks,
        "dual-generators-base",
        "minimal monomial generators of the base coordinate ring",
        "[[-2, 0, 1], [-1, -1, 1], [0, -2, 1], [0, 1, 0], [1, 0, 0]]",
        _fmt_vectors(base_gens),
    )
    _check(
        checks,
        "dual-generators-cover",
        "minimal monomial generators of the cover coordinate ring",
        "[[-1, 0, 1], [0, -1, 1], [0, 1, 0], [1, 0, 0]]",
        _fmt_vectors(cover_gens),
    )
    _check(
        checks,
        "dual-generator-counts",
        "generator counts drop from base to cover",
        [5, 4],
        [len(base_gens), len(cover_gens)],
    )

    _check(
        checks,
        "quiver-relations",
        "rank two quiver arrows satisfy the braid relations",
        True,
        ncpoly.quiver_relations_hold(),
    )
    _check(
        checks,
        "invariant-presentation",
        "centre presentation collapses under x=a^2, y=ab, z=b^2",
        True,
        ncpoly.invariant_presentation_holds(),
    )
    return CaseStudyReport("francia", tuple(checks))


def _clifford_report() -> CaseStudyReport:
    doc = clifford_input_document()
    order = doc.objects["clifford-order"]
    system = doc.objects["clifford-algebra"]
    a, b, c = (NCPoly.generator(x) for x in "abc")
    checks: list = []

    _check(
        checks,
        "radical-relation-normal-form",
        "normal form of b*a",
        "a*b - 2*c^3",
        normal_form(b * a, system),
    )
    _check(
        checks,
        "anticommute-ca",
        "c anticommutes with a",
        "0",
        normal_form(c * a + a * c, system),
    )
    _check(
        checks,
        "anticommute-cb",
        "c anticommutes with b",
        "0",
        normal_form(c * b + b * c, system),
    )

    _check(checks, "centre-a2", "a^2 is central", True, is_central(a * a, system))
    _check(checks, "centre-b2", "b^2 is central", True, is_central(b * b, system))
    _check(
        checks,
        "centre-ab-plus-ba",
        "ab + ba is central",
        True,
        is_central(a * b + b * a, system),
    )
    _check(checks, "centre-c2", "c^2 is central", True, is_central(c * c, system))
    _check(checks, "c-not-central", "c itself is not central", False, is_central(c, system))

    commutator = a * b - b * a
    _check(
        checks,
        "commutator-square",
        "(ab - ba)^2 - 4c^6 reduces to zero",
        "0",
        normal_form(commutator * commutator - 4 * c**6, system),
    )
    anticommutator = a * b + b * a
    _check(
        checks,
        "centre-relation",
        "(ab + ba)^2 - 4a^2b^2 - 4c^6 reduces to zero",
        "0",
        normal_form(anticommutator * anticommutator - 4 * (a * a) * (b * b) - 4 * c**6, system),
    )

    round_trip = iodoc.loads(iodoc.serialize_document(doc))
    _check(
        checks,
        "presentation-round-trip",
        "document survives serialize/parse unchanged",
        True,
        round_trip.objects == doc.objects,
    )

    resolution = (
        (-c, 0, -a),
        (0, c, b),
        (-b, a, -2 * c**2),
    )
    left = matrix_compose(((b, a, c),), resolution, system)
    _check(
        checks,
        "resolution-left-composition",
        "row (b a c) composes with the middle matrix to zero",
        "[0, 0, 0]",
        "[" + ", ".join(str(p) for p in left[0]) + "]",
    )
    right = matrix_compose(resolution, ((a,), (b,), (c,)), system)
    _check(
        checks,
        "resolution-right-composition",
        "middle matrix composes with column (a b c) to zero",
        "[0, 0, 0]",
        "[" + ", ".join(str(row[0]) for row in right) + "]",
    )

    _check(
        checks,
        "discriminant",
        "discriminant divisor of the matching order",
        "1/2*B",
        discriminant(order),
    )
    graded = cover_graded_valuations(2, 2)
    _check(
        checks,
        "graded-centre-valuations",
        "valuations of the graded pieces of the centre",
        "[0, 0]",
        str(list(graded)),
    )
    matrix_model = tuple(
        valmat.centralizer(valmat.omega_power(2, i)) for i in range(2)
    )
    _check(
        checks,
        "graded-centre-matches-matrix-model",
        "graded valuations agree with the matrix order model",
        True,
        graded == matrix_model,
    )
    return CaseStudyReport("clifford", tuple(checks))


# Case study name -> (input document, report).
_CASE_STUDY_TABLE = {
    "francia": (francia_input_document, _francia_report),
    "clifford": (clifford_input_document, _clifford_report),
}
CASE_STUDIES = tuple(_CASE_STUDY_TABLE)


def _case_study(name: str) -> tuple:
    entry = _CASE_STUDY_TABLE.get(name)
    if entry is None:
        raise InputError(f"unknown case study {name!r}; available: {', '.join(CASE_STUDIES)}")
    return entry


def run_case_study(name: str) -> CaseStudyReport:
    return _case_study(name)[1]()


def input_document(name: str) -> InputDocument:
    return _case_study(name)[0]()
