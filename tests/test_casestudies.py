import pytest

from logcentre.casestudies import (
    CASE_STUDIES,
    CaseStudyReport,
    CheckResult,
    input_document,
    run_case_study,
)
from logcentre.errors import InputError
from logcentre.toric import CoverResult


def test_case_studies_all_pass():
    for name in CASE_STUDIES:
        report = run_case_study(name)
        assert report.overall, [c.check_id for c in report.checks if not c.passed]


def test_check_counts():
    assert len(run_case_study("francia").checks) == 19
    assert len(run_case_study("clifford").checks) == 16


def test_check_ids_unique():
    for name in CASE_STUDIES:
        ids = [c.check_id for c in run_case_study(name).checks]
        assert len(ids) == len(set(ids))


def test_unknown_case_study():
    with pytest.raises(InputError):
        run_case_study("mystery")
    with pytest.raises(InputError):
        input_document("mystery")


def test_report_dict_shape():
    report = run_case_study("clifford")
    data = report.to_dict()
    assert data["name"] == "clifford"
    assert data["overall"] is True
    for entry in data["checks"]:
        assert set(entry) == {"id", "description", "expected", "actual", "passed"}


def test_report_text_marks_failures():
    report = CaseStudyReport(
        "demo",
        (
            CheckResult("good", "works", "1", "1", True),
            CheckResult("bad", "breaks", "1", "2", False),
        ),
    )
    assert not report.overall
    text = report.to_text()
    assert text.splitlines()[0] == "case study: demo"
    assert "  [ok] good: works: 1" in text
    assert "  [FAIL] bad: breaks: 2 (expected 1)" in text
    assert text.splitlines()[-1] == "overall: fail"


def test_cover_gorenstein_solves_k_on_the_cover_cone(monkeypatch):
    # The check reads K off the cover cone itself: a cover whose cone is the
    # base cone, where K is not Q-Cartier, fails it, although the functional
    # the cover carries is integral.
    from logcentre import casestudies

    build = casestudies.log_canonical_cover

    def base_cone_cover(pair):
        cover = build(pair)
        return CoverResult(cover.cover_lattice, pair.cone, cover.degree, cover.cover_functional)

    monkeypatch.setattr(casestudies, "log_canonical_cover", base_cone_cover)
    checks = {check.check_id: check for check in run_case_study("francia").checks}
    assert (checks["cover-gorenstein"].actual, checks["cover-gorenstein"].passed) == ("False", False)


def test_input_documents_have_expected_objects():
    doc = input_document("francia")
    assert set(doc.objects) == {"base", "cover", "francia-order"}
    doc = input_document("clifford")
    assert set(doc.objects) == {"clifford-order", "clifford-algebra"}
