"""The benchmark's `rewrite` workload, each op run once and untimed.

``perfbench/run.py`` checks every op's output against a pinned or closed-form
reference the code under test does not produce; this runs those checks for
seeds 1-5, so a wrong normal form or verdict fails the test suite, not only a
benchmark run. ``perfbench/`` is imported read-only."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


@pytest.mark.parametrize("seed", range(1, 6))
def test_rewrite_workload_checks_pass(workloads, seed):
    workload = workloads.build("rewrite", seed)
    assert workload.ops
    failed = [op.label for op in workload.ops if not op.check(op.run())]
    assert failed == []
