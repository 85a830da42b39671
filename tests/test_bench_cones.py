"""The benchmark's `cones` workload and the `toric` CLI pins, each run once and untimed.

``perfbench/run.py`` checks every `cones` op against a closed form (Reid-Tai
for the quotients, the rectangle points for the Gorenstein cones) and every
CLI op against the exit code and stdout SHA-256 pinned in
``perfbench/pins.json``. This runs the `cones` checks for seeds 1-5, and
every `toric` pin in-process through ``cli.main`` on documents written to a
temporary directory, so a wrong verdict, basis or output byte fails the test
suite, not only a benchmark run. ``perfbench/`` is imported read-only.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from logcentre import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


@pytest.mark.parametrize("seed", range(1, 6))
def test_cones_workload_checks_pass(workloads, seed):
    workload = workloads.build("cones", seed)
    assert workload.ops
    failed = [op.label for op in workload.ops if not op.check(op.run())]
    assert failed == []


def test_toric_cli_pins_hold_in_process(workloads, tmp_path):
    workloads.write_cli_documents(tmp_path)
    pins = [entry for entry in workloads.load_pins()["cli"] if entry["group"] == "toric"]
    assert pins
    mismatched = []
    for entry in pins:
        argv = workloads.cli_argv(entry["argv"], tmp_path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        digest = workloads.digest(out.getvalue().encode("utf-8"))
        if (code, digest) != (entry["exit"], entry["stdout_sha256"]):
            mismatched.append(" ".join(entry["argv"]))
    assert mismatched == []
