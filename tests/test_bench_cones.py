"""The benchmark's `cones` workload and the CLI pins, each run once and untimed.

``perfbench/run.py`` checks every `cones` op against a closed form (Reid-Tai
for the quotients, the rectangle points for the Gorenstein cones) and every
CLI op against the exit code and stdout SHA-256 pinned in
``perfbench/pins.json``. This runs the `cones` checks for seeds 1-5, and
every CLI pin of every command group in-process through ``cli.main`` on
documents written to a temporary directory, so a wrong verdict, basis,
report or output byte fails the test suite, not only a benchmark run.
``perfbench/`` is imported read-only.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from logcentre import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# The pinned command groups besides toric, read from pins.json so that a new group is checked.
OTHER_GROUPS = [
    group
    for group in dict.fromkeys(
        entry["group"] for entry in json.loads((PERFBENCH / "pins.json").read_text())["cli"]
    )
    if group != "toric"
]


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


def _mismatched_pins(workloads, directory, group):
    """The argv of each pin of the group whose exit code or stdout differs."""
    workloads.write_cli_documents(directory)
    pins = [entry for entry in workloads.load_pins()["cli"] if entry["group"] == group]
    assert pins
    mismatched = []
    for entry in pins:
        argv = workloads.cli_argv(entry["argv"], directory)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        digest = workloads.digest(out.getvalue().encode("utf-8"))
        if (code, digest) != (entry["exit"], entry["stdout_sha256"]):
            mismatched.append(" ".join(entry["argv"]))
    return mismatched


def test_toric_cli_pins_hold_in_process(workloads, tmp_path):
    assert _mismatched_pins(workloads, tmp_path, "toric") == []


@pytest.mark.parametrize("group", OTHER_GROUPS)
def test_cli_pins_hold_in_process(workloads, tmp_path, group):
    assert _mismatched_pins(workloads, tmp_path, group) == []
