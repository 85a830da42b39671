"""Schema-only self-test of the benchmark; it never gates on a timing.

    python3 perfbench/selftest.py [WORKLOAD ...]

Checks that BENCHMARK.json keeps its contract and names the metrics run.py
prints; that each workload's last output line, untraced and traced, is one
JSON object with exactly the expected keys, metric names and units, and
finite numbers; and that the benchmark exits non-zero without printing a
result where no logcentre sources are present. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message: str) -> None:
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def check_benchmark_json() -> dict:
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        fail("BENCHMARK.json workloads differ from workloads.NAMES")
    if any(set(w) != {"name", "why"} or len(w["why"]) > 200 for w in spec["workloads"]):
        fail("a workload entry needs exactly a name and a why of at most 200 characters")
    if not isinstance(spec["run_seconds"], int) or not 1 <= spec["run_seconds"] <= 60:
        fail("run_seconds must be a whole number from 1 to 60")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics + spec["workloads"]]
    if len(set(names)) != len(names) or not all(NAME.match(n) for n in names):
        fail("metric and workload names must be unique and well formed")
    for metric in spec["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"} or not 0 < metric["bound"] <= 0.25:
            fail(f"end_to_end entry {metric}")
    for metric in spec["per_layer"]:
        if set(metric) != {"name", "unit", "better"}:
            fail(f"per_layer entry {metric}")
    for metric in metrics:
        if not UNIT.match(metric["unit"]) or metric["better"] not in ("higher", "lower"):
            fail(f"unit or direction of {metric['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("end_to_end needs setup_s in s, lower is better")
    if setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must have the largest bound")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        fail("end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(run.PER_LAYER):
        fail("per_layer differs from run.PER_LAYER")
    return spec


def check_result(line: str, expected, where: str) -> dict:
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"{where}: last line is not JSON: {line[:200]!r}")
    if set(result) != RESULT_KEYS:
        fail(f"{where}: result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail(f"{where}: correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            fail(f"{where}: {key} is not a whole number")
    if result["attempted"] < 1 or result["failed"] > result["attempted"]:
        fail(f"{where}: attempted {result['attempted']} failed {result['failed']}")
    metrics = result["metrics"]
    names = {name for name, _ in expected}
    if set(metrics) != names:
        fail(f"{where}: metric names {sorted(set(metrics) ^ names)} differ")
    for name, unit in expected:
        entry = metrics[name]
        if set(entry) != {"value", "unit"} or entry["unit"] != unit:
            fail(f"{where}: {name} entry {entry}")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail(f"{where}: {name} value {value!r}")
        if not math.isfinite(value):
            fail(f"{where}: {name} value {value!r}")
    return result


def check_workload(name: str) -> None:
    for trace, expected in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, check=False,
        )
        where = f"{name} --trace {trace}"
        if done.returncode != 0:
            fail(f"{where}: exit {done.returncode}: {done.stderr[-500:]}")
        lines = done.stdout.splitlines()
        result = check_result(lines[-1], expected, where)
        for metric, unit in expected:
            prefix, suffix = f"{name} {metric} ", f" {unit}"
            if not any(line.startswith(prefix) and line.endswith(suffix) for line in lines):
                fail(f"{where}: no text line for {metric}")
        print(f"selftest: {where}: schema ok "
              f"(correct={result['correct']}, attempted={result['attempted']})")


def check_without_sources() -> None:
    workloads.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.SCRATCH) as bare:
        shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", workloads.NAMES[0], "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
    if done.returncode == 0 or '"metrics"' in done.stdout:
        fail("run.py must fail without printing a result where src/logcentre is missing")
    print("selftest: without sources: exits", done.returncode)


def main() -> int:
    check_benchmark_json()
    check_without_sources()
    for name in sys.argv[1:] or workloads.NAMES:
        check_workload(name)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
