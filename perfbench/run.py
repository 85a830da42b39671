"""logcentre benchmark: seeded closed-loop workloads, checked outputs, spans.

    python3 perfbench/run.py --workload corpus|cones|rewrite|cli|all \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout whose ``src/logcentre`` is the code under
test; nothing needs installing. One process drives the load: the next
operation starts when the previous one ends, and in ``cli`` the children run
one at a time. A run repeats whole passes over the workload's operations
until ``--seconds`` have passed and at least ``MIN_OPS`` operations are done,
so that ten samples lie beyond p90 and every run measures the same mix.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics: calls, self time and
counters of each layer's spans, for set-up plus the median traced pass, and
``trace.overhead_frac``. Every output line names its metric and unit; the last
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See README.md beside this file for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import refs
import spans
import workloads

MIN_OPS = 100
# The host-speed reference: REFERENCE_REPS runs of `_reference_work`, timed
# every REFERENCE_EVERY_S or so during a pass and around every set-up.
# Latencies are scaled by REFERENCE_S over its measured time, so they read as
# on a host where it takes REFERENCE_S. On the shared machine this was tuned
# on, the CPU time of the same pass moved by a third over minutes; the
# reference moves with it.
REFERENCE_REPS = 3
REFERENCE_S = 0.06
REFERENCE_EVERY_S = 2.0
SETUP_PROBES = 3
SETUP_PROBE_SECONDS = 3.0
START_PROBES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
)

# (metric, unit, span name, field); fields come from spans.aggregate.
SPAN_METRICS = (
    ("toric.hilbert_basis.calls", "count", "toric.hilbert_basis", "calls"),
    ("toric.hilbert_basis.self_s", "s", "toric.hilbert_basis", "self_s"),
    ("toric.hilbert_basis.box_points", "count", "toric.hilbert_basis", "box_points"),
    ("toric.hilbert_basis.basis_size", "count", "toric.hilbert_basis", "basis_size"),
    ("toric.canonical.self_s", "s", "toric.canonical", "self_s"),
    ("toric.qcartier.calls", "count", "toric.qcartier", "calls"),
    ("toric.qcartier.self_s", "s", "toric.qcartier", "self_s"),
    ("toric.cover.calls", "count", "toric.cover", "calls"),
    ("toric.cover.self_s", "s", "toric.cover", "self_s"),
    ("toric.cone_build.calls", "count", "toric.cone_build", "calls"),
    ("toric.cone_build.self_s", "s", "toric.cone_build", "self_s"),
    ("linalg.calls", "count", "linalg", "calls"),
    ("linalg.self_s", "s", "linalg", "self_s"),
    ("ncpoly.parse.calls", "count", "ncpoly.parse", "calls"),
    ("ncpoly.parse.self_s", "s", "ncpoly.parse", "self_s"),
    ("ncpoly.normal_form.calls", "count", "ncpoly.normal_form", "calls"),
    ("ncpoly.normal_form.self_s", "s", "ncpoly.normal_form", "self_s"),
    ("ncpoly.normal_form.terms_in", "count", "ncpoly.normal_form", "terms_in"),
    ("ncpoly.normal_form.terms_out", "count", "ncpoly.normal_form", "terms_out"),
    ("ncpoly.system_build.self_s", "s", "ncpoly.system_build", "self_s"),
    ("valmat.centralizer.calls", "count", "valmat.centralizer", "calls"),
    ("valmat.centralizer.self_s", "s", "valmat.centralizer", "self_s"),
    ("valmat.tropical_mul.calls", "count", "valmat.tropical_mul", "calls"),
    ("valmat.tropical_mul.self_s", "s", "valmat.tropical_mul", "self_s"),
    ("orders.self_s", "s", "orders", "self_s"),
    ("iodoc.load.calls", "count", "iodoc.load", "calls"),
    ("iodoc.load.self_s", "s", "iodoc.load", "self_s"),
    ("iodoc.serialize.calls", "count", "iodoc.serialize", "calls"),
    ("iodoc.serialize.self_s", "s", "iodoc.serialize", "self_s"),
    ("casestudies.run.self_s", "s", "casestudies.run", "self_s"),
)

PER_LAYER = (
    *((name, unit) for name, unit, _, _ in SPAN_METRICS[:4]),
    ("toric.hilbert_basis.yield", "fraction"),
    *((name, unit) for name, unit, _, _ in SPAN_METRICS[4:]),
    ("corpus.generate_s", "s"),
    ("corpus.pairs", "count"),
    ("corpus.cover_attempts", "count"),
    ("corpus.accept_ratio", "fraction"),
    ("cli.interp_start_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main_s", "s"),
    ("trace.overhead_frac", "fraction"),
)


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(workloads.ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"],
            env=env, capture_output=True, text=True, check=False,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _child(argv) -> str:
    done = subprocess.run(
        [sys.executable, *argv], env=workloads.child_env(), cwd=workloads.ROOT,
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return done.stdout


def _setup_probes(name: str, seed: int) -> list:
    """Set-up CPU seconds (import, generation, construction) in fresh
    interpreters: at least SETUP_PROBES of them and SETUP_PROBE_SECONDS of
    probing, so that a cheap set-up gets enough samples for a steady median."""
    argv = [str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-probe"]
    samples = []
    start = perf_counter()
    while len(samples) < SETUP_PROBES or perf_counter() - start < SETUP_PROBE_SECONDS:
        samples.append(float(_child(argv).split()[-1]))
    return samples


def _start_probes(record_dir: Path) -> tuple:
    """Median CPU seconds of a bare interpreter and of `import logcentre.cli`."""
    bare, imports = [], []
    record = record_dir / "import.json"
    for _ in range(START_PROBES):
        start = children_cpu_time()
        _child(["-c", "pass"])
        bare.append(children_cpu_time() - start)
        _child([str(workloads.CHILD), str(record)])
        imports.append(json.loads(record.read_text(encoding="utf-8"))["import_s"])
    return statistics.median(bare), statistics.median(imports)


def _reference_work() -> None:
    """Fixed pure-Python work on integers, Fractions, tuples, dicts and sets,
    the kinds logcentre computes with, done by the benchmark's own closed
    forms so that no change to logcentre can move it."""
    for r, a, b in refs.cyclic_quotients(29):
        refs.reid_tai_canonical(r, (1, a, b))
    refs.quantum_binomial(60, 2, Fraction(1, 2), 3)
    refs.rectangle_points(60, 60)


def reference_seconds() -> float:
    """CPU seconds of REFERENCE_REPS runs of the reference work."""
    start = process_time()
    for _ in range(REFERENCE_REPS):
        _reference_work()
    return process_time() - start


def children_cpu_time() -> float:
    """CPU seconds of the waited-for children, user plus system."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def op_clock(name: str):
    """The clock an op's latency is read from: CPU time of the process doing
    the work, so that time the host gives to others is left out. The ops are
    single-threaded and compute-bound, so on an idle machine it reads as
    wall time; cli children run one at a time, so their total grows only by
    the child of the current op."""
    return children_cpu_time if name == "cli" else process_time


class Loop:
    """Runs passes over the operations, timing each `run` and checking it."""

    def __init__(self, workload, clock):
        self.workload = workload
        self.clock = clock
        self.references: list = []
        _reference_work()  # warm, so the first pass's reference is not a cold one
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.main_s: list = []

    def _record(self, op, ok, why="wrong output") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.kind} {op.label}: {why}")

    def run_for(self, seconds: float) -> list:
        """Latencies per pass of whole passes, run until `seconds` pass and
        MIN_OPS are done, so that every run measures the same mix of ops."""
        passes = []
        start = perf_counter()
        while perf_counter() - start < seconds or sum(map(len, passes)) < MIN_OPS:
            passes.append(self.run_pass())
        return passes

    def _timed(self, op, run, tracer=None) -> float:
        """Seconds `run` took; the output is checked after the clock stops."""
        clock = self.clock
        start = clock()
        try:
            out = run()
        except Exception as exc:  # a refused or crashed operation counts as failed
            elapsed = clock() - start
            self._record(op, False, f"{type(exc).__name__}: {exc}")
            return elapsed
        elapsed = clock() - start
        if tracer is not None:
            tracer.op = spans.CHECK_OP
        self._record(op, op.check(out))
        return elapsed

    def run_pass(self, tracer=None, record_dir=None) -> list:
        """One pass in list order on new objects; spans are tagged with the
        op's index.

        With `record_dir` (cli), each op runs under cli_child.py and the
        spans it records are merged into `tracer`. The host speed is measured
        at the start and after each op that ends REFERENCE_EVERY_S or more
        after the last measurement; the latencies in between are scaled by
        the mean of the two measurements around them."""
        if tracer is not None:
            tracer.op = spans.RENEW_OP
        self.workload.renew()
        ops = self.workload.ops
        scaled, segment = [], []
        last, mark = reference_seconds(), perf_counter()
        for index, op in enumerate(ops):
            if record_dir is None:
                if tracer is not None:
                    tracer.op = index
                segment.append(self._timed(op, op.run, tracer))
            else:
                record = record_dir / "op.json"
                record.unlink(missing_ok=True)
                segment.append(self._timed(op, lambda: op.run_traced(record)))
                if record.exists():
                    child = json.loads(record.read_text(encoding="utf-8"))
                    tracer.extend(child["spans"], index)
                    self.main_s.append(child["main_s"])
            if perf_counter() - mark >= REFERENCE_EVERY_S or index == len(ops) - 1:
                now = reference_seconds()
                reference = (last + now) / 2
                self.references.append(reference)
                scaled += [t * REFERENCE_S / reference for t in segment]
                segment, last, mark = [], now, perf_counter()
        return scaled


def _end_to_end(name: str, seed: int, seconds: float, loop) -> dict:
    passes = loop.run_for(seconds)
    samples = [t for times in passes for t in times]
    # Read before the set-up probes start, so that for cli the peak is that
    # of the logcentre children alone.
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setup = _setup_probes(name, seed)
    deciles = statistics.quantiles(samples, n=10)
    return {
        "setup_s": statistics.median(setup),
        # The median pass, so that a stall of a second or two in one pass
        # does not move the run's throughput.
        "ops_per_s": statistics.median(len(times) / sum(times) for times in passes),
        "op_p50_ms": deciles[4] * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1 - loop.failed / max(loop.attempted, 1),
    }, {
        "passes": len(passes),
        "samples": len(samples),
        "beyond_p90": sum(t > deciles[8] for t in samples),
        "setup_samples": setup,
    }


def _traced(name: str, seconds: float, workload, loop, tracer, record_dir: Path) -> tuple:
    untraced, traced, bounds = [], [], []
    start = perf_counter()
    while perf_counter() - start < seconds or not traced:
        untraced.append(sum(loop.run_pass()))
        first = len(tracer.spans)
        if name == "cli":
            times = loop.run_pass(tracer, record_dir)
        else:
            tracer.install()
            try:
                times = loop.run_pass(tracer)
            finally:
                tracer.uninstall()
        traced.append(sum(times))
        bounds.append((first, len(tracer.spans)))
    own = spans.self_times(tracer.spans)
    setup = spans.aggregate(tracer.spans, own, {spans.SETUP_OP})
    ops = set(range(len(workload.ops)))
    passes = [spans.aggregate(tracer.spans, own, ops, lo, hi) for lo, hi in bounds]
    layers = spans.layer_metrics(setup, passes)
    metrics = {}
    for metric, _, span_name, field in SPAN_METRICS:
        metrics[metric] = layers.get(span_name, {}).get(field, 0)
    hb = layers.get("toric.hilbert_basis", {})
    box = hb.get("box_points", 0)
    metrics["toric.hilbert_basis.yield"] = hb["basis_size"] / box if box else 0.0
    # The generator asks for the -(K+D) functional of every full-rank
    # simplicial candidate before it tries the cover, so those calls made
    # directly under its span count the attempts.
    generate = setup.get("corpus.generate", {})
    attempts = sum(
        1
        for span_name, _, _, parent, _, _ in tracer.spans
        if span_name == "toric.pair_functional"
        and parent >= 0
        and tracer.spans[parent][0] == "corpus.generate"
    )
    metrics["corpus.generate_s"] = generate.get("wall_s", 0.0)
    metrics["corpus.pairs"] = workload.info.get("pairs", 0)
    metrics["corpus.cover_attempts"] = attempts
    metrics["corpus.accept_ratio"] = workload.info["simplicial"] / attempts if attempts else 0.0
    metrics["cli.interp_start_s"], metrics["cli.import_s"] = _start_probes(record_dir)
    metrics["cli.main_s"] = statistics.median(loop.main_s) if loop.main_s else 0.0
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    return metrics, {"passes": len(traced) + len(untraced)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    info = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "python": platform.python_version(), "nproc": os.cpu_count(), "commit": _commit(),
    }
    tracer = spans.Tracer()
    if trace:
        tracer.install()
    try:
        workload = workloads.build(name, seed)
    finally:
        tracer.uninstall()
    if name == "cli" and hasattr(os, "sched_setaffinity"):
        # The reference is timed in this process and the ops in its children:
        # one CPU for all, so that it measures the CPU the children run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workloads.SCRATCH.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix="records-", dir=workloads.SCRATCH) as records:
            loop = Loop(workload, op_clock(name))
            if trace:
                metrics, extra = _traced(name, seconds, workload, loop, tracer, Path(records))
                units = PER_LAYER
                dump = workloads.SCRATCH / f"spans-{name}-{seed}.jsonl"
                tracer.dump(dump)
                extra["spans_file"] = str(dump.relative_to(workloads.ROOT))
            else:
                metrics, extra = _end_to_end(name, seed, seconds, loop)
                units = END_TO_END
    finally:
        workload.close()
    info.update(workload.info, attempted=loop.attempted, failed=loop.failed,
                reference_s=statistics.median(loop.references), **extra)
    print("# " + json.dumps(info, sort_keys=True))
    for failure in loop.failures:
        print(f"# failed: {failure}", file=sys.stderr)
    for metric, unit in units:
        print(f"{name} {metric} {metrics[metric]:.6g} {unit}")
    if not trace:
        print(f"{name} failed_frac {loop.failed / max(loop.attempted, 1):.6g} fraction")
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit} for metric, unit in units},
    }


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "logcentre" / "__init__.py").is_file():
        print(f"error: no logcentre sources under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    if args.setup_probe:
        _reference_work()
        before = reference_seconds()
        start = process_time()
        workloads.build(args.workload, args.seed).close()
        elapsed = process_time() - start
        print(elapsed * REFERENCE_S * 2 / (before + reference_seconds()))
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
