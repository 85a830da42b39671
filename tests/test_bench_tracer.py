"""The benchmark tracer (perfbench/spans.py) wraps named functions and the
``__post_init__`` hooks of value classes by attribute lookup, so renaming or
deleting one breaks ``perfbench/run.py --trace 1``. This checks that every
target still resolves."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert set(spans.TARGETS) <= set(spans.LAYERS)
    for layer in spans.LAYERS:
        module = importlib.import_module(f"logcentre.{layer}")
        for owner, attr, _, _ in spans._targets(layer, module):
            if owner is None:
                assert callable(getattr(module, attr, None)), f"{layer}.{attr}"
            else:
                assert attr in vars(getattr(module, owner)), f"{layer}.{owner}.{attr}"
