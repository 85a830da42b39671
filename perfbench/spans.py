"""In-memory spans around the public functions of each logcentre module.

A :class:`Tracer` replaces a function by a wrapper in every loaded
``logcentre`` module that holds it, because ``cli``, ``corpus``, ``iodoc`` and
``casestudies`` bind names with ``from ... import`` and would otherwise keep
calling the unwrapped original. Dataclass hooks (``Cone.__post_init__``,
``RewriteSystem.__post_init__``) are wrapped on their class, where the
generated ``__init__`` looks them up. A module imported after ``install`` is
wrapped as soon as it has loaded, so the tracer never imports anything itself.

Each span is ``[name, start, end, parent, op, counters]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``op`` the operation id the
caller set (-1 during set-up, -2 while the benchmark checks an output, -3
while it builds the objects of a pass). Start and end are CPU seconds of the
process, the clock ``run.py`` times operations with. Self time is a span's
duration minus the durations of its direct children; spans never overlap
because the load is one single-threaded process.
"""

from __future__ import annotations

import importlib.abc
import json
import statistics
import sys
from time import process_time

SETUP_OP = -1
CHECK_OP = -2  # the benchmark's own output checks, excluded from every metric
RENEW_OP = -3  # the benchmark rebuilding a pass's objects, likewise excluded

LAYERS = (
    "linalg",
    "valmat",
    "orders",
    "toric",
    "ncpoly",
    "iodoc",
    "corpus",
    "casestudies",
    "cli",
)


def _box_points(args, result):
    cone = args[0]
    count = 1
    for i in range(cone.dim):
        lo = sum(min(0, ray[i]) for ray in cone.rays)
        hi = sum(max(0, ray[i]) for ray in cone.rays)
        count *= hi - lo + 1
    return {"box_points": count, "basis_size": len(result)}


def _terms(args, result):
    return {"terms_in": len(args[0].terms()), "terms_out": len(result.terms())}


def _public_functions(module):
    return tuple(
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and callable(value)
        and getattr(value, "__module__", None) == module.__name__
        and not isinstance(value, type)
    )


# Per module: (owner name or None, attribute, span name, counter). The
# public functions of linalg and orders are added when the module is wrapped.
TARGETS = {
    "toric": (
        (None, "hilbert_basis", "toric.hilbert_basis", _box_points),
        (None, "canonical_check", "toric.canonical", None),
        (None, "q_cartier_functional", "toric.qcartier", None),
        (None, "log_canonical_cover", "toric.cover", None),
        (None, "pair_functional", "toric.pair_functional", None),
        ("Cone", "__post_init__", "toric.cone_build", None),
    ),
    "corpus": ((None, "random_standard_pairs", "corpus.generate", None),),
    "ncpoly": (
        (None, "parse_poly", "ncpoly.parse", None),
        (None, "normal_form", "ncpoly.normal_form", _terms),
        ("RewriteSystem", "__post_init__", "ncpoly.system_build", None),
    ),
    "valmat": (
        (None, "centralizer", "valmat.centralizer", None),
        (None, "tropical_mul", "valmat.tropical_mul", None),
    ),
    "iodoc": (
        (None, "loads", "iodoc.load", None),
        (None, "load_path", "iodoc.load", None),
        (None, "serialize_document", "iodoc.serialize", None),
    ),
    "casestudies": ((None, "run_case_study", "casestudies.run", None),),
    "cli": ((None, "main", "cli.main", None),),
}


def _targets(layer, module):
    if layer in ("linalg", "orders"):
        return tuple((None, name, layer, None) for name in _public_functions(module))
    return TARGETS.get(layer, ())


class _AfterImport(importlib.abc.MetaPathFinder):
    """Calls `then()` each time a logcentre module has finished executing;
    `executing` names the ones still running their module code."""

    def __init__(self, then):
        self.then = then
        self.executing: set = set()

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith("logcentre."):
            return None
        for finder in sys.meta_path:
            find = getattr(finder, "find_spec", None)
            spec = None if finder is self or find is None else find(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_then(module):
            self.executing.add(fullname)
            try:
                exec_module(module)
            finally:
                self.executing.discard(fullname)
            self.then()

        spec.loader.exec_module = exec_then
        return spec


class Tracer:
    """Collects spans while installed; `op` tags the spans of one operation."""

    def __init__(self):
        self.spans: list = []
        self.op = SETUP_OP
        self._stack: list = []
        self._undo: list = []
        self._wrapped: set = set()
        self._hook = None

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(record)
            stack.append(index)
            record[1] = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = process_time()
                stack.pop()
            if counter is not None:
                record[5] = counter(args, result)
            return result

        traced.__wrapped__ = fn
        traced.tracer = self
        return traced

    def install(self) -> None:
        """Wrap the layers loaded now, and each one when it is first imported.

        Nothing is imported here, so an import the code under test defers
        still happens, and is timed, where that code makes it."""
        self._hook = _AfterImport(self._wrap_loaded)
        sys.meta_path.insert(0, self._hook)
        self._wrap_loaded()

    def _wrap_loaded(self) -> None:
        executing = self._hook.executing if self._hook is not None else ()
        for layer in LAYERS:
            name = f"logcentre.{layer}"
            module = sys.modules.get(name)
            # A module whose code is still running (it is importing another)
            # is wrapped when it finishes.
            if layer in self._wrapped or module is None or name in executing:
                continue
            self._wrapped.add(layer)
            for owner, attr, span, counter in _targets(layer, module):
                self._wrap_target(module, owner, attr, span, counter)

    def _wrap_target(self, module, owner, attr, span, counter) -> None:
        if owner is not None:
            cls = getattr(module, owner)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(span, original, counter))
            self._undo.append((cls, attr, original))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(span, original, counter)
        for name, loaded in list(sys.modules.items()):
            if name.startswith("logcentre") and getattr(loaded, attr, None) is original:
                setattr(loaded, attr, wrapper)
                self._undo.append((loaded, attr, original))

    def uninstall(self) -> None:
        if self._hook is not None:
            sys.meta_path.remove(self._hook)
            self._hook = None
        self._wrapped.clear()
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        # A module imported while installed took wrappers by `from ... import`.
        for name, module in list(sys.modules.items()):
            if name.startswith("logcentre"):
                for attr, value in list(vars(module).items()):
                    if getattr(value, "tracer", None) is self:
                        setattr(module, attr, value.__wrapped__)

    def extend(self, spans, op) -> None:
        """Append spans recorded by another process, re-tagged with `op`."""
        base = len(self.spans)
        for name, start, end, parent, _, counters in spans:
            parent = parent + base if parent >= 0 else -1
            self.spans.append([name, start, end, parent, op, counters])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def aggregate(spans, own, ops, lo=0, hi=None) -> dict:
    """Per span name: entries into it, self seconds and summed counters.

    An entry is a span whose parent has another name, so nested calls within
    one layer (``linalg.rank`` calling ``linalg.rref``) count once.
    """
    totals: dict = {}
    for index in range(lo, len(spans) if hi is None else hi):
        name, start, end, parent, op, counters = spans[index]
        if op not in ops:
            continue
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
        outer = parent < 0 or spans[parent][0] != name
        if outer:
            entry["calls"] += 1
            entry["wall_s"] += end - start
        entry["self_s"] += own[index]
        for key, value in (counters or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals


def layer_metrics(setup: dict, passes: list) -> dict:
    """Set-up totals plus the median traced pass, per span name and field."""
    names = set(setup)
    for totals in passes:
        names.update(totals)
    merged: dict = {}
    for name in names:
        fields = set(setup.get(name, {}))
        for totals in passes:
            fields.update(totals.get(name, {}))
        merged[name] = {
            field: setup.get(name, {}).get(field, 0)
            + (statistics.median(t.get(name, {}).get(field, 0) for t in passes) if passes else 0)
            for field in fields
        }
    return merged
