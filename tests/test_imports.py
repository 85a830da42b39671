"""Every name a module imports is used in it, and every private name in src is read.

No linter ships with the project, so these are two dead-code rules done with
the standard library's ``ast``. A name bound by ``import`` or ``from ...
import`` must be read somewhere in the module; names listed in ``__all__`` and
imports on a line marked ``# noqa: F401`` count as used. A private name (one
leading underscore) that a module of ``src/logcentre`` defines at top level
must be read somewhere in ``src/logcentre`` outside its own definition: tests
do not keep a helper of the program alive. A third rule keeps every limit a
module constant: no module of ``src/logcentre`` reads an environment variable.
A fourth rule does for public names what the second does for private ones: a
public function, class or method of ``src/logcentre`` must be read by the
program, its scripts or its benchmark, not only by tests. A fifth keeps
``logcentre.linalg`` in integers: it imports no ``fractions``. A sixth keeps
private names private: no module of ``src/logcentre`` imports a private name
from another module of the package. A seventh keeps start-up cheap: no module
of ``src/logcentre`` imports ``dataclasses`` or ``typing``. An eighth keeps
code generation in one place: no module of ``src/logcentre`` but ``records``
calls the builtins ``exec``, ``eval`` or ``compile``. A ninth keeps output in
one place: no module of ``src/logcentre`` calls ``print`` outside
``cli._write``, the writer that guards both streams against a closed pipe. A
tenth keeps one integer rule: no module of ``src/logcentre`` calls
``isinstance(..., int)``, which takes a bool for an int; the package checks
``type(x) is int``, and neither does ``tests/oracles.py``. An eleventh keeps the
package exact: no module of ``src/logcentre`` holds a float or complex literal.
A twelfth keeps one shape of limit message: no module of ``src/logcentre`` but
``errors`` calls ``ResourceLimit(...)``; every limit refuses through
``ResourceLimit.over``, which names the limit and its value. A thirteenth
checks each limit once, where its work is: every ``MAX_*`` or ``_MAX_*``
constant of ``src/logcentre`` is read in exactly one function of the package,
and nowhere at module level; a docstring that names it is not a read.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path for folder in ("src/logcentre", "tests", "scripts") for path in (ROOT / folder).rglob("*.py")
)


def _unused_imports(path: Path) -> list:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_files_are_found():
    names = {path.name for path in FILES}
    assert {"cli.py", "test_imports.py", "crosscheck_corpus.py"} <= names


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def _reads(tree) -> Counter:
    """Names read in the tree: loaded names, attributes and imported names."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def _private_definitions(tree):
    """(name, node) for each private name a module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_name_in_src_is_read():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "logcentre").rglob("*.py"))
    }
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unread = [
        f"{path.relative_to(ROOT)} line {node.lineno}: {name}"
        for path, tree in trees.items()
        for name, node in _private_definitions(tree)
        if reads[name] == _reads(node)[name]
    ]
    assert unread == []


def _environment_reads(tree) -> list:
    """Line numbers where the tree reads os.environ or os.getenv, however imported."""
    names = {"environ", "environb", "getenv", "getenvb"}
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in names for alias in node.names))
    ]


def test_src_reads_no_environment_variable():
    # Every limit is a module constant; an environment knob would hide one.
    reads = {
        str(path.relative_to(ROOT)): _environment_reads(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((ROOT / "src" / "logcentre").rglob("*.py"))
    }
    assert {path: lines for path, lines in reads.items() if lines} == {}
    assert _environment_reads(ast.parse("import os\nos.environ.get('X')\n")) == [2]
    assert _environment_reads(ast.parse("from os import getenv\n")) == [1]


def _public_definitions(tree):
    """(qualified name, name, node) for each public top-level function and
    class of the module, and each public method of its top-level classes;
    dunders and names with a leading underscore are skipped."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def _loads(tree) -> Counter:
    """Names read in the tree as a loaded Name or a loaded Attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def test_every_public_name_in_src_is_used_outside_tests():
    """A public name that only tests read is an oracle: it belongs in tests/oracles.py.

    Each public name of src/logcentre must be read, outside its own
    definition, in src/logcentre, scripts/ or perfbench/; perfbench/ is parsed
    from its text, never imported. A read is matched on the bare name, so the
    check is coarse: a method with a common name, such as ``dim``, passes when
    some other object's attribute of that name is read.
    """
    src = sorted((ROOT / "src" / "logcentre").rglob("*.py"))
    others = sorted(
        path for folder in ("scripts", "perfbench") for path in (ROOT / folder).rglob("*.py")
    )
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in src + others}
    reads = sum((_loads(tree) for tree in trees.values()), Counter())
    unread = [
        f"{path.relative_to(ROOT)} line {node.lineno}: {qualified}"
        for path in src
        for qualified, name, node in _public_definitions(trees[path])
        if reads[name] == _loads(node)[name]
    ]
    assert unread == []


def _imported_modules(tree) -> set:
    """Top-level names of the modules the tree imports, however imported."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module.partition(".")[0])
    return modules


def test_linalg_imports_no_fractions():
    # The kernels stay in integers; Fractions are made in toric's public API.
    tree = ast.parse((ROOT / "src" / "logcentre" / "linalg.py").read_text(encoding="utf-8"))
    assert "fractions" not in _imported_modules(tree)
    assert _imported_modules(ast.parse("import fractions.x\nfrom fractions import F\n")) == {
        "fractions"
    }


def test_src_imports_no_dataclasses_or_typing():
    # Value classes derive from logcentre.records.Record and annotations stay
    # strings (from __future__ import annotations), so neither module is needed,
    # and each would cost a logcentre process milliseconds of start-up.
    trees = {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "logcentre").rglob("*.py"))
    }
    banned = {"dataclasses", "typing"}
    imports = {path: sorted(banned & _imported_modules(tree)) for path, tree in trees.items()}
    assert {path: names for path, names in imports.items() if names} == {}


def _private_imports(tree) -> list:
    """Each private name the tree imports from a module of the package, by line."""
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "logcentre")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


def test_src_imports_no_private_name_of_another_module():
    imports = {
        str(path.relative_to(ROOT)): _private_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((ROOT / "src" / "logcentre").rglob("*.py"))
    }
    assert {path: names for path, names in imports.items() if names} == {}
    assert _private_imports(ast.parse("from .orders import _exact, exact\n")) == ["line 1: _exact"]
    assert _private_imports(ast.parse("from logcentre.toric import _pieces\n")) == [
        "line 1: _pieces"
    ]
    assert _private_imports(ast.parse("from os import _exit\nfrom . import errors\n")) == []


def _code_calls(tree) -> list:
    """Each call of the builtin exec, eval or compile in the tree, by line;
    a method of that name, such as ``re.compile``, is not one."""
    return [
        f"line {node.lineno}: {node.func.id}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"exec", "eval", "compile"}
    ]


def test_only_records_generates_code():
    # Record.__init__ is the package's one generated function.
    calls = {
        str(path.relative_to(ROOT)): _code_calls(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((ROOT / "src" / "logcentre").rglob("*.py"))
    }
    assert [line.partition(": ")[2] for line in calls.pop("src/logcentre/records.py")] == ["exec"]
    assert {path: lines for path, lines in calls.items() if lines} == {}
    assert _code_calls(ast.parse("eval('1')\nre.compile('x')\ncompile(s, f, m)\n")) == [
        "line 1: eval", "line 3: compile"
    ]


def _print_calls(tree) -> list:
    """Each call of the builtin print in the tree, by line and enclosing function."""
    calls = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "print"
            ):
                calls.append(f"line {child.lineno}: {function}")
            visit(child, function)

    visit(tree, "<module>")
    return calls


def test_only_cli_write_prints():
    # Every line the package writes goes through cli._write, which survives a
    # reader that closed stdout or stderr early and keeps the exit code.
    calls = {
        str(path.relative_to(ROOT)): _print_calls(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((ROOT / "src" / "logcentre").rglob("*.py"))
    }
    assert [line.partition(": ")[2] for line in calls.pop("src/logcentre/cli.py")] == ["_write"]
    assert {path: lines for path, lines in calls.items() if lines} == {}
    source = "print(1)\ndef f():\n    sys.stdout.print(2)\n    print(3)\n"
    assert _print_calls(ast.parse(source)) == ["line 1: <module>", "line 4: f"]


def _int_checks(tree) -> list:
    """Line numbers of each isinstance(x, int) call in the tree, int alone or
    in a tuple."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and any(isinstance(n, ast.Name) and n.id == "int" for n in ast.walk(node.args[1]))
    )


def test_src_checks_integers_by_type():
    # isinstance(x, int) takes True for 1; every integer check in the package
    # and in the oracles that tests compare it with is type(x) is int, which
    # refuses a bool.
    paths = [*sorted((ROOT / "src" / "logcentre").rglob("*.py")), ROOT / "tests" / "oracles.py"]
    checks = {
        str(path.relative_to(ROOT)): _int_checks(ast.parse(path.read_text(encoding="utf-8")))
        for path in paths
    }
    assert {path: lines for path, lines in checks.items() if lines} == {}
    source = "isinstance(a, int)\ndef f(x):\n    isinstance(x, (bool, int))\n    isinstance(x, str)"
    assert _int_checks(ast.parse(source)) == [1, 3]


def _float_constants(tree) -> list:
    """Line numbers of each float or complex literal in the tree."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex)
    )


def test_src_holds_no_float_constant():
    # The package computes over ints and Fractions only.
    constants = {
        str(path.relative_to(ROOT)): _float_constants(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((ROOT / "src" / "logcentre").rglob("*.py"))
    }
    assert {path: lines for path, lines in constants.items() if lines} == {}
    assert _float_constants(ast.parse("x = 1\ny = 0.5 * x\nz = 2j\nw = '0.5'\n")) == [2, 3]


def _limit_constructions(tree) -> list:
    """Line numbers of each call of ResourceLimit itself in the tree, by bare
    name or as an attribute; ResourceLimit.over(...) is not one."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "ResourceLimit"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "ResourceLimit"
        )
    )


def test_limits_refuse_through_resource_limit_over():
    # ResourceLimit.over writes every limit message as "WORK, above the limit
    # NAME = VALUE", so each names its knob and the work it measured.
    trees = {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "logcentre").rglob("*.py"))
        if path.name != "errors.py"
    }
    calls = {path: _limit_constructions(tree) for path, tree in trees.items()}
    assert {path: lines for path, lines in calls.items() if lines} == {}
    source = "raise ResourceLimit('x')\nerrors.ResourceLimit('y')\nResourceLimit.over('z', 'N', 1)"
    assert _limit_constructions(ast.parse(source)) == [1, 2]


def _limit_readers(trees) -> dict:
    """For each MAX_* or _MAX_* constant assigned at the top level of a tree,
    where it is read as a loaded name or attribute: "module:qualified name" of
    the function around the read, or "module:<module>" outside any function."""
    limits = [
        target.id
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.lstrip("_").startswith("MAX_")
    ]
    assert len(limits) == len(set(limits)), limits
    readers = {name: set() for name in limits}

    def visit(node, module, qualname, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{qualname}.{child.name}" if qualname else child.name
                visit(child, module, inner, function or not isinstance(child, ast.ClassDef))
                continue
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if name in readers and isinstance(child.ctx, ast.Load):
                readers[name].add(f"{module}:{qualname if function else '<module>'}")
            visit(child, module, qualname, function)

    for module, tree in trees.items():
        visit(tree, module, "", False)
    return readers


def test_each_limit_is_read_in_one_function():
    # A limit checked in two places, or at import, bounds a proxy of its work
    # in at least one of them.
    trees = {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "logcentre").rglob("*.py"))
    }
    readers = _limit_readers(trees)
    assert {"MAX_DIM", "MAX_FACET_PAIRINGS", "_MAX_ATTEMPTS"} <= set(readers)
    assert {
        name: sorted(where)
        for name, where in readers.items()
        if len(where) != 1 or next(iter(where)).endswith(":<module>")
    } == {}
    source = (
        "MAX_A = 1\n_MAX_B = 2\nMAX_C = MAX_A\n"
        "def f():\n    \"\"\"MAX_C is named here.\"\"\"\n    return MAX_A + _MAX_B\n"
        "class K:\n    LIMIT = MAX_C\n    def g(self):\n        return m.MAX_A\n"
    )
    assert _limit_readers({"m": ast.parse(source)}) == {
        "MAX_A": {"m:<module>", "m:f", "m:K.g"}, "_MAX_B": {"m:f"}, "MAX_C": {"m:<module>"}
    }
