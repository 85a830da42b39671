"""Every name a module imports is used in it.

No linter ships with the project, so this is the unused-import rule done with
the standard library's ``ast``: a name bound by ``import`` or ``from ...
import`` must be read somewhere in the module. Names listed in ``__all__`` and
imports on a line marked ``# noqa: F401`` count as used.
"""

import ast
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
