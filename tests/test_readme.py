"""The Python examples of the README, run statement by statement."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_readme_python_examples_show_their_values():
    # An expression statement with a trailing comment shows its value's repr there.
    checked = 0
    for block in _python_blocks(README.read_text(encoding="utf-8")):
        lines = block.splitlines()
        namespace = {}
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            line = lines[stmt.end_lineno - 1]
            comment = line.encode()[stmt.end_col_offset:].decode().strip()
            if comment.startswith("#"):
                assert comment[1:].strip().startswith(repr(value)), line
                checked += 1
    assert checked >= 6
