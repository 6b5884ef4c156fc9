"""README.md's Python blocks run against the library as it is, and state what they print."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def run_block(source):
    """Run a block statement by statement in a fresh namespace, as a reader pasting it
    would; returns each bare expression's value with the comment on its last line."""
    namespace, lines, shown = {}, source.splitlines(), []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
            shown.append((value, lines[stmt.end_lineno - 1].partition("#")[2].strip()))
        else:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
    return shown


def test_readme_has_two_python_blocks():
    assert len(BLOCKS) == 2


def test_readme_library_block_prints_both_runs(capsys):
    run_block(BLOCKS[0])
    rows = [line.split()[:2] for line in capsys.readouterr().out.rstrip().splitlines()[1:]]
    assert rows == [["lru", "80000"], ["lru+pgm", "80000"]]  # label and accesses


def test_readme_residency_block_states_its_values():
    shown = run_block(BLOCKS[1])
    assert [value for value, _ in shown] == [
        (True, ()), [2, 3, 1], 2, 1, 3, {1, 2, 3}, (False, ()), True]
    for value, comment in shown:  # each comment opens with the value it names
        assert comment.startswith(repr(value)), (value, comment)
