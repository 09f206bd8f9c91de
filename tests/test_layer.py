"""The layout of the test suite: every from-scratch oracle, a function
named reference_* or _reference_*, is defined in tests/reference.py, and
no test module imports another.  The one exception is conftest, which
reads the golden cases, CASES and _cli, from test_golden."""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).parent
ALLOWED = {("conftest", "test_golden", "CASES"), ("conftest", "test_golden", "_cli")}


def test_one_reference_layer():
    modules = {path.stem for path in TESTS.glob("*.py")} - {"conftest", "reference"}
    borrowed, misplaced = set(), []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                borrowed |= {(path.stem, a.name, None) for a in node.names if a.name in modules}
            elif isinstance(node, ast.ImportFrom) and node.module in modules:
                borrowed |= {(path.stem, node.module, a.name) for a in node.names}
            elif isinstance(node, ast.FunctionDef) and path.stem != "reference":
                if node.name.startswith(("reference_", "_reference_")):
                    misplaced.append(f"{path.name}::{node.name}")
    assert borrowed <= ALLOWED, sorted(borrowed - ALLOWED, key=str)
    assert not misplaced, misplaced
