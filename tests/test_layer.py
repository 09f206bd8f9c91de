"""The layout of the test suite: every from-scratch oracle, a function
named reference_* or _reference_*, is defined in tests/reference.py, and
no test module imports another.  The one exception is conftest, which
reads the golden cases, CASES and _cli, from test_golden.  And two rules
of the package's: JSON is decoded, and the int/str digit limit mapped to
DigitLimitError, only in src/congames/codec.py; one function computes a
grid check's slack; and every module stays under PARSER_TOKENS tokens."""

from __future__ import annotations

import ast
import tokenize
from pathlib import Path

TESTS = Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "congames"
ALLOWED = {("conftest", "test_golden", "CASES"), ("conftest", "test_golden", "_cli")}
# CPython 3.11's parser doubles its token array when a module reaches this
# many tokens, which raises the memory peak of compiling it by about a
# quarter of a megabyte; every fresh import of the package compiles it.
PARSER_TOKENS = 4096


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


def _name(node: ast.expr) -> str:
    """The dotted name a call or a raise refers to: json.loads, DigitLimitError."""
    if isinstance(node, ast.Attribute):
        return f"{_name(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def test_one_codec():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and _name(node.func) in ("json.loads", "loads"):
                found.append(f"{path.name}:{node.lineno} calls json.loads")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if _name(exc).split(".")[-1] == "DigitLimitError":
                    found.append(f"{path.name}:{node.lineno} raises DigitLimitError")
    assert found and all(site.startswith("codec.py:") for site in found), found


def _slack_sites(node: ast.AST, where: str, found: set) -> None:
    """Add to found each function (module.function, nested ones dotted on)
    that computes a grid slack (rhs - lhs) / ..."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        where = f"{where}.{getattr(node, 'name', '<lambda>')}"
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub)
            and (_name(node.left.left), _name(node.left.right)) == ("rhs", "lhs")):
        found.add(where)
    for child in ast.iter_child_nodes(node):
        _slack_sites(child, where, found)


def test_one_grid_checker():
    """Every grid check goes through one loop, analysis._worst_slack."""
    found: set = set()
    for path in sorted(PACKAGE.glob("*.py")):
        _slack_sites(ast.parse(path.read_text()), path.stem, found)
    assert len(found) == 1, sorted(found)


def test_modules_under_the_parser_token_doubling():
    """Tokens counted as the parser sees them: tokenize's, without
    comments, blank-line NL tokens and the encoding token."""
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        with path.open("rb") as f:
            counts[path.name] = sum(t.type not in skipped for t in tokenize.tokenize(f.readline))
    assert counts and max(counts.values()) < PARSER_TOKENS, counts
