"""Every public function, class and method of ``hearthgate`` has a caller.

A public name that nothing in ``src/``, ``tools/`` or ``perfbench/`` refers
to, other than its own definition, is dead weight: it still carries a
docstring, tests and documentation. The reference scan is syntactic: names,
attribute names, imported names, and the words of string constants that are
not docstrings (``perfbench/tracer.py`` names what it wraps in strings).
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hearthgate"
SEARCHED = ("src", "tools", "perfbench")

# Public on purpose although nothing in the searched trees calls it.
ALLOWED = {
    "bounded_exhaustive": "ROADMAP item 8 makes it a checker with a caller",
}


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the docstring nodes of a module and its defs."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                found.add(id(body[0].value))
    return found


def _references(tree: ast.AST) -> Counter:
    docstrings = _docstrings(tree)
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rpartition(".")[2]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            refs.update(re.findall(r"\w+", node.value))
    return refs


def _public_definitions():
    """(qualified name, name, node) of each public module-level function or
    class and each public method of a module-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{item.name}", item) for item in node.body
                         if isinstance(item, ast.FunctionDef)]
            for qualified, item in defs:
                if not item.name.startswith("_"):
                    yield f"{path.stem}.{qualified}", item.name, item


def test_every_public_name_has_a_caller():
    refs: Counter = Counter()
    for tree_name in SEARCHED:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            refs += _references(ast.parse(path.read_text()))
    uncalled = []
    for qualified, name, node in _public_definitions():
        if name in ALLOWED:
            continue
        # References inside the definition itself (recursion) do not count.
        if refs[name] - _references(node)[name] <= 0:
            uncalled.append(qualified)
    assert uncalled == []
