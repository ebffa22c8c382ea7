"""Each kind of received input is recognised in one place.

``roles.py`` decrypts a hybrid ciphertext only in ``_open`` and
``Server._receive``, and ``ledger.py`` verifies a transaction signature only
in ``check_transaction``. A check added there then covers every message or
transaction of its kind, and a handler cannot act on bytes it has not
recognised by a path of its own.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hearthgate"


def _call_sites(module: str, name: str) -> list[str]:
    """The enclosing function of each call of ``crypto.<name>`` (or a bare
    ``<name>``) in ``module``, qualified by its class, in source order."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call):
                func = child.func
                if ((isinstance(func, ast.Attribute) and func.attr == name
                     and isinstance(func.value, ast.Name) and func.value.id == "crypto")
                        or (isinstance(func, ast.Name) and func.id == name)):
                    found.append(".".join(scope))
            visit(child, inner)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), ())
    return found


def test_roles_decrypt_only_in_the_two_recognisers():
    assert _call_sites("roles", "hybrid_decrypt") == ["_open", "Server._receive"]


def test_ledger_verifies_signatures_only_in_check_transaction():
    assert _call_sites("ledger", "verify") == ["check_transaction"]
