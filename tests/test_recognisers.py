"""Each kind of received input is recognised in one place.

``roles.py`` decrypts a hybrid ciphertext only in ``_open`` and
``Server._receive``, and ``ledger.py`` verifies a transaction signature only
in ``check_transaction``. A check added there then covers every message or
transaction of its kind, and a handler cannot act on bytes it has not
recognised by a path of its own. Likewise an adversary rule's vocabulary,
``channels.SCRIPT_ACTIONS``, is read only by ``channels.check_rule``, which
every script, attack and bounded plan goes through.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hearthgate"


def _sites(module: str, matches) -> list[str]:
    """The enclosing function of each node of ``module`` that ``matches``,
    qualified by its class, in source order."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif matches(child):
                found.append(".".join(scope))
            visit(child, inner)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), ())
    return found


def _call_sites(module: str, name: str) -> list[str]:
    """Where ``module`` calls ``crypto.<name>`` (or a bare ``<name>``)."""
    def is_call(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return ((isinstance(func, ast.Attribute) and func.attr == name
                 and isinstance(func.value, ast.Name) and func.value.id == "crypto")
                or (isinstance(func, ast.Name) and func.id == name))
    return _sites(module, is_call)


def test_roles_decrypt_only_in_the_two_recognisers():
    assert _call_sites("roles", "hybrid_decrypt") == ["_open", "Server._receive"]


def test_ledger_verifies_signatures_only_in_check_transaction():
    assert _call_sites("ledger", "verify") == ["check_transaction"]


def test_only_check_rule_reads_the_rule_vocabulary():
    def reads(node: ast.AST) -> bool:
        return ((isinstance(node, ast.Name) and node.id == "SCRIPT_ACTIONS"
                 and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Attribute) and node.attr == "SCRIPT_ACTIONS"))
    readers = [f"{path.stem}.{site}" for path in sorted(PACKAGE.glob("*.py"))
               for site in _sites(path.stem, reads)]
    assert readers == ["channels.check_rule"]
