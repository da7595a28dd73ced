"""The package root exports only names that exist, and every name the
acceptance tests import from it; deleting a name cannot leave a dangling
export or break an acceptance import unnoticed."""

import ast
from pathlib import Path

import perturbreg
from perturbreg import cli

ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def imported_from(module: str) -> list[str]:
    """The names ``tests/test_acceptance.py`` imports from ``module``."""
    tree = ast.parse(ACCEPTANCE.read_text())
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names]


def test_every_export_resolves():
    assert [name for name in perturbreg.__all__ if not hasattr(perturbreg, name)] == []
    assert len(set(perturbreg.__all__)) == len(perturbreg.__all__)


def test_acceptance_imports_are_exported():
    root = imported_from("perturbreg")
    assert "solve_perturbed" in root
    assert sorted(set(root) - set(perturbreg.__all__)) == []
    from_cli = imported_from("perturbreg.cli")
    assert from_cli == ["DEFAULT_SEED", "main"]
    assert all(hasattr(cli, name) for name in from_cli)
