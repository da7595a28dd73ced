"""The package root exports only names that exist, and every name the
acceptance tests import from it; deleting a name cannot leave a dangling
export or break an acceptance import unnoticed. Each input rule's message is
written once in the package, so a second copy of a rule cannot creep in."""

import ast
from pathlib import Path

import pytest

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


SOURCES = sorted(Path(perturbreg.__file__).parent.glob("*.py"))


def literal_starts() -> list[str]:
    """Every string literal in the package, f-string pieces included, with
    the brackets, commas and spaces that follow a placeholder stripped."""
    return [node.value.lstrip("]), ") for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


@pytest.mark.parametrize("message", [
    "alpha must be positive and finite",
    "delta must be a finite number >= 0",
    "empty interval",
    "is wider than the float64 range",
    "need at least two grid points",
    "must be one-dimensional",
    "stabilizer built for size",
    "must hold at least one vector",
    "matrix must be square",
    "matrix must not be empty",
    "matrix entries must be finite",
])
def test_each_input_rule_is_written_once(message):
    # The CLI's own flag checks, such as "--delta must be ...", name the flag
    # and do not start with the message.
    assert sum(text.startswith(message) for text in literal_starts()) == 1
