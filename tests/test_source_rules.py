"""Rules on the package source that no run of the code can check."""

import ast
from pathlib import Path

import spnd

PACKAGE = Path(spnd.__file__).parent


def test_package_has_no_bare_asserts():
    # ``python -O`` strips assert statements, and a check that guards a
    # result must still run there: it raises instead.
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
