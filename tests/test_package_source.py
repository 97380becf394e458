"""Checks on the package source itself."""

import ast
from pathlib import Path

import intlowrank

PACKAGE = Path(intlowrank.__file__).parent


def test_package_has_no_assert():
    # python -O strips assert statements, so the package must check with
    # explicit raises instead.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {', '.join(found)}"
