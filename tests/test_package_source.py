"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

import intlowrank

PACKAGE = Path(intlowrank.__file__).parent
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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


def test_tracer_seams_resolve():
    # The benchmark's layer tracer wraps each (module, attribute) of its
    # SEAMS table; a refactor that drops one of those names blinds it.
    tree = ast.parse(TRACING.read_text(encoding="utf-8"), filename=str(TRACING))
    seams = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SEAMS"]
    )
    assert len(seams) > 10
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in seams
        if not callable(getattr(importlib.import_module(f"intlowrank.{module}"), attr, None))
    ]
    assert not missing, f"tracer seams missing from the package: {', '.join(missing)}"
