"""Checks on the package source and the test configuration."""

import ast
import importlib
import subprocess
import sys
import textwrap
from pathlib import Path

import intlowrank

PACKAGE = Path(intlowrank.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_no_unused_imports():
    # No linter runs on this project, so an import that nothing reads would
    # stay unseen. __init__.py re-exports by importing.
    modules = sorted(PACKAGE.rglob("*.py"))
    modules += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    assert len(modules) > 17
    found = []
    for path in modules:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append(f"{path.name}:{alias.lineno} {name}")
    assert not found, f"unused imports: {', '.join(found)}"


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


def test_failing_property_test_leaves_the_session_running(tmp_path):
    # pyproject.toml makes every warning an error. hypothesis's plugin
    # warns while it reports a failed property test, and as an error that
    # becomes an INTERNALERROR which ends the session: later tests never run.
    probe = tmp_path / "test_probe.py"
    probe.write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_fails(x):
                assert x < 0

            def test_passes():
                pass
            """
        ),
        encoding="utf-8",
    )
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    command += ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(probe)]
    proc = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
