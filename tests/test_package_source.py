"""Checks on the package source and the test configuration."""

import ast
import contextlib
import importlib
import io
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np

import intlowrank
from intlowrank import boxed, factorize, ils

PACKAGE = Path(intlowrank.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def test_public_names_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = readme.split("**Public API.**", 1)[1].split("Other helpers", 1)[0]
    assert sorted(listed.split("`")[3::2]) == sorted(intlowrank.__all__)  # after `intlowrank`
    assert len(intlowrank.__all__) == len(set(intlowrank.__all__)) == 24
    assert [name for name in intlowrank.__all__ if not hasattr(intlowrank, name)] == []
    # Helpers that the tests and the benchmark's tracer reach in their modules.
    internal = ["integer_gauss_transform", "in_box_rounding", "householder_qr",
                "householder_qr_min_pivot", "compute_bound_table"]
    assert [name for name in internal if hasattr(intlowrank, name)] == []


def test_console_script_resolves():
    # The [project.scripts] table, read as text since Python 3.10 has no tomllib.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    scripts = dict(line.replace('"', "").split(" = ") for line in table.strip().splitlines())
    assert scripts == {"intlowrank": "intlowrank.cli:run"}
    module, attr = scripts["intlowrank"].split(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from intlowrank import " in code
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["x"].tolist() == [2, 0]
    assert namespace["residual_sq"] == 1.0
    assert out.getvalue() == "1 converged\n"


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


def _tracer_table(name):
    """A constant of the benchmark's tracer, read from its source without importing it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"), filename=str(TRACING))
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]
    )


def test_tracer_seams_resolve():
    # The benchmark's layer tracer wraps each (module, attribute) of its
    # SEAMS table; a refactor that drops one of those names blinds it.
    seams = _tracer_table("SEAMS")
    assert len(seams) > 10
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in seams
        if not callable(getattr(importlib.import_module(f"intlowrank.{module}"), attr, None))
    ]
    assert not missing, f"tracer seams missing from the package: {', '.join(missing)}"


def test_tracer_reduction_and_search_seams_are_reached(monkeypatch):
    # A seam that resolves but that no solve calls reads 0 in every traced
    # run: the tracer counts a half-sweep's reductions at its REDUCTIONS
    # seams. Each is wrapped here, as the tracer wraps it, with a counter.
    wanted = set(_tracer_table("REDUCTIONS")) | set(_tracer_table("SEARCHES"))
    calls = Counter()

    def counting(fn, span):
        def wrapper(*args, **kwargs):
            calls[span] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module_name, attr, span in _tracer_table("SEAMS"):
        if span in wanted:
            module = importlib.import_module(f"intlowrank.{module_name}")
            monkeypatch.setattr(module, attr, counting(getattr(module, attr), span))
            wanted.discard(span)
    assert not wanted, f"no seam for {', '.join(sorted(wanted))}"

    # The boxed problems are ones the scorer declines, which do reach both seams:
    # a fractional y, and a 33 x 33 box, more points than the scorer takes.
    H, y = np.array([[2.0, 1.0], [1.0, 3.0], [0.0, 1.0]]), np.array([1.0, 2.0, 3.0])
    ils.solve_ils(H, y)
    assert calls == {"ils.plll_reduce": 1, "ils.se_search": 1}
    calls.clear()
    boxed.solve_ilsb(H, y + 0.5, boxed.BoxConstraint.uniform(2, 0, 3))
    assert calls == {"boxed.mch_reduce": 1, "boxed.boxed_search": 1}

    rng = np.random.default_rng(3)
    A = rng.integers(1, 5, size=(12, 2)) @ rng.integers(1, 5, size=(2, 10))
    A += rng.integers(-2, 3, size=A.shape)
    for box, reduction, search in (
        (None, "ils.plll_reduce", "ils.se_search"),
        ((-16, 16), "boxed.mch_reduce", "boxed.boxed_search"),
    ):
        calls.clear()
        config = factorize.FactorizationConfig(rank=2, max_sweeps=3, box_u=box, box_v=box)
        half_sweeps = len(factorize.bcd_factorize(A, config).residual_history)
        assert half_sweeps == 6
        assert set(calls) == {reduction, search}
        assert calls[reduction] == half_sweeps  # one reduction per half-sweep
        assert calls[search] >= half_sweeps


def test_tracer_update_seams_are_reached_once_per_half_sweep(monkeypatch):
    # The tracer counts half-sweeps at the factorize.update_u and update_v
    # seams and reads the other factor from their second argument.
    seams = [(m, a) for m, a, span in _tracer_table("SEAMS") if span == "factorize.update"]
    assert seams == [("factorize", "update_u"), ("factorize", "update_v")]
    calls = []

    def counting(fn, attr):
        def wrapper(*args, **kwargs):
            calls.append((attr, np.shape(args[1])))
            return fn(*args, **kwargs)

        return wrapper

    for _, attr in seams:
        monkeypatch.setattr(factorize, attr, counting(getattr(factorize, attr), attr))
    rng = np.random.default_rng(4)
    A = rng.integers(1, 5, size=(12, 2)) @ rng.integers(1, 5, size=(2, 10))
    A += rng.integers(-2, 3, size=A.shape)
    for box in (None, (-16, 16)):
        calls.clear()
        config = factorize.FactorizationConfig(rank=2, max_sweeps=3, box_u=box, box_v=box)
        half_sweeps = len(factorize.bcd_factorize(A, config).residual_history)
        assert half_sweeps == 6
        assert calls == [("update_u", (2, 10)), ("update_v", (12, 2))] * 3


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
