"""The first instances of every benchmark workload, through the workload's own gate.

tools/check_catalogue.py checks whole catalogues against
perfbench/reference.json and takes about 40 s; this runs a prefix of each,
so a change that moves an output of those instances (a residual history,
an ILS answer, an experiment CSV) fails here too. It only reads perfbench/.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from check_catalogue import failures  # noqa: E402 (puts perfbench/ on sys.path)
from run import MODULES, load_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SAMPLE = 6


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_instances_pass_the_gate(name, tmp_path):
    # The package as the test run imported it: run.import_package() would
    # re-import it, and classes such as RankDeficientError would then differ
    # from the ones other tests catch.
    api = SimpleNamespace(**{m: importlib.import_module(f"intlowrank.{m}") for m in MODULES})
    workload = WORKLOADS[name](tmp_path)
    refs = load_reference(workload)[:SAMPLE]
    assert len(refs) == SAMPLE
    found = {i: failures(workload, api, i, ref) for i, ref in enumerate(refs)}
    assert not {i: errors for i, errors in found.items() if errors}
