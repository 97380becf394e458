"""Self-test of the harness: the gate must catch a wrong solver, and the tracer must uninstall cleanly.

    python3 perfbench/selftest.py

For every workload, a clamped rounding of the real least-squares
solution is substituted for the exact solver through the same module
attributes the tracer wraps; every such operation must fail the gate.
With the solver restored, the same operations must pass. Exits 0 only
if every check holds.
"""

import shutil
import sys
from types import SimpleNamespace

import numpy as np

from calibrate import SpeedClock
from run import STATE, import_package, load_reference, run_ops
from tracing import Tracer, seam_snapshot
from workloads import WORKLOADS, instance_order

# Which module attributes each workload's operations reach the solver through.
SOLVER_SEAMS = {
    "bcd-boxed": (("factorize", "solve_ilsb"),),
    "bcd-unboxed-cli": (("factorize", "solve_ils"),),
    "ils-search": (("ils", "solve_ils"), ("boxed", "solve_ilsb")),
    "experiment-dist": (("factorize", "solve_ilsb"),),
}
OPS = 2


def rounding_solver(api):
    """Suboptimal stand-in for solve_ils / solve_ilsb: the clamped rounded LS point."""

    def solve(H, y, box=None, stats=None):
        x = api.factorize.rounded_real_ls(H, y, box)
        r = np.asarray(y, dtype=float) - np.asarray(H, dtype=float) @ x
        return x, float(r @ r)

    return solve


def check(name, ok, results):
    print(f"[SELFTEST] {name}: {'PASS' if ok else 'FAIL'}")
    results.append(ok)


def main():
    results = []
    api = import_package()

    before = seam_snapshot(api)
    tracer = Tracer(api)
    tracer.install()
    during = seam_snapshot(api)
    tracer.uninstall()
    check("tracer replaces every seam", all(during[k] is not before[k] for k in before), results)
    check("uninstall restores every original", seam_snapshot(api) == before, results)

    workdir = STATE / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check_gates(api, workdir, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if all(results) else 1


def check_gates(api, workdir, results):
    for name, seams in SOLVER_SEAMS.items():
        workload = WORKLOADS[name](workdir)
        refs = load_reference(workload)
        bench = SimpleNamespace(workload=workload, api=api, refs=refs,
                                order=instance_order(0, workload.strata(refs)), clock=SpeedClock())
        first = lambda n, t: n < OPS  # noqa: E731
        saved = [(getattr(api, m), a, getattr(getattr(api, m), a)) for m, a in seams]
        wrong = rounding_solver(api)
        for module, attr, _ in saved:
            setattr(module, attr, wrong)
        try:
            caught = run_ops(bench, {}, first)
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
        right = run_ops(bench, {}, first)
        check(f"{name}: gate fails every wrong-solver operation",
              all(r[1] for r in caught), results)
        check(f"{name}: gate passes the same operations with the exact solver",
              not any(r[1] for r in right), results)


if __name__ == "__main__":
    sys.exit(main())
