"""Check every catalogue instance of the named benchmark workloads.

    python3 tools/check_catalogue.py WORKLOAD [WORKLOAD ...]

A benchmark run checks only the instances its seed draws. This runs the
whole catalogue of each named workload (see perfbench/README.md) through
the workload's own make, run and check, against perfbench/reference.json,
with the package imported from src/. It prints one line per failing
instance and a count per workload, and exits 1 when any instance fails.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import import_package, load_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def failures(workload, api, instance, ref):
    """The gate's failure messages for one instance; a raised error is one too."""
    inp = workload.make(instance)
    try:
        return workload.check(inp, workload.run(api, inp), ref)
    except Exception as exc:  # report and go on to the next instance
        return [f"{type(exc).__name__}: {exc}"]
    finally:
        workload.cleanup(inp)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(WORKLOADS), metavar="WORKLOAD")
    args = parser.parse_args(argv)
    api = import_package()
    failed = 0
    with tempfile.TemporaryDirectory(prefix="check-catalogue-") as workdir:
        for name in args.workloads:
            workload = WORKLOADS[name](workdir)
            refs = load_reference(workload)
            start = time.perf_counter()
            bad = 0
            for instance, ref in enumerate(refs):
                errors = failures(workload, api, instance, ref)
                if errors:
                    bad += 1
                    print(f"FAIL {name} instance {instance}: {'; '.join(errors)}", flush=True)
            elapsed = time.perf_counter() - start
            print(f"{name}: {bad} of {len(refs)} instances failed ({elapsed:.1f} s)", flush=True)
            failed += bad
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
