"""Record the reference outcome of every catalogue instance into reference.json.

    python3 perfbench/record_reference.py

Run once, at the commit whose outcomes are the reference; every later
benchmark run compares each operation against them. Each recorded
outcome must also pass the workload's independent checks, so a wrong
solver cannot be recorded as the reference.
"""

import argparse
import json
import shutil
import sys
import time

from run import HERE, STATE, import_package, source_digest
from workloads import WORKLOADS

REFERENCE = HERE / "reference.json"


def record(workload, api):
    outcomes = []
    for instance in range(workload.catalogue_size):
        inp = workload.make(instance)
        out, outcome = workload.record(api, inp)
        errors = workload.check(inp, out, outcome)
        workload.cleanup(inp)
        if errors:
            raise SystemExit(f"{workload.name} instance {instance}: {'; '.join(errors)}")
        outcomes.append(outcome)
    return outcomes


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    data = {"source_sha256": source_digest()}
    api = import_package()
    workdir = STATE / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in sorted(WORKLOADS):
            start = time.perf_counter()
            data[name] = record(WORKLOADS[name](workdir), api)
            print(f"{name}: {len(data[name])} outcomes in {time.perf_counter() - start:.1f} s",
                  file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                      for k, v in sorted(data.items()))
    REFERENCE.write_text("{\n" + body + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
