"""Write the parent-versus-change benchmark summary of one change as JSON.

    python3 tools/bench_json.py --out BENCH_<n>.json RESULTS [RESULTS ...]

Each RESULTS directory is one written by `perfbench/compare.py run`, with
`parent/` and `change/` inside; traced records (`perfbench/run.py
--trace 1 --out RESULTS/<side>/...`) may sit beside the untraced ones.
For every workload and end-to-end metric the summary holds both sides'
quartiles, the share of same-seed pairs the change won and the verdict,
all computed by compare.py itself, so they match `compare.py report`.
Traced records add per-layer medians for both sides.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import compare  # noqa: E402

MACHINE_KEYS = ("nproc", "cpus_usable", "cpu_model", "python", "numpy", "openblas_threads")


def machine(results):
    record = json.loads(next((results / "change").glob("*.json")).read_text(encoding="utf-8"))
    return {k: record["machine"][k] for k in MACHINE_KEYS}


def sources(results):
    """Source digest of each side, from its records."""
    out = {}
    for side in ("parent", "change"):
        digests = {json.loads(p.read_text(encoding="utf-8"))["machine"]["source_sha256"]
                   for p in (results / side).glob("*.json")}
        out[side] = sorted(digests)
    return out


def summarise(results):
    parent = compare.load(results / "parent")
    change = compare.load(results / "change")
    workloads = {}
    for trace, workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[(trace, workload)], change[(trace, workload)]
        entry = workloads.setdefault(workload, {})
        if trace == 0:
            metrics = {}
            for metric in compare.SPEC["end_to_end"]:
                name = metric["name"]
                p = {s: m[name] for s, m in p_runs.items()}
                c = {s: m[name] for s, m in c_runs.items()}
                verdict, share = compare.verdict(metric, p, c)
                metrics[name] = {
                    "unit": metric["unit"],
                    "parent_q1_median_q3": list(compare.quartiles(list(p.values()))),
                    "change_q1_median_q3": list(compare.quartiles(list(c.values()))),
                    "won": share,
                    "verdict": verdict,
                }
            entry["end_to_end"] = {"seeds": sorted(set(p_runs) & set(c_runs)), "metrics": metrics}
        else:
            medians = {}
            for metric in compare.SPEC["per_layer"]:
                name = metric["name"]
                p = statistics.median(m[name] for m in p_runs.values())
                c = statistics.median(m[name] for m in c_runs.values())
                if p or c:
                    medians[name] = {"unit": metric["unit"], "parent": p, "change": c}
            entry["per_layer"] = {"seeds": sorted(set(p_runs) & set(c_runs)), "medians": medians}
    return {"sources": sources(results), "workloads": workloads}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("results", nargs="+", type=Path)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    summary = {
        "run_seconds": compare.SPEC["run_seconds"],
        "machine": machine(args.results[0]),
        "results": {path.name: summarise(path) for path in args.results},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
