"""Parent-versus-change comparison of two sets of benchmark results.

Make the result sets with alternating runs, parent first on even pairs:

    python3 perfbench/compare.py run --parent P_CHECKOUT --change C_CHECKOUT \\
        --workload ils-search --seeds 1-10 --results DIR

which writes DIR/parent/*.json and DIR/change/*.json, then report:

    python3 perfbench/compare.py report DIR/parent DIR/change

For every workload and end-to-end metric, one row: each side's median
and quartiles, the share of same-seed pairs the change won (ties count
for neither), and a verdict. "improved" needs wins in at least nine
tenths of the pairs and a median difference larger than the parent's
interquartile range. "unresolved" means a side's spread exceeds the
metric's bound, unless every change run beat every parent run. Otherwise
the change is "no worse" when its median is within the bound of the
parent's, and "worse" when it is not. There is no combined score.
Traced results, when present, are summarised as per-layer medians.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(directory):
    """{(trace, workload): {seed: metrics}} from a directory of result records."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        key = (record["trace"], record["machine"]["workload"])
        metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
        runs.setdefault(key, {})[record["machine"]["seed"]] = metrics
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change):
    """(verdict, share of pairs won) for one metric; parent/change map seed -> value."""
    lower = metric["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if better(change[s], parent[s]))
    share = wins / len(seeds) if seeds else 0.0
    p = list(parent.values())
    c = list(change.values())
    p1, pm, p3 = quartiles(p)
    c1, cm, c3 = quartiles(c)
    bound = metric["bound"]
    if seeds and wins >= 0.9 * len(seeds) and better(cm, pm) and abs(cm - pm) > p3 - p1:
        return "improved", share
    all_better = all(better(x, y) for x in c for y in p)
    if ((p3 - p1) / abs(pm) > bound or (c3 - c1) / abs(cm) > bound) and not all_better:
        return "unresolved", share
    worse_by = (cm - pm) / abs(pm) if lower else (pm - cm) / abs(pm)
    return ("no worse" if worse_by <= bound else "worse"), share


def report(parent_dir, change_dir):
    parent = load(parent_dir)
    change = load(change_dir)
    fmt = "{:<16} {:<12} {:>32} {:>32} {:>6} {}"
    print(fmt.format("workload", "metric", "parent q1/median/q3", "change q1/median/q3",
                     "won", "verdict"))
    for _, workload in sorted(k for k in parent if k[0] == 0 and k in change):
        p_runs = parent[(0, workload)]
        c_runs = change[(0, workload)]
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            p = {s: m[name] for s, m in p_runs.items()}
            c = {s: m[name] for s, m in c_runs.items()}
            result, share = verdict(metric, p, c)
            print(fmt.format(
                workload, name,
                "/".join(f"{v:.4g}" for v in quartiles(list(p.values()))),
                "/".join(f"{v:.4g}" for v in quartiles(list(c.values()))),
                f"{share:.0%}", f"{result} (n={len(p)}/{len(c)}, bound {metric['bound']:.0%})"))
    for _, workload in sorted(k for k in parent if k[0] == 1 and k in change):
        print(f"\nper-layer medians, {workload}: parent -> change")
        for metric in SPEC["per_layer"]:
            name = metric["name"]
            p = statistics.median(m[name] for m in parent[(1, workload)].values())
            c = statistics.median(m[name] for m in change[(1, workload)].values())
            if p or c:
                print(f"  {name:<42} {p:>14.6g} -> {c:<14.6g} {metric['unit']}")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def alternate(args):
    results = Path(args.results).resolve()
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    seconds = str(SPEC["run_seconds"])
    for workload in args.workload:
        for i, seed in enumerate(seed_range(args.seeds)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                out = results / side / f"{workload}-s{seed}.json"
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", seconds, "--trace", "0",
                       "--out", str(out)]
                done = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True,
                                      timeout=600)
                last = done.stdout.strip().splitlines()[-1:] or [done.stderr.strip()]
                print(f"{side} {workload} seed {seed}: exit {done.returncode} {last[0][:120]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("report", help="compare two directories of result records")
    p.add_argument("parent")
    p.add_argument("change")
    p = sub.add_parser("run", help="alternate parent and change runs, one pair per seed")
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--results", required=True)
    args = parser.parse_args(argv)
    if args.command == "report":
        report(args.parent, args.change)
    else:
        alternate(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
