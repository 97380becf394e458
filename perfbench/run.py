"""intlowrank benchmark: one workload, closed loop, one process and one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bcd-boxed --seed 1 --seconds 24 --trace 0

With --trace 0 it runs operations back to back for --seconds and reports
the end-to-end metrics of BENCHMARK.json. With --trace 1 it runs a fixed
number of operations (set by --seconds and the workload, never by the
speed of the code) untraced, then the same operations with the layer
tracer installed, and reports the per-layer metrics of BENCHMARK.json.
Every operation passes through the workload's correctness gate. The last
line of standard output is the JSON result; the full record, with the
machine description, goes to .perfbench/results/ (or --out).
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from calibrate import SpeedClock  # noqa: E402
from tracing import COUNT_KEYS, Tracer, seam_snapshot  # noqa: E402
from workloads import WORKLOADS, instance_order  # noqa: E402

MODULES = ("linalg", "ils", "boxed", "factorize", "experiments", "matrixio", "cli")
# Not used while the benchmark was developed; a later claim must also hold here.
HELD_OUT_SEED = 7321
SETUP_REPEATS = 21
PRELOADED_OPS = 4
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    """Import intlowrank afresh from src/ and return its modules."""
    for name in [n for n in sys.modules if n == "intlowrank" or n.startswith("intlowrank.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        importlib.import_module("intlowrank")
        return SimpleNamespace(**{m: importlib.import_module(f"intlowrank.{m}") for m in MODULES})
    except ImportError as exc:
        raise BenchError(f"cannot import intlowrank from {SRC}: {exc}") from None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "intlowrank").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout's repository, or None when it is not one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def openblas_threads():
    """Threads OpenBLAS actually uses in this process, or None if unknown."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(workload, seed):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "openblas_threads": openblas_threads(),
        "INTLOWRANK_THREADS": os.environ.get("INTLOWRANK_THREADS"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def load_reference(workload):
    path = HERE / "reference.json"
    refs = json.loads(path.read_text(encoding="utf-8")).get(workload.name, [])
    if len(refs) != workload.catalogue_size:
        raise BenchError(f"{path} has {len(refs)} outcomes for {workload.name}, "
                         f"expected {workload.catalogue_size}")
    return refs


def set_up(workload, order, clock):
    """Import, generate and write the first inputs, warm up; repeated.

    Returns the package, the inputs and the median set-up time, raw and calibrated.
    """
    raw, calibrated = [], []
    for _ in range(SETUP_REPEATS):
        clock.sample()
        start = time.perf_counter()
        api = import_package()
        inputs = {i: workload.make(int(order[i])) for i in range(PRELOADED_OPS)}
        workload.warm_up(api)
        raw.append(time.perf_counter() - start)
        calibrated.append(raw[-1] * clock.scale(start))
    return api, inputs, statistics.median(raw), statistics.median(calibrated)


def run_ops(bench, inputs, more, tracer=None):
    """Closed loop: one operation at a time while more(count, elapsed) holds.

    Only the call into the package is timed; input generation, the
    correctness gate and the speed samples run between operations.
    Returns [[seconds, errors, calibrated seconds], ...].
    """
    workload, order, clock = bench.workload, bench.order, bench.clock
    results = []
    clock.tick()
    start = time.perf_counter()
    while more(len(results), time.perf_counter() - start):
        i = len(results)
        instance = int(order[i % len(order)])
        inp = inputs.pop(i) if i in inputs else workload.make(instance)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = workload.run(bench.api, inp)
        except Exception as exc:  # a raising operation is a failed operation
            elapsed = time.perf_counter() - t0
            errors = [f"raised {type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - t0
            try:
                errors = workload.check(inp, out, bench.refs[instance])
            except Exception as exc:  # malformed output the gate could not read
                errors = [f"gate raised {type(exc).__name__}: {exc}"]
        workload.cleanup(inp)
        if errors:
            print(f"FAILED op {i} (instance {instance}): {'; '.join(errors)}", file=sys.stderr)
        results.append([elapsed, errors, t0])
        clock.tick()
    for r in results:
        r[2] = r[0] * clock.scale(r[2])
    return results


def tail(times, nominal):
    """Time at the highest percentile with at least ten samples beyond it.

    The percentile is that of a run of `nominal` operations, the
    workload's count at the seed commit, so it does not move with the
    machine's speed; a run with fewer operations uses its own count.
    Returns (value, percentile, n).
    """
    s = sorted(times)
    n = len(s)
    m = min(n, nominal)
    if m <= 10:
        return s[-1], 100.0, n
    share = (m - 10) / m
    return s[math.ceil(share * n) - 1], 100.0 * share, n


def time_metrics(times, nominal, setup_s):
    """The end-to-end time metrics of one list of operation times."""
    value, _, _ = tail(times, nominal)
    return {
        "op_s_p50": statistics.median(times),
        "op_s_tail": value,
        "ops_per_s": len(times) / sum(times),
        "setup_s": setup_s,
    }


def end_to_end(bench, inputs, seconds, setup, lines):
    results = run_ops(bench, inputs, lambda n, t: t < seconds)
    raw = [r[0] for r in results]
    times = [r[2] for r in results]
    failed = sum(1 for r in results if r[1])
    nominal = round(seconds / bench.workload.nominal_op_s)
    _, pct, n = tail(times, nominal)
    metrics = time_metrics(times, nominal, setup[1])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    uncalibrated = time_metrics(raw, nominal, setup[0])
    lines += [
        f"op_s_tail: p{pct:.2f} of n={n} operations (nominal {nominal})",
        f"ops_per_s: {n} operations over {sum(times):.3f} calibrated s of operation time",
        f"setup_s: median of {SETUP_REPEATS} set-ups",
        f"failed_frac: {failed / n:.6g} ratio ({failed} of {n})",
        "uncalibrated: " + " ".join(f"{k}={v:.6g}" for k, v in uncalibrated.items()),
    ]
    return metrics, n, failed, {"raw": raw, "calibrated": times}


def compare_counts(workload, order, counts, lines):
    """Check exact counts against earlier traced runs of the same source; True if equal."""
    path = STATE / "counts" / f"{workload.name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    store = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    known = store.setdefault(source_digest(), {})
    matched, mismatched = 0, []
    for op, values in counts.items():
        key = str(int(order[op % len(order)]))
        if key in known:
            if known[key] == values:
                matched += 1
            else:
                mismatched.append((key, known[key], values))
        known[key] = values
    path.write_text(json.dumps(store), encoding="utf-8")
    totals = [sum(v[k] for v in counts.values()) for k in range(len(COUNT_KEYS))]
    lines.append("exact counts: " + " ".join(f"{k}={v}" for k, v in zip(COUNT_KEYS, totals)))
    lines.append(f"exact counts vs earlier runs of this source: {matched} instances equal, "
                 f"{len(mismatched)} differ")
    for key, old, new in mismatched:
        print(f"COUNT MISMATCH instance {key}: earlier {old}, now {new}", file=sys.stderr)
    return not mismatched


def per_layer(bench, inputs, seconds, seed, lines):
    workload = bench.workload
    ops = max(2, round(seconds / 2 / workload.nominal_op_s))
    fixed = lambda n, t: n < ops  # noqa: E731
    plain = run_ops(bench, inputs, fixed)
    before = seam_snapshot(bench.api)
    tracer = Tracer(bench.api)
    tracer.install()
    try:
        traced = run_ops(bench, {}, fixed, tracer)
    finally:
        tracer.uninstall()
    restored = seam_snapshot(bench.api) == before
    metrics = tracer.layer_metrics()
    p50 = statistics.median(r[2] for r in plain)
    metrics["trace.overhead_frac"] = statistics.median(r[2] for r in traced) / p50 - 1
    counts_equal = compare_counts(workload, bench.order, tracer.op_counts(), lines)
    lines.append(f"traced operations: {ops}, untraced then traced; spans: {len(tracer.spans)}")
    if tracer.missing:
        lines.append("seams absent from the package: " + ", ".join(tracer.missing))
    if not restored:
        lines.append("ERROR: uninstalling the tracer did not restore the package")
    traces = STATE / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.write(traces / f"{workload.name}-s{seed}.jsonl")
    results = plain + traced
    failed = sum(1 for r in results if r[1])
    return metrics, len(results), failed, restored and counts_equal


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="where to write the full record "
                        "(default: .perfbench/results/ in the checkout)")
    args = parser.parse_args(argv)

    if not (SRC / "intlowrank").is_dir():
        raise BenchError(f"no package source at {SRC / 'intlowrank'}")
    units = declared_metrics(args.trace)
    workdir = STATE / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](workdir)
        refs = load_reference(workload)
        order = instance_order(args.seed, workload.strata(refs))
        clock = SpeedClock()
        api, inputs, *setup = set_up(workload, order, clock)
        bench = SimpleNamespace(workload=workload, api=api, refs=refs, order=order, clock=clock)
        machine = machine_record(workload.name, args.seed)
        lines = [f"workload: {workload.name} seed: {args.seed} seconds: {args.seconds} "
                 f"trace: {args.trace}", "machine: " + json.dumps(machine)]
        times = None
        if args.trace:
            metrics, attempted, failed, ok = per_layer(
                bench, inputs, args.seconds, args.seed, lines)
        else:
            metrics, attempted, failed, times = end_to_end(
                bench, inputs, args.seconds, setup, lines)
            ok = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    out = Path(args.out) if args.out else (
        STATE / "results" / f"{workload.name}-s{args.seed}-t{args.trace}-{time.time_ns()}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    record = {"machine": machine, "seconds": args.seconds, "trace": args.trace,
              "notes": lines[2:], "op_s": times, "result": result}
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
