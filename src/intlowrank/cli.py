"""Command-line front end.

Subcommands: `ils` (one integer least squares solve), `factorize`
(low-rank factorization of a matrix file, emitting factor files plus a
JSON run report), and the two experiment harnesses that write CSV.
Exit codes: 0 success, 2 invalid input (a parse or parameter error, an
output file that cannot be written: any ValueError but the next two),
3 rank-deficient input, 4 empty box, 5 internal consistency failure
(the reported final residual does not match the emitted factors), 141
standard output closed before everything was written (128 + SIGPIPE,
as a shell reports a process that a closed pipe ends).
"""

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from .boxed import BoxConstraint, solve_ilsb
from .exceptions import EmptyBoxError, MatrixParseError, RankDeficientError
from .experiments import (
    compare_experiment,
    distribution_experiment,
    modal_band,
    random_product_matrix,
    summarize_residuals,
    trial_seed,
)
from .factorize import STATUS_RANK_DEFICIENT, FactorizationConfig, bcd_factorize, residual
from .ils import SearchStats, solve_ils
from .matrixio import as_vector, load_matrix, read_matrix, save_matrix

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RANK_DEFICIENT = 3
EXIT_EMPTY_BOX = 4
EXIT_INTERNAL = 5
EXIT_BROKEN_PIPE = 141

CSV_SCHEMA_VERSION = 1
FAIL_TOKEN = "FAIL"


@contextlib.contextmanager
def _writing(path):
    """Report an OSError raised while writing path as a ValueError naming it."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_all(outputs):
    """Write every (path, write) of outputs, or none of them.

    write(tmp) writes one output to a temporary file beside its path. The
    temporaries replace their paths only once all are written, and if a
    replacement fails the outputs already moved into place are removed,
    so a failed command leaves no partial output behind. Raises
    ValueError naming the path that could not be written.
    """
    staged, placed = [], []
    try:
        for path, write in outputs:
            staged.append(f"{path}.{os.getpid()}.tmp")
            with _writing(path):
                write(staged[-1])
        for (path, _), tmp in zip(outputs, staged):
            with _writing(path):
                os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for path in placed:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    finally:
        for tmp in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def _write_report(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def _fmt_num(v):
    if v is None:
        return FAIL_TOKEN
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


def _require_int(M, path):
    if not np.issubdtype(M.dtype, np.integer):
        raise MatrixParseError(f"{path}: integer entries required")
    return M


def _load_int_matrix(path):
    return _require_int(load_matrix(path), path)


def cmd_ils(args):
    H = load_matrix(args.h_file)
    y = as_vector(load_matrix(args.y_file), name="y")
    stats = SearchStats()
    if args.box is not None:
        lo, hi = args.box
        box = BoxConstraint.uniform(H.shape[1], lo, hi)
        x, resid_sq = solve_ilsb(H, y, box, stats=stats)
    else:
        x, resid_sq = solve_ils(H, y, stats=stats)
    print("x:", " ".join(str(int(v)) for v in x))
    print(f"residual_sq: {resid_sq:.12g}")
    print(f"residual: {np.sqrt(resid_sq):.12g}")
    print(f"search_nodes: {stats.nodes}")
    return EXIT_OK


def _resolve_init(choice):
    if choice == "most-frequent":
        return "most_frequent"
    if choice == "random":
        return "random"
    return _load_int_matrix(choice)


def cmd_factorize(args):
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    a_path = Path(args.a_file)
    data, A = read_matrix(a_path)  # one read, so the digest describes the matrix factorized
    A = _require_int(A, a_path)
    config = FactorizationConfig(
        rank=args.rank,
        max_sweeps=args.max_sweeps,
        box_u=tuple(args.box_u) if args.box_u else None,
        box_v=tuple(args.box_v) if args.box_v else None,
        init=_resolve_init(args.init),
        seed=args.seed,
    )
    started = time.perf_counter()
    result = bcd_factorize(A, config)
    wall = time.perf_counter() - started

    final = result.final_residual
    if result.U is not None:
        recomputed = residual(A, result.U, result.V)
        if final != recomputed:
            print(
                f"error: internal consistency failure: final residual {final} "
                f"!= {recomputed} recomputed from the factors",
                file=sys.stderr,
            )
            return EXIT_INTERNAL
    prefix = args.out_prefix or str(a_path.with_suffix(""))
    factors = {name: M for name, M in (("U", result.U), ("V", result.V)) if M is not None}
    written = {name: f"{prefix}.{name}.txt" for name in factors}
    report = {
        "input": str(a_path),
        "input_sha256": hashlib.sha256(data).hexdigest(),
        "config": {
            "rank": args.rank,
            "max_sweeps": args.max_sweeps,
            "box_u": list(args.box_u) if args.box_u else None,
            "box_v": list(args.box_v) if args.box_v else None,
            "init": args.init,
            "seed": args.seed,
        },
        "residual_history": result.residual_history,
        "final_residual": final,
        "status": result.status,
        "sweeps": result.sweeps,
        "wall_time_s": wall,
        "search_nodes_total": sum(result.half_sweep_nodes),
        "half_sweep_nodes": result.half_sweep_nodes,
        "factor_files": written,
    }
    report_path = f"{prefix}.report.json"
    outputs = [(written[name], functools.partial(save_matrix, M=M)) for name, M in factors.items()]
    outputs.append((report_path, functools.partial(_write_report, report=report)))
    _write_all(outputs)

    print(f"status: {result.status}")
    print(f"final_residual: {final if final is not None else 'n/a'}")
    print(f"sweeps: {result.sweeps}")
    print(f"report: {report_path}")
    for name, path in written.items():
        print(f"{name}: {path}")
    return EXIT_OK


def _check_experiment_params(n, rank, lo, hi, trials, seed):
    if n is not None and n < 2:
        raise ValueError("--n must be at least 2")
    if rank < 1 or (n is not None and rank >= n):
        raise ValueError("--rank must satisfy 1 <= rank < n")
    BoxConstraint.uniform(1, lo, hi)  # an empty or out-of-int64 --box fails as in every command
    if trials < 1:
        raise ValueError("--trials must be positive")
    if seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {seed}")


def _write_csv(comment_lines, outcomes, footer_lines, path):
    """Write path: a header of the outcome dataclass's field names, then one row per outcome.

    outcomes is a nonempty list of one dataclass. path comes last so that
    a partial of the rest is a writer for _write_all.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in comment_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(f.name for f in fields(outcomes[0])) + "\n")
        for outcome in outcomes:
            fh.write(",".join(_fmt_num(v) for v in astuple(outcome)) + "\n")
        for line in footer_lines:
            fh.write(f"# {line}\n")


def cmd_experiment_distribution(args):
    lo, hi = args.box
    if (args.n is None) == (args.a_file is None):
        raise ValueError("give exactly one of --n and --a-file")
    _check_experiment_params(args.n, args.rank, lo, hi, args.trials, args.seed)
    if args.a_file is not None:
        A = _load_int_matrix(args.a_file)
        source = f"file:{args.a_file}"
    else:
        a_seed = trial_seed(args.seed, 0)
        A = random_product_matrix(args.n, args.rank, lo, hi, a_seed)
        source = f"generated(seed={a_seed})"

    started = time.perf_counter()
    outcomes = distribution_experiment(A, args.rank, lo, hi, args.trials, args.seed)
    wall = time.perf_counter() - started
    residuals = [o.residual for o in outcomes]
    summary = summarize_residuals(residuals)
    failures = sum(1 for o in outcomes if o.status == STATUS_RANK_DEFICIENT)
    band = modal_band(residuals)
    comments = [
        f"intlowrank distribution-experiment v{CSV_SCHEMA_VERSION}",
        f"a={source} shape={A.shape[0]}x{A.shape[1]} rank={args.rank} "
        f"box=[{lo},{hi}] trials={args.trials} seed={args.seed}",
        "per-trial init seed = seed*1000003 + trial",
    ]
    footer = [
        f"failures: {failures}",
        f"zero_residual_trials: {sum(1 for r in residuals if r == 0)}",
        f"interval: {summary['interval']}",
        f"average: {_fmt_num(summary['average'])}",
        f"modal_band: {band}",
    ]
    _write_all([(args.out, functools.partial(_write_csv, comments, outcomes, footer))])
    print(
        f"wrote {args.out}: {args.trials} trials, {failures} failures, "
        f"wall_time_s={wall:.3f}"
    )
    return EXIT_OK


def cmd_experiment_compare(args):
    lo, hi = args.box
    rank = args.rank if args.rank is not None else max(args.n // 5, 1)
    _check_experiment_params(args.n, rank, lo, hi, args.trials, args.seed)

    started = time.perf_counter()
    outcomes = compare_experiment(args.n, rank, lo, hi, args.trials, args.seed)
    wall = time.perf_counter() - started
    exact = summarize_residuals([o.residual_ilsb for o in outcomes])
    base = summarize_residuals([o.residual_baseline for o in outcomes])
    exact_fail = sum(1 for o in outcomes if o.status_ilsb == STATUS_RANK_DEFICIENT)
    base_fail = sum(1 for o in outcomes if o.status_baseline == STATUS_RANK_DEFICIENT)
    paired = [
        (o.residual_ilsb, o.residual_baseline)
        for o in outcomes
        if o.residual_ilsb is not None and o.residual_baseline is not None
    ]
    superior = sum(1 for a, b in paired if a < b)
    percent = 100.0 * superior / len(paired) if paired else float("nan")
    sweeps_avg = sum(o.sweeps_ilsb for o in outcomes) / len(outcomes)

    comments = [
        f"intlowrank compare-experiment v{CSV_SCHEMA_VERSION}",
        f"n={args.n} rank={rank} box=[{lo},{hi}] trials={args.trials} seed={args.seed}",
        "per-trial seeds: a = seed*1000003 + 2*trial, init = seed*1000003 + 2*trial + 1",
    ]
    footer = [
        f"ilsb: sweeps_avg={sweeps_avg:.2f} interval={exact['interval']} "
        f"average={_fmt_num(exact['average'])} fail={exact_fail}",
        f"baseline: interval={base['interval']} "
        f"average={_fmt_num(base['average'])} fail={base_fail}",
        f"percent_superior: {percent:.1f}",
    ]
    _write_all([(args.out, functools.partial(_write_csv, comments, outcomes, footer))])
    print(f"wrote {args.out}: percent_superior={percent:.1f}, wall_time_s={wall:.3f}")
    return EXIT_OK


@functools.cache
def build_parser():
    """The CLI's parser, built on first use and then shared: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="intlowrank",
        description="Integer least squares solvers and integer low-rank factorization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ils", help="solve one integer least squares problem")
    p.add_argument("h_file", help="coefficient matrix file")
    p.add_argument("y_file", help="target vector file")
    p.add_argument("--box", nargs=2, type=int, metavar=("L", "U"),
                   help="entrywise interval constraint on x")
    p.set_defaults(func=cmd_ils)

    p = sub.add_parser("factorize", help="integer low-rank factorization of a matrix file")
    p.add_argument("a_file", help="integer data matrix file")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--box-u", nargs=2, type=int, metavar=("L", "U"))
    p.add_argument("--box-v", nargs=2, type=int, metavar=("L", "U"))
    p.add_argument("--init", default="most-frequent",
                   help="most-frequent, random, or a factor file (default: most-frequent)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-sweeps", type=int, default=100)
    p.add_argument("--out-prefix", help="default: the data file path without extension")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("experiment-distribution",
                       help="residual distribution over random restarts (CSV)")
    p.add_argument("--n", type=int, help="generate an n-by-n A (excludes --a-file)")
    p.add_argument("--a-file", help="factorize this matrix file (excludes --n)")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--box", nargs=2, type=int, metavar=("L", "U"), default=(1, 4))
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment_distribution)

    p = sub.add_parser("experiment-compare",
                       help="exact block solves vs rounded least squares baseline (CSV)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rank", type=int, help="default: n // 5")
    p.add_argument("--box", nargs=2, type=int, metavar=("L", "U"), default=(1, 4))
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment_compare)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RankDeficientError as exc:
        print(f"error: rank deficient input: {exc}", file=sys.stderr)
        return EXIT_RANK_DEFICIENT
    except EmptyBoxError as exc:
        print(f"error: empty box: {exc}", file=sys.stderr)
        return EXIT_EMPTY_BOX
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away. Point stdout at devnull so that the flush
        # at interpreter exit cannot raise again (the Python docs' SIGPIPE
        # recipe).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    run()
