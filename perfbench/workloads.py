"""The four benchmark workloads: input catalogues, operations and correctness gates.

Each workload owns a catalogue of instances. Instance `i` is generated
from the fixed seed pair (workload tag, i), so its reference outcome,
recorded once at the seed commit, is stored in reference.json and checked
on every operation. The workload seed picks which instances a run uses
and in which order (`instance_order`), balanced over the workload's
strata so that every run meets easy and hard instances in the same
proportion. A run draws without repetition until the catalogue is
exhausted, so no two operations of a run share an input at the speed of
the seed commit.

Operations call the package only through its public entry points,
looked up on the module at call time so that the tracer and the
self-test can substitute them: `factorize.bcd_factorize`,
`ils.solve_ils`, `boxed.solve_ilsb` and the in-process `cli.main`.

Every gate is independent of the package's own checks: residuals are
recomputed in Python integers from the returned or emitted factors, and
ILS answers are tested against every single-coordinate +/-1 move.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

STATUSES = ("converged", "max_sweeps", "rank_deficient_failure")
RANK_DEFICIENT = "rank_deficient_failure"


def instance_order(seed, keys):
    """Catalogue permutation that a run with this workload seed follows.

    keys[i] is the stratum of instance i. Every prefix of the order holds
    each stratum in proportion to its size, so how many hard instances a
    run meets does not depend on the seed or on how far the run gets.
    """
    rng = np.random.default_rng([int(seed), 0x5EED])
    strata = {}
    for i, key in enumerate(keys):
        strata.setdefault(key, []).append(i)
    keyed = []
    for key in sorted(strata):
        ids = rng.permutation(strata[key])
        offset = rng.random()
        keyed += [((rank + offset) / len(ids), int(i)) for rank, i in enumerate(ids)]
    return np.array([i for _, i in sorted(keyed)])


def quantile_bands(ids, difficulty, edges):
    """{id: number of quantile edges its difficulty rank among ids reaches}."""
    ranked = sorted(ids, key=lambda i: (difficulty[i], i))
    return {i: sum(rank >= q * len(ranked) for q in edges) for rank, i in enumerate(ranked)}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def history_digest(history):
    return digest(",".join(str(int(v)) for v in history))


def exact_residual(A, U, V):
    """||A - U V||_F^2 in Python integers, one row at a time.

    Only one row of A - U V exists as Python integers at any moment, so
    the gate allocates far less than the package's own residual() and
    does not set the process's peak memory.
    """
    V = np.asarray(V).astype(object)
    total = 0
    for a, u in zip(np.asarray(A), np.asarray(U)):
        d = a.astype(object) - u.astype(object) @ V
        total += int((d * d).sum())
    return total


def rank_product(rng, m, n, k, lo, hi):
    U = rng.integers(lo, hi + 1, size=(m, k), dtype=np.int64)
    V = rng.integers(lo, hi + 1, size=(k, n), dtype=np.int64)
    return U @ V


def write_int_matrix(path, M):
    lines = (" ".join(str(int(v)) for v in row) for row in np.asarray(M))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_history(history, errors):
    if not history:
        return
    if any(b > a for a, b in zip(history, history[1:])):
        errors.append(f"residual history rises: {history}")


def quiet_main(api, argv):
    """Run the in-process CLI with its stdout captured; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return api.cli.main(argv)


class Workload:
    """One workload. Subclasses define generation, the operation and its gate.

    `nominal_op_s` is the loop time per operation at the seed commit, on
    the slow side of its range on a shared 2-vCPU Xeon VM. It sizes the fixed
    operation count of a traced run and the percentile of op_s_tail, so
    that neither depends on the speed of the code or the machine.
    """

    name = ""
    tag = 0
    catalogue_size = 0
    nominal_op_s = 1.0

    def __init__(self, workdir):
        self.workdir = Path(workdir)

    def rng(self, instance):
        return np.random.default_rng([self.tag, int(instance)])

    def strata(self, refs):
        """Stratum of each catalogue instance, for instance_order."""
        return [0] * self.catalogue_size

    def make(self, instance):
        raise NotImplementedError

    def run(self, api, inp):
        raise NotImplementedError

    def check(self, inp, out, ref):
        """List of failure messages for one operation; empty when correct."""
        raise NotImplementedError

    def record(self, api, inp):
        """Run one instance and return (output, the outcome for reference.json)."""
        out = self.run(api, inp)
        return out, self.outcome(inp, out)

    def outcome(self, inp, out):
        raise NotImplementedError

    def warm_up(self, api):
        """One small operation that loads everything the package loads lazily."""
        raise NotImplementedError

    def cleanup(self, inp):
        pass


class BcdBoxed(Workload):
    """`bcd_factorize` on a 60x60 rank-6 product with the box [1,4] on both factors.

    The run is capped at 4 sweeps, so every operation solves the same
    480 subproblems: uncapped, sweep counts of 9 to 25 make the per-run
    median depend more on which instances were drawn than on the code.
    """

    name = "bcd-boxed"
    tag = 11
    catalogue_size = 128
    nominal_op_s = 0.4
    n, rank, box, max_sweeps = 60, 6, (1, 4), 4

    def make(self, instance):
        rng = self.rng(instance)
        A = rank_product(rng, self.n, self.n, self.rank, *self.box)
        V0 = rng.integers(self.box[0], self.box[1] + 1, size=(self.rank, self.n), dtype=np.int64)
        return {"A": A, "V0": V0}

    def _factorize(self, api, A, V0, max_sweeps):
        config = api.factorize.FactorizationConfig(
            rank=V0.shape[0], box_u=self.box, box_v=self.box, init=V0, max_sweeps=max_sweeps
        )
        return api.factorize.bcd_factorize(A, config)

    def run(self, api, inp):
        return self._factorize(api, inp["A"], inp["V0"], self.max_sweeps)

    def check(self, inp, out, ref):
        errors = []
        if out.status not in STATUSES:
            errors.append(f"unknown status {out.status!r}")
        history = [int(v) for v in out.residual_history]
        check_history(history, errors)
        if out.U is not None and out.V is not None:
            U, V = np.asarray(out.U), np.asarray(out.V)
            lo, hi = self.box
            if U.shape != (self.n, self.rank) or V.shape != (self.rank, self.n):
                errors.append(f"factor shapes {U.shape}, {V.shape}")
            elif U.min() < lo or U.max() > hi or V.min() < lo or V.max() > hi:
                errors.append("factor entry outside the box")
            elif not history or exact_residual(inp["A"], U, V) != history[-1]:
                errors.append("final residual differs from ||A - UV||^2")
        elif out.status != RANK_DEFICIENT:
            errors.append(f"missing factors with status {out.status}")
        if [out.status, history_digest(history)] != ref:
            errors.append(f"outcome {out.status}/{history_digest(history)} != reference {ref}")
        return errors

    def outcome(self, inp, out):
        return [out.status, history_digest(out.residual_history)]

    def warm_up(self, api):
        rng = np.random.default_rng(0)
        A = rank_product(rng, 12, 12, 2, *self.box)
        self._factorize(api, A, rng.integers(1, 5, size=(2, 12), dtype=np.int64), 2)


class BcdUnboxedCli(Workload):
    """In-process `intlowrank factorize A.txt --rank 3` on a 200x200 rank-3 product.

    Default most-frequent initialisation and no box. Capped at 3 sweeps
    for the reason given in BcdBoxed. About a fifth of the instances end
    in a pinned `rank_deficient_failure` after one sweep, a valid outcome.
    """

    name = "bcd-unboxed-cli"
    tag = 12
    catalogue_size = 96
    nominal_op_s = 0.65
    n, rank, max_sweeps = 200, 3, 3

    def strata(self, refs):
        """Rank-deficient outcomes stop after one sweep, so they form their own stratum."""
        return [status for status, _ in refs]

    def make(self, instance):
        A = rank_product(self.rng(instance), self.n, self.n, self.rank, 1, 4)
        path = self.workdir / f"cli-{instance}.txt"
        write_int_matrix(path, A)
        return {"A": A, "path": path, "prefix": self.workdir / f"cli-{instance}.out"}

    def _argv(self, path, prefix, rank, max_sweeps):
        return ["factorize", str(path), "--rank", str(rank), "--max-sweeps", str(max_sweeps),
                "--out-prefix", str(prefix)]

    def run(self, api, inp):
        argv = self._argv(inp["path"], inp["prefix"], self.rank, self.max_sweeps)
        return quiet_main(api, argv)

    def _report(self, inp):
        return json.loads(Path(f"{inp['prefix']}.report.json").read_text(encoding="utf-8"))

    def check(self, inp, out, ref):
        if out != 0:
            return [f"exit code {out}"]
        errors = []
        try:
            report = self._report(inp)
        except (OSError, ValueError) as exc:
            return [f"unreadable report: {exc}"]
        status = report.get("status")
        history = [int(v) for v in report.get("residual_history", [])]
        if status not in STATUSES:
            errors.append(f"unknown status {status!r}")
        check_history(history, errors)
        if report.get("input_sha256") != hashlib.sha256(inp["path"].read_bytes()).hexdigest():
            errors.append("report input digest differs from the input file")
        files = report.get("factor_files", {})
        if "U" in files and "V" in files:
            U = np.loadtxt(files["U"], dtype=np.int64, ndmin=2)
            V = np.loadtxt(files["V"], dtype=np.int64, ndmin=2)
            if U.shape != (self.n, self.rank) or V.shape != (self.rank, self.n):
                errors.append(f"factor shapes {U.shape}, {V.shape}")
            elif exact_residual(inp["A"], U, V) != report.get("final_residual"):
                errors.append("reported final residual differs from the emitted factors")
            elif not history or history[-1] != report.get("final_residual"):
                errors.append("final residual is not the last history entry")
        elif status != RANK_DEFICIENT:
            errors.append(f"missing factor files with status {status}")
        if [status, history_digest(history)] != ref:
            errors.append(f"outcome {status}/{history_digest(history)} != reference {ref}")
        return errors

    def outcome(self, inp, out):
        report = self._report(inp)
        return [report["status"], history_digest(report["residual_history"])]

    def cleanup(self, inp):
        for suffix in (".U.txt", ".V.txt", ".report.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(f"{inp['prefix']}{suffix}")

    def warm_up(self, api):
        path = self.workdir / "warm-up.txt"
        write_int_matrix(path, rank_product(np.random.default_rng(0), 12, 12, 2, 1, 4))
        quiet_main(api, self._argv(path, self.workdir / "warm-up.out", 2, 2))


class IlsSearch(Workload):
    """One `solve_ils` (even instances) or `solve_ilsb` on [-8,8] (odd instances).

    H is a square integer matrix of dimension 22..27 with entries
    round(16 N(0,1)), and y = H x* + round(16 N(0,1)) with x* in the box.
    That noise makes the enumeration, not the reduction, the larger
    cost and gives heavy-tailed node counts. Integer data make every
    residual exact.
    """

    name = "ils-search"
    tag = 13
    catalogue_size = 2048
    nominal_op_s = 0.07
    box = (-8, 8)
    dims = (22, 27)
    scale = 16.0

    # Upper edges of the difficulty strata, as quantiles of the recorded node
    # counts; the fine top strata hold the heavy tail that op_s_tail reads.
    difficulty_edges = (0.5, 0.8, 0.9, 0.95, 0.98, 0.99)

    def strata(self, refs):
        """Solver and node-count quantile band of each instance at the reference commit."""
        nodes = [ref[3] for ref in refs]
        keys = [None] * len(refs)
        for parity in (0, 1):
            bands = quantile_bands(range(parity, len(refs), 2), nodes, self.difficulty_edges)
            for i, band in bands.items():
                keys[i] = (parity, band)
        return keys

    def make(self, instance):
        rng = self.rng(instance)
        n = int(rng.integers(self.dims[0], self.dims[1] + 1))
        H = np.rint(rng.standard_normal((n, n)) * self.scale).astype(np.int64)
        x_star = rng.integers(self.box[0], self.box[1] + 1, size=n)
        y = H @ x_star + np.rint(rng.standard_normal(n) * self.scale).astype(np.int64)
        return {"H": H, "y": y, "boxed": bool(instance % 2)}

    def solve(self, api, H, y, boxed, stats=None):
        if boxed:
            box = api.boxed.BoxConstraint.uniform(H.shape[1], *self.box)
            return api.boxed.solve_ilsb(H, y, box, stats=stats)
        return api.ils.solve_ils(H, y, stats=stats)

    def run(self, api, inp):
        return self.solve(api, inp["H"], inp["y"], inp["boxed"])

    def check(self, inp, out, ref):
        H = inp["H"].astype(object)
        y = inp["y"].astype(object)
        x, reported = out
        x = np.asarray(x)
        if x.shape != (H.shape[1],) or not np.array_equal(x, np.rint(x)):
            return [f"answer is not an integer vector of length {H.shape[1]}"]
        x = x.astype(np.int64)
        lo, hi = self.box
        inside = bool((x >= lo).all() and (x <= hi).all())
        if inp["boxed"] and not inside:
            return ["boxed answer leaves the box"]
        r = y - H @ x.astype(object)
        value = int((r * r).sum())
        errors = []
        if abs(float(reported) - value) > 1e-9 * max(value, 1):
            errors.append(f"reported residual {reported} != exact {value}")
        # A +/-1 move in coordinate j changes the residual by |h_j|^2 -/+ 2 h_j.r.
        gain = 2 * (H.T @ r)
        norms = (H * H).sum(axis=0)
        for j in range(H.shape[1]):
            up_ok = not inp["boxed"] or x[j] < hi
            down_ok = not inp["boxed"] or x[j] > lo
            if (up_ok and norms[j] - gain[j] < 0) or (down_ok and norms[j] + gain[j] < 0):
                errors.append(f"a +/-1 move in coordinate {j} lowers the residual")
                break
        unboxed, boxed, unboxed_inside, _ = ref
        if value != (boxed if inp["boxed"] else unboxed):
            errors.append(f"residual {value} != reference optimum {ref}")
        # Both solvers must agree wherever the unboxed optimum is feasible.
        if not inp["boxed"] and inside and value != boxed:
            errors.append(f"unboxed optimum lies in the box but the boxed optimum is {boxed}")
        if inp["boxed"] and unboxed_inside and value != unboxed:
            errors.append(f"boxed optimum {value} != in-box unboxed optimum {unboxed}")
        return errors

    def record(self, api, inp):
        """Solve the instance both ways: each gate needs the other solver's optimum.

        The outcome also keeps the search nodes of the instance's own solver,
        which only sorts the instances into difficulty strata.
        """
        H, y = inp["H"], inp["y"]
        stats = [api.ils.SearchStats(), api.ils.SearchStats()]
        outs = [self.solve(api, H, y, boxed, stats[boxed]) for boxed in (False, True)]
        values = []
        for x, _ in outs:
            r = y.astype(object) - H.astype(object) @ np.asarray(x, dtype=np.int64).astype(object)
            values.append(int((r * r).sum()))
        lo, hi = self.box
        xu = np.asarray(outs[0][0])
        inside = bool((xu >= lo).all() and (xu <= hi).all())
        own = inp["boxed"]
        return outs[own], [values[0], values[1], inside, stats[own].nodes]

    def warm_up(self, api):
        rng = np.random.default_rng(0)
        H = np.rint(rng.standard_normal((6, 6)) * self.scale).astype(np.int64)
        y = H @ rng.integers(-3, 4, size=6)
        self.solve(api, H, y, False)
        self.solve(api, H, y, True)


class ExperimentDist(Workload):
    """In-process `intlowrank experiment-distribution --n 30 --rank 3 --box 1 4 --trials 4`.

    The experiment seed is 1000 + instance; the CSV is byte-reproducible,
    so its sha256 is the reference. Trials run to convergence, so the
    reference also keeps each instance's total sweeps, which only sorts
    the instances into difficulty strata.
    """

    name = "experiment-dist"
    tag = 14
    catalogue_size = 96
    nominal_op_s = 0.55
    n, rank, box, trials = 30, 3, (1, 4), 4

    def strata(self, refs):
        sweeps = [ref[1] for ref in refs]
        bands = quantile_bands(range(len(refs)), sweeps, (0.25, 0.5, 0.75, 0.9))
        return [bands[i] for i in range(len(refs))]

    def make(self, instance):
        return {"seed": 1000 + int(instance), "out": self.workdir / f"exp-{instance}.csv"}

    def _argv(self, n, trials, seed, out):
        lo, hi = self.box
        return ["experiment-distribution", "--n", str(n), "--rank", str(self.rank),
                "--box", str(lo), str(hi), "--trials", str(trials), "--seed", str(seed),
                "--out", str(out)]

    def run(self, api, inp):
        return quiet_main(api, self._argv(self.n, self.trials, inp["seed"], inp["out"]))

    def _csv_sha(self, inp):
        return hashlib.sha256(inp["out"].read_bytes()).hexdigest()

    def _rows(self, text):
        rows = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
        return rows[1:]

    def check(self, inp, out, ref):
        if out != 0:
            return [f"exit code {out}"]
        try:
            text = inp["out"].read_text(encoding="utf-8")
        except OSError as exc:
            return [f"unreadable CSV: {exc}"]
        errors = []
        body = self._rows(text)
        if len(body) != self.trials:
            errors.append(f"{len(body)} trial rows, expected {self.trials}")
        for t, row in enumerate(body, start=1):
            if len(row) != 5 or row[0] != str(t) or row[1] != str(inp["seed"] * 1_000_003 + t):
                errors.append(f"malformed trial row {row}")
                break
            if row[4] not in STATUSES or (row[2] == "FAIL") != (row[4] == RANK_DEFICIENT):
                errors.append(f"inconsistent trial row {row}")
                break
        fails = sum(1 for row in body if row[2:3] == ["FAIL"])
        if f"# failures: {fails}" not in text.splitlines():
            errors.append("failure count line disagrees with the trial rows")
        if self._csv_sha(inp) != ref[0]:
            errors.append(f"CSV sha256 {self._csv_sha(inp)[:16]} != reference {ref[0][:16]}")
        return errors

    def outcome(self, inp, out):
        sweeps = sum(int(row[3]) for row in self._rows(inp["out"].read_text(encoding="utf-8")))
        return [self._csv_sha(inp), sweeps]

    def cleanup(self, inp):
        with contextlib.suppress(FileNotFoundError):
            os.remove(inp["out"])

    def warm_up(self, api):
        quiet_main(api, self._argv(8, 1, 0, self.workdir / "warm-up.csv"))


WORKLOADS = {w.name: w for w in (BcdBoxed, BcdUnboxedCli, IlsSearch, ExperimentDist)}
