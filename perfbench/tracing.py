"""Outside-in layer tracing through the package's module attributes.

The package looks up its collaborators as module globals at call time
(for example `factorize.update_u` calls the `solve_ilsb` global of
`intlowrank.factorize`). The tracer replaces those attributes with
wrappers that record one span per call, and restores the originals
afterwards; nothing under src/ changes. A span is (name, start, end,
parent span, operation id); spans stay in memory and are written out
when the run ends.
"""

import functools
import inspect
import json
import statistics
import time

import numpy as np

# (module, attribute, span name). The last four are the entry points the
# workloads call; the rest are the collaborators the package looks up.
SEAMS = (
    ("factorize", "update_u", "factorize.update"),
    ("factorize", "update_v", "factorize.update"),
    ("factorize", "residual", "factorize.residual"),
    ("factorize", "solve_ils", "ils.solve_ils"),
    ("factorize", "solve_ilsb", "boxed.solve_ilsb"),
    ("ils", "plll_reduce", "ils.plll_reduce"),
    ("ils", "se_search", "ils.se_search"),
    ("ils", "householder_qr_min_pivot", "linalg.householder_qr_min_pivot"),
    ("boxed", "mch_reduce", "boxed.mch_reduce"),
    ("boxed", "compute_bound_table", "boxed.compute_bound_table"),
    ("boxed", "boxed_search", "boxed.boxed_search"),
    ("boxed", "householder_qr", "linalg.householder_qr"),
    ("experiments", "bcd_factorize", "factorize.bcd_factorize"),
    ("cli", "bcd_factorize", "factorize.bcd_factorize"),
    ("cli", "distribution_experiment", "experiments.distribution_experiment"),
    ("cli", "load_matrix", "matrixio.load_matrix"),
    ("cli", "save_matrix", "matrixio.save_matrix"),
    ("cli", "residual", "factorize.residual"),
    ("factorize", "bcd_factorize", "factorize.bcd_factorize"),
    ("ils", "solve_ils", "ils.solve_ils"),
    ("boxed", "solve_ilsb", "boxed.solve_ilsb"),
    ("cli", "main", "cli.main"),
)

SEARCHES = ("ils.se_search", "boxed.boxed_search")
REDUCTIONS = ("ils.plll_reduce", "boxed.mch_reduce")
SUBPROBLEMS = ("ils.solve_ils", "boxed.solve_ilsb")

# Span totals reported per layer, as "<span name>.<kind>".
LAYER_METRICS = (
    ("linalg.householder_qr", ("calls", "busy_s")),
    ("linalg.householder_qr_min_pivot", ("calls", "busy_s")),
    ("ils.solve_ils", ("calls", "self_s")),
    ("ils.plll_reduce", ("calls", "self_s")),
    ("ils.se_search", ("calls", "busy_s", "nodes")),
    ("boxed.solve_ilsb", ("calls", "self_s")),
    ("boxed.mch_reduce", ("calls", "self_s")),
    ("boxed.compute_bound_table", ("calls", "busy_s")),
    ("boxed.boxed_search", ("calls", "busy_s", "nodes")),
    ("factorize.bcd_factorize", ("self_s",)),
    ("factorize.update", ("calls", "self_s")),
    ("factorize.residual", ("calls", "busy_s")),
    ("matrixio.load_matrix", ("busy_s",)),
    ("matrixio.save_matrix", ("busy_s",)),
    ("cli.main", ("self_s",)),
)

# Exact counts per operation; a traced run compares them with earlier runs.
COUNT_KEYS = ("nodes", "sweeps", "half_sweeps", "reductions", "subproblems")


def seam_snapshot(api):
    """The objects currently bound at every seam, to prove a clean uninstall."""
    return {(m, a): getattr(getattr(api, m), a, None) for m, a, _ in SEAMS}


class Tracer:
    """Installs span-recording wrappers on the package and derives layer metrics."""

    def __init__(self, api):
        self.api = api
        self.spans = []  # [name, start, end, parent index, operation id]
        self.nodes = {}  # span index -> search nodes visited
        self.sweeps = {}  # operation id -> sweeps reported by bcd_factorize
        self.rows_changed = 0
        self.rows_compared = 0
        self.op = None
        self.missing = []
        self._stack = []
        self._saved = []
        self._incumbent = {}

    # -- installing -------------------------------------------------------

    def install(self):
        for module_name, attr, span in SEAMS:
            module = getattr(self.api, module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, span, attr, fn):
        after = None
        if span in SEARCHES:
            return self._wrap_search(span, fn)
        if attr == "update_u":
            after = functools.partial(self._after_update, "U", "V")
        elif attr == "update_v":
            after = functools.partial(self._after_update, "V", "U")
        elif attr == "bcd_factorize":
            after = self._after_bcd

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if attr == "bcd_factorize":
                self._incumbent = {}
            index = self._open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _wrap_search(self, span, fn):
        signature = inspect.signature(fn)
        stats_type = self.api.ils.SearchStats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            stats = bound.arguments.get("stats")
            if stats is None:
                stats = bound.arguments["stats"] = stats_type()
            before = stats.nodes
            index = self._open(span)
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                self._close(index)
                self.nodes[index] = stats.nodes - before

        return wrapper

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _after_update(self, block, other, args, kwargs, out):
        # update_u(A, V) receives the incumbent V that the next update_v
        # replaces, and returns the U that replaces the incumbent U passed
        # to the previous update_v. Rows of U and columns of V are the
        # solved subproblems.
        new = np.asarray(out) if block == "U" else np.asarray(out).T
        old = self._incumbent.get(block)
        if old is not None and old.shape == new.shape:
            self.rows_compared += new.shape[0]
            self.rows_changed += int((old != new).any(axis=1).sum())
        given = np.asarray(args[1] if len(args) > 1 else kwargs[other])
        self._incumbent[other] = given if other == "U" else given.T

    def _after_bcd(self, args, kwargs, out):
        self.sweeps[self.op] = self.sweeps.get(self.op, 0) + int(out.sweeps)

    # -- deriving metrics --------------------------------------------------

    def _durations(self):
        busy = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += busy[i]
        return busy, [b - c for b, c in zip(busy, child)]

    def op_counts(self):
        """Exact counts per operation id, in COUNT_KEYS order."""
        counts = {}
        for i, (name, _, _, _, op) in enumerate(self.spans):
            c = counts.setdefault(op, dict.fromkeys(COUNT_KEYS, 0))
            c["nodes"] += self.nodes.get(i, 0)
            c["half_sweeps"] += name == "factorize.update"
            c["reductions"] += name in REDUCTIONS
            c["subproblems"] += name in SUBPROBLEMS
        for op, sweeps in self.sweeps.items():
            counts.setdefault(op, dict.fromkeys(COUNT_KEYS, 0))["sweeps"] = sweeps
        return {op: [c[k] for k in COUNT_KEYS] for op, c in counts.items()}

    def layer_metrics(self):
        """Per-layer totals over all traced operations, named as in BENCHMARK.json."""
        busy, own = self._durations()
        calls, busy_s, self_s, nodes = {}, {}, {}, {}
        trial_times = []
        reductions_in_updates = 0
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            busy_s[name] = busy_s.get(name, 0.0) + busy[i]
            self_s[name] = self_s.get(name, 0.0) + own[i]
            nodes[name] = nodes.get(name, 0) + self.nodes.get(i, 0)
            parent_name = self.spans[parent][0] if parent >= 0 else None
            if name == "factorize.bcd_factorize" and parent_name == "experiments.distribution_experiment":
                trial_times.append(busy[i])
            if name in REDUCTIONS and self._has_ancestor(i, "factorize.update"):
                reductions_in_updates += 1

        totals = {"calls": calls, "busy_s": busy_s, "self_s": self_s, "nodes": nodes}
        m = {}
        for name, kinds in LAYER_METRICS:
            for kind in kinds:
                m[f"{name}.{kind}"] = totals[kind].get(name, 0)
        for name in SEARCHES:
            n = nodes.get(name, 0)
            m[f"{name}.ns_per_node"] = busy_s.get(name, 0.0) * 1e9 / n if n else 0.0
        half_sweeps = calls.get("factorize.update", 0)
        m["factorize.sweeps"] = sum(self.sweeps.values())
        m["factorize.reductions_per_half_sweep"] = (
            reductions_in_updates / half_sweeps if half_sweeps else 0.0
        )
        m["factorize.rows_changed_ratio"] = (
            self.rows_changed / self.rows_compared if self.rows_compared else 0.0
        )
        m["experiments.trials"] = len(trial_times)
        m["experiments.trial_s_p50"] = statistics.median(trial_times) if trial_times else 0.0
        m["experiments.self_s"] = self_s.get("experiments.distribution_experiment", 0)
        return m

    def _has_ancestor(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        """Write every span, one JSON array per line, with its search nodes."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([name, start, end, parent, op, self.nodes.get(i, 0)]) + "\n")
