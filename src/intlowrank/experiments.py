"""Experiment harnesses behind the experiment CLI subcommands.

Trials run one after another, each seeded individually from the master
seed, so results are deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .factorize import (
    STATUS_RANK_DEFICIENT,
    FactorizationConfig,
    bcd_factorize,
    init_random,
)

MODAL_BANDS = 10


def trial_seed(master_seed, index):
    """Derived seed for one trial: master * 1000003 + index."""
    return master_seed * 1_000_003 + index


def random_product_matrix(n_rows, n_cols, rank, lo, hi, seed):
    """A = U V with both factors drawn uniformly from [lo, hi]."""
    rng = np.random.default_rng(seed)
    U = rng.integers(lo, hi + 1, size=(n_rows, rank), dtype=np.int64)
    V = rng.integers(lo, hi + 1, size=(rank, n_cols), dtype=np.int64)
    return U @ V


@dataclass
class TrialOutcome:
    trial: int
    seed: int
    residual: int | None  # None encodes a rank-deficiency failure
    sweeps: int
    status: str


def distribution_experiment(rank, lo, hi, trials, seed, a_matrix=None, n=None):
    """Residual distribution of boxed factorization restarts.

    One fixed data matrix (given, or generated as a random rank-`rank`
    product when absent) is factorized `trials` times from random initial
    factors with entries in [lo, hi]; returns (A, list of TrialOutcome).
    """
    if a_matrix is None:
        if n is None:
            raise ValueError("either a_matrix or n is required")
        a_matrix = random_product_matrix(n, n, rank, lo, hi, trial_seed(seed, 0))
    A = np.asarray(a_matrix)
    n_cols = A.shape[1]

    def one(t):
        s = trial_seed(seed, t)
        V0 = init_random(rank, n_cols, lo, hi, s)
        config = FactorizationConfig(rank=rank, box_u=(lo, hi), box_v=(lo, hi), init=V0)
        result = bcd_factorize(A, config)
        failed = result.status == STATUS_RANK_DEFICIENT
        final = None if failed else result.final_residual
        return TrialOutcome(t, s, final, result.sweeps, result.status)

    return A, [one(t) for t in range(1, trials + 1)]


@dataclass
class CompareOutcome:
    trial: int
    a_seed: int
    v0_seed: int
    residual_exact: int | None
    sweeps_exact: int
    status_exact: str
    residual_baseline: int | None
    sweeps_baseline: int
    status_baseline: str


def compare_experiment(n, rank, lo, hi, trials, seed):
    """Exact block solves versus the rounded real-least-squares baseline.

    Each trial draws a fresh A = U V and a fresh random initial factor,
    then runs both methods from that same initialization.
    """

    def one(t):
        a_seed = trial_seed(seed, 2 * t)
        v0_seed = trial_seed(seed, 2 * t + 1)
        A = random_product_matrix(n, n, rank, lo, hi, a_seed)
        V0 = init_random(rank, n, lo, hi, v0_seed)
        outcomes = {}
        for method in ("ils", "rounded_ls"):
            config = FactorizationConfig(
                rank=rank, box_u=(lo, hi), box_v=(lo, hi), init=V0, method=method
            )
            result = bcd_factorize(A, config)
            # A run that degenerates to a rank-deficient iterate still
            # achieved its last consistent residual; the status column
            # carries the failure.
            outcomes[method] = (result.final_residual, result.sweeps, result.status)
        return CompareOutcome(t, a_seed, v0_seed, *outcomes["ils"], *outcomes["rounded_ls"])

    return [one(t) for t in range(1, trials + 1)]


def summarize_residuals(values):
    """Interval, mean, and count of the non-failed residual values."""
    ok = [v for v in values if v is not None]
    fails = len(values) - len(ok)
    if not ok:
        return {"count": 0, "fail": fails, "interval": None, "average": None}
    return {
        "count": len(ok),
        "fail": fails,
        "interval": (min(ok), max(ok)),
        "average": sum(ok) / len(ok),
    }


def modal_band(values):
    """Most populated residual band among the non-failed trials.

    Splits [min, max] into MODAL_BANDS equal bins and returns
    ((lo, hi), count) for the densest one, or None when every trial failed.
    """
    ok = sorted(v for v in values if v is not None)
    if not ok:
        return None
    lo, hi = ok[0], ok[-1]
    if lo == hi:
        return (float(lo), float(hi)), len(ok)
    edges = np.linspace(lo, hi, MODAL_BANDS + 1)
    counts, _ = np.histogram(ok, bins=edges)
    b = int(np.argmax(counts))
    return (float(edges[b]), float(edges[b + 1])), int(counts[b])
