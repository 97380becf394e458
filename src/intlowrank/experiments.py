"""Experiment harnesses behind the experiment CLI subcommands.

Trials run one after another, each seeded individually from the master
seed, so results are deterministic. The distribution experiment takes
its matrix from the caller; the comparison draws a fresh one per trial.
"""

from dataclasses import dataclass

import numpy as np

from .factorize import STATUS_RANK_DEFICIENT, FactorizationConfig, bcd_factorize

MODAL_BANDS = 10


def trial_seed(master_seed, index):
    """Derived seed for one trial: master * 1000003 + index."""
    return master_seed * 1_000_003 + index


def random_product_matrix(n, rank, lo, hi, seed):
    """n x n A = U V, factors drawn uniformly from [lo, hi]; a ValueError if int64 could wrap."""
    if rank * max(abs(int(lo)), abs(int(hi))) ** 2 > 2**63 - 1:
        raise ValueError(f"a rank-{rank} product of entries in [{lo}, {hi}] can leave int64")
    rng = np.random.default_rng(seed)
    U = rng.integers(lo, hi + 1, size=(n, rank), dtype=np.int64)
    V = rng.integers(lo, hi + 1, size=(rank, n), dtype=np.int64)
    return U @ V


@dataclass
class TrialOutcome:
    trial: int
    seed: int
    residual: int | None  # None encodes a rank-deficiency failure
    sweeps: int
    status: str


def distribution_experiment(A, rank, lo, hi, trials, seed):
    """Residual distribution of boxed factorization restarts.

    The integer matrix A is factorized `trials` times from random initial
    factors with entries in [lo, hi]; returns the list of TrialOutcome.
    A trial is init "random" with its seed, as factorize --init random runs it.
    """

    def one(t):
        s = trial_seed(seed, t)
        config = FactorizationConfig(rank, box_u=(lo, hi), box_v=(lo, hi), init="random", seed=s)
        result = bcd_factorize(A, config)
        failed = result.status == STATUS_RANK_DEFICIENT
        final = None if failed else result.final_residual
        return TrialOutcome(t, s, final, result.sweeps, result.status)

    return [one(t) for t in range(1, trials + 1)]


@dataclass
class CompareOutcome:
    """One trial of compare_experiment; the field names are the CSV columns."""

    trial: int
    a_seed: int
    v0_seed: int
    residual_ilsb: int | None  # the exact run: boxed ILS block solves
    sweeps_ilsb: int
    status_ilsb: str
    residual_baseline: int | None
    sweeps_baseline: int
    status_baseline: str


def compare_experiment(n, rank, lo, hi, trials, seed):
    """Exact block solves versus the rounded real-least-squares baseline.

    Each trial draws a fresh A = U V, then runs both methods from the
    same random initial factor (init "random" with the trial's v0 seed).
    """

    def one(t):
        a_seed = trial_seed(seed, 2 * t)
        v0_seed = trial_seed(seed, 2 * t + 1)
        A = random_product_matrix(n, rank, lo, hi, a_seed)
        outcomes = {}
        for method in ("ils", "rounded_ls"):
            config = FactorizationConfig(
                rank, box_u=(lo, hi), box_v=(lo, hi), init="random", seed=v0_seed, method=method
            )
            result = bcd_factorize(A, config)
            # A run that degenerates to a rank-deficient iterate still
            # achieved its last consistent residual; the status column
            # carries the failure.
            outcomes[method] = (result.final_residual, result.sweeps, result.status)
        return CompareOutcome(t, a_seed, v0_seed, *outcomes["ils"], *outcomes["rounded_ls"])

    return [one(t) for t in range(1, trials + 1)]


def summarize_residuals(values):
    """Interval and mean of the residual values that are not None."""
    ok = [v for v in values if v is not None]
    if not ok:
        return {"interval": None, "average": None}
    return {"interval": (min(ok), max(ok)), "average": sum(ok) / len(ok)}


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
