"""Block coordinate descent for integer low-rank factorization A ~= U V.

Each half-sweep solves its block subproblem to global optimality: the
rows of U (columns of V) are independent integer least squares problems
sharing the same coefficient matrix, so the exact squared Frobenius
residual never increases from one half-sweep to the next. A half-sweep
reduces that shared matrix once: without a box one lattice reduction
serves every row, and with a box, whose column order depends on each
row, one QR factorization does, and many rows are reordered in one
batched pass. A box of at most 1,024 points needs no reduction for most
rows: every point is scored exactly, and only rows whose optimum two
points share are reduced and searched. Equal rows of A (columns, for a
V update) are the same problem, so each distinct one is solved once and
the search nodes counted are the nodes actually searched, none for a
scored row. A run finds A's distinct rows and columns once, takes
each half-sweep's exact residual from k-sized products, and does not
solve a half-sweep again whose input factor has not changed. A rounded
real-least-squares variant of the sweep is provided as the comparison
baseline; it carries no optimality guarantee.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .boxed import BoxConstraint, solve_ilsb
from .exceptions import NotOrthonormalError, RankDeficientError
from .ils import SearchStats, _project, _read_problem, solve_ils
from .linalg import as_int64, householder_qr, max_abs, round_half_away

STATUS_CONVERGED = "converged"
STATUS_MAX_SWEEPS = "max_sweeps"
STATUS_RANK_DEFICIENT = "rank_deficient_failure"


def as_int_matrix(A):
    """A as a 2-D int64 array; a ValueError names an entry that is not an integer (as_int64)."""
    return np.atleast_2d(as_int64(A, "matrix entry"))


def residual(A, U, V):
    """Exact squared Frobenius residual of A - U V.

    Computed in int64 when every entry of A - U V is at most
    max|A| + k max|U| max|V| in magnitude and the sum of their squares
    is thereby below 2**63; otherwise in arbitrary-precision integer
    arithmetic. Either way the value is exact and cannot overflow.
    """
    A = as_int_matrix(A)
    U = as_int_matrix(U)
    V = as_int_matrix(V)
    entry_bound = max_abs(A) + U.shape[1] * max_abs(U) * max_abs(V)
    if A.size * entry_bound**2 >= 2**63:
        A, U, V = (M.astype(object) for M in (A, U, V))
    D = A - U @ V
    return int((D * D).sum())


def round_project_orthonormal(A, V):
    """Optimal integer U for a factor V with V V^T = I (checked exactly).

    Orthonormal integer rows make the row problems separable per
    coordinate, so rounding the projection A V^T is globally optimal.
    Each entry of A V^T is an entry of A, negated or not, so only a
    negated -2**63 leaves int64: that raises a ValueError, never wraps.
    """
    A = as_int_matrix(A)
    V = as_int_matrix(V)
    # Orthonormal integer rows have entries of at most 1, which keep V V^T from wrapping.
    if max_abs(V) > 1 or not np.array_equal(V @ V.T, np.eye(V.shape[0], dtype=np.int64)):
        raise NotOrthonormalError("V V^T != I")
    if max_abs(A) >= 2**63:
        return as_int64(A.astype(object) @ V.T.astype(object), "factor entry")
    return A @ V.T


def rounded_real_ls(H, y, box=None):
    """Round (and clamp to the box) the real least-squares solution.

    y is a vector or an m-by-p block, all from one QR of H, as for
    solve_ils. Comparison baseline only: the rounded point is generally not
    the integer optimum. A rounded coordinate outside int64 lies past every
    box bound, so it takes the bound on its side; without a box it raises
    a ValueError.
    """
    H, y = _read_problem(H, y, box)
    Q1, R = householder_qr(H)
    Y_hat = _project(Q1, y if y.ndim == 2 else y[:, None])
    W = np.empty(Y_hat.shape, order="F")
    for j in range(W.shape[1]):
        W[:, j] = np.linalg.solve(R, Y_hat[:, j])
    W = round_half_away(W)
    inside = (W >= -(2.0**63)) & (W < 2.0**63)  # exactly the floats that cast to int64
    if box is None and not inside.all():
        raise ValueError("a solution coordinate is outside the int64 range")
    X = np.where(inside, W, 0.0).astype(np.int64, order="F")
    if box is not None:
        lower, upper = box.lower[:, None], box.upper[:, None]
        np.clip(X, lower, upper, out=X)
        np.copyto(X, np.where(W > 0, upper, lower), where=~inside)
    return X if y.ndim == 2 else X[:, 0]


class _Data:
    """The facts about an int64 A that a run reads in every half-sweep, each derived once.

    rows and columns are A's rows (for a U update) and columns (for a V
    update) as (distinct, inverse): a copy of the float block of their
    first occurrences, keyed by their bytes, in that order, and the map
    back. Only the distinct block is kept, read-only.
    """

    def __init__(self, A):
        self.A = A

    @staticmethod
    def _distinct(Y):
        slots, first, inverse = {}, [], []
        for j, col in enumerate(np.asfortranarray(Y).T):
            key = col.tobytes()
            if key not in slots:
                slots[key] = len(first)
                first.append(j)
            inverse.append(slots[key])
        distinct = Y[:, first]
        distinct.flags.writeable = False  # every half-sweep of the run reads it
        return distinct, np.array(inverse)

    @cached_property
    def rows(self):
        return self._distinct(self.A.T.astype(float))

    @cached_property
    def columns(self):
        return self._distinct(self.A.astype(float, order="F"))

    @cached_property
    def max_abs(self):
        return max_abs(self.A)

    @cached_property
    def norm_sq(self):
        A = self.A if self.A.size * self.max_abs**2 < 2**63 else self.A.astype(object)
        return int((A * A).sum())

    def residual(self, U, V):
        """residual(A, U, V) as ||A||^2 - 2<U^T A, V> + <U^T U, V V^T>, from k-sized products.

        Computed in int64 when m n (max|A| + k u v)**2 < 2**63, with u and v
        the larger of 1 and max|U|, max|V|: that bounds every partial sum of
        every product. Otherwise in Python ints.
        """
        A = self.A
        u, v = max(max_abs(U), 1), max(max_abs(V), 1)
        if A.size * (self.max_abs + U.shape[1] * u * v) ** 2 >= 2**63:
            A, U, V = (M.astype(object) for M in (A, U, V))
        cross = int(((U.T @ A) * V).sum())
        return self.norm_sq - 2 * cross + int(((U.T @ U) * (V @ V.T)).sum())


def _solve_columns(H, block, box, method, stats):
    """X with column j minimizing ||Y[:, j] - H x_j||^2, one shared H for all j.

    block is Y as _Data gives it, (distinct, inverse): only the distinct
    columns are solved, as one block, and inverse copies each x to the
    columns equal to it. Every solver handles one column at a time
    against a reduction of H alone, so a subset of the columns gets the
    same answers and searches as the whole block.
    """
    distinct, inverse = block
    if method == "rounded_ls":
        X = rounded_real_ls(H, distinct, box)
    elif method != "ils":
        raise ValueError(f"unknown method {method!r}")
    elif box is None:
        X = solve_ils(H, distinct, stats)
    else:
        X = solve_ilsb(H, distinct, box, stats)
    full = np.empty((X.shape[0], inverse.size), dtype=np.int64, order="F")
    full[:] = X[:, inverse]
    return full


def _data(A):
    return A if isinstance(A, _Data) else _Data(as_int_matrix(A))


def update_u(A, V, box=None, method="ils", stats=None):
    """Minimize ||A - U V||_F^2 over U, row by row.

    Each row of U is an independent integer least squares problem with
    coefficient matrix V^T, which is reduced once for all rows; an
    optional box applies per coordinate to every row. Equal rows share
    one solve. The default method solves every distinct row globally and
    adds its search to stats; method "rounded_ls" substitutes the
    rounding baseline, which does not search. Raises RankDeficientError
    when V^T lacks full column rank.
    """
    data = _data(A)
    V = as_int_matrix(V)
    return _solve_columns(V.T, data.rows, box, method, stats).T


def update_v(A, U, box=None, method="ils", stats=None):
    """Column-wise mirror of update_u: solves min ||A(:,j) - U v|| per column."""
    data = _data(A)
    U = as_int_matrix(U)
    return _solve_columns(U, data.columns, box, method, stats)


def init_most_frequent(A, k):
    """Initial k x n factor built from the most frequent entries per column.

    Row 0 takes each column's most frequent value, frequency ties resolved
    toward the value closest to the column mean (then the smaller value).
    Later rows take the remaining values by descending frequency with ties
    toward the smaller value. A column with fewer than k distinct values
    is padded in every row r with its top value plus r, which may repeat a
    value the column holds, so rows need not be distinct. Raises
    ValueError when that padding leaves the int64 range.
    """
    A = as_int_matrix(A)
    m, n = A.shape
    # One run per distinct (column, value) of the sorted columns, in value order.
    S = np.sort(A.T, axis=1).ravel()
    starts = np.ones(S.size, dtype=bool)
    starts[1:] = S[1:] != S[:-1]
    starts[::m] = True
    starts = np.flatnonzero(starts)
    counts = np.diff(starts, append=S.size)
    cols = starts // m
    # Runs grouped by column, each group by descending frequency; the stable
    # sort keeps value order among equally frequent runs.
    order = np.argsort(cols * (m + 1) - counts, kind="stable")
    vals, counts, cols = S[starts][order], counts[order], cols[order]
    runs = np.bincount(cols, minlength=n)
    col_start = np.cumsum(runs) - runs
    # Row 0: of the top-frequency runs, which lead their column's group, the
    # one closest to the mean, then the first in value order. The means must
    # equal each A[:, j].mean(). The rows of a contiguous A.T sum in the
    # same order (measured, not proven: the tests pin it), where
    # A.mean(axis=0) adds a C-ordered A row by row and rounds differently
    # once the sums do.
    mean = np.ascontiguousarray(A.T).mean(axis=1)
    top = np.flatnonzero(counts == counts[col_start][cols])
    dist = np.abs(vals[top].astype(np.float64) - mean[cols[top]])
    top = top[np.lexsort((dist, cols[top]))]
    first_at = top[np.diff(cols[top], prepend=-1) != 0]
    first = vals[first_at]
    # Row r takes the run at position r of its column, with the row-0 run
    # moved to the front past the runs before it.
    pos = np.arange(vals.size) - col_start[cols]
    rank = pos + (pos < (first_at - col_start)[cols])
    rank[first_at] = 0
    pad = runs < k
    overflow = np.flatnonzero(pad & (first > np.iinfo(np.int64).max - (k - 1)))
    if overflow.size:
        j = int(overflow[0])
        raise ValueError(
            f"most-frequent init: column {j} has fewer distinct values ({runs[j]}) than the "
            f"rank ({k}), and padding its value {first[j]} by the row index leaves int64"
        )
    V0 = np.zeros((k, n), dtype=np.int64)
    V0[:, pad] = first[pad] + np.arange(k, dtype=np.int64)[:, None]
    keep = rank < k
    V0[rank[keep], cols[keep]] = vals[keep]
    return V0


def init_random(n_rows, n_cols, lo, hi, seed):
    """Uniform random integer matrix over [lo, hi], reproducible by seed."""
    if lo > hi:
        raise ValueError(f"empty value range [{lo}, {hi}]")
    rng = np.random.default_rng(seed)
    return rng.integers(lo, hi + 1, size=(n_rows, n_cols), dtype=np.int64)


@dataclass
class FactorizationConfig:
    """Settings for one factorization run.

    The run starts from a k x n factor V and updates U first. init is
    "most_frequent" (clipped into box_v), "random" (drawing entries from
    box_v, or from the range of A when there is no box), or an explicit
    initial V, which must lie in box_v. box_u / box_v are integer
    intervals applied entrywise. method "ils" solves every block
    subproblem globally; "rounded_ls" is the rounding baseline.
    """

    rank: int
    max_sweeps: int = 100
    box_u: tuple | None = None
    box_v: tuple | None = None
    init: str | np.ndarray = "most_frequent"
    seed: int | None = None
    method: str = "ils"


@dataclass
class FactorizationResult:
    """Factors, exact per-half-sweep residuals, and the stopping cause.

    V is always set: the starting V, or the last one a half-sweep
    produced. U is None when rank deficiency struck before the first
    half-sweep completed. half_sweep_nodes holds, for each
    residual_history entry, the search nodes spent by the block update
    that produced it: the nodes actually searched, once per distinct row
    (column) of A, 0 for a half-sweep whose every row was scored, and 0
    for one that reused the answer of a sweep earlier, as its input
    factor had not changed (bcd_factorize).
    """

    U: np.ndarray | None
    V: np.ndarray
    residual_history: list
    status: str
    sweeps: int
    half_sweep_nodes: list = field(default_factory=list)

    @property
    def final_residual(self):
        return self.residual_history[-1] if self.residual_history else None


def _initial_factor(A, k, config, box_v):
    """The k x n starting V, inside box_v (a BoxConstraint or None)."""
    n = A.shape[1]
    if isinstance(config.init, str):
        if config.init == "most_frequent":
            V0 = init_most_frequent(A, k)
            return V0 if box_v is None else np.clip(V0, box_v.lower[:, None], box_v.upper[:, None])
        if config.init == "random":
            lo, hi = (A.min(), A.max()) if box_v is None else (box_v.lower[0], box_v.upper[0])
            return init_random(k, n, int(lo), int(hi), config.seed)
        raise ValueError(f"unknown init {config.init!r}")
    V0 = as_int_matrix(config.init).copy()  # may become the result's V
    if V0.shape != (k, n):
        raise ValueError(f"explicit init has shape {V0.shape}, expected {(k, n)}")
    if box_v is not None and not box_v.contains(V0.T):  # each column of V is in the box
        lo, hi = box_v.lower[0], box_v.upper[0]
        raise ValueError(f"explicit init has an entry outside the box_v interval [{lo}, {hi}]")
    return V0


def bcd_factorize(A, config):
    """Alternate globally optimal updates of U, then V, until the iterates repeat.

    Stops when a full sweep leaves U unchanged (update_v reads only U, so
    V repeats too), when the exact residual reaches zero, or after
    max_sweeps. update_u reads only V, so a half-sweep whose input factor
    equals the one the same update read a sweep earlier is not solved
    again: it keeps that update's answer, appends the same residual and
    logs 0 nodes. The facts about A that every half-sweep reads are derived
    once per run, and each history entry equals residual(A, U, V) but
    comes from k-sized products. Rank collapse of an iterate ends the run
    with the last consistent factors and status "rank_deficient_failure"
    rather than raising. A V-first run is this run on A.T with the factors
    transposed.
    """
    A = as_int_matrix(A)
    m, n = A.shape
    k = int(as_int64(config.rank, "rank"))
    if not 1 <= k < min(m, n):
        raise ValueError(f"rank must satisfy 1 <= k < min(m, n) = {min(m, n)}")
    max_sweeps = int(as_int64(config.max_sweeps, "max_sweeps"))
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    box_u = BoxConstraint.uniform(k, *config.box_u) if config.box_u is not None else None
    box_v = BoxConstraint.uniform(k, *config.box_v) if config.box_v is not None else None

    U = None
    V = _initial_factor(A, k, config, box_v)
    data = _Data(A)
    history = []
    nodes = []
    status = STATUS_MAX_SWEEPS
    # The U that update_v and the V that update_u last read; the updates
    # return new arrays, so these keep what was read.
    read_u = read_v = None
    try:
        for sweep in range(1, max_sweeps + 1):
            if sweep > 1 and np.array_equal(V, read_v):
                # update_u reads only V, so U is update_u(V) already.
                history.append(history[-1])
                nodes.append(0)
            else:
                read_v, stats = V, SearchStats()
                U = update_u(data, V, box_u, method=config.method, stats=stats)
                history.append(data.residual(U, V))
                nodes.append(stats.nodes)
                if history[-1] == 0:
                    status = STATUS_CONVERGED
                    break
            if sweep > 1 and np.array_equal(U, read_u):
                # A full sweep left U unchanged, and update_v reads only U.
                history.append(history[-1])
                nodes.append(0)
                status = STATUS_CONVERGED
                break
            read_u, stats = U, SearchStats()
            V = update_v(data, U, box_v, method=config.method, stats=stats)
            history.append(data.residual(U, V))
            nodes.append(stats.nodes)
            if history[-1] == 0:
                status = STATUS_CONVERGED
                break
    except RankDeficientError:
        status = STATUS_RANK_DEFICIENT

    return FactorizationResult(
        U=U,
        V=V,
        residual_history=history,
        status=status,
        sweeps=sweep,
        half_sweep_nodes=nodes,
    )
