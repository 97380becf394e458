"""Box-constrained integer least squares.

General unimodular transforms would warp a box constraint, so the
reduction here is restricted to column reorderings: the constraint set in
reduced coordinates stays a box with permuted bounds. The reordering
ranks columns by how costly their second-best in-box choice is. The
search is the zigzag shared with ils.se_search, given the permuted box
bounds; it prunes by its radius alone.

The order depends on the right-hand side, so a block of them shares only
the QR of H: mch_reduce reduces a block in one call. A small box needs
no search when H and y are integers: solve_ilsb scores every point of it
exactly (_score) and sends only the columns whose least score more than
one point takes to mch_reduce and a search each, as one block. Its one
QR of H, after scoring, checks the rank: mch_reduce's, or householder_qr
alone when no column ties.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import EmptyBoxError
from .ils import ReducedProblem, _answer, _enumerate, _project, _read_problem, _search_levels
from .linalg import (
    as_int64,
    givens_coeffs,
    householder_qr,
    round_half_away,
    round_half_away_int,
)

# mch_reduce's narrowest batched block and the float64 bound of its box.
# Measured: the two passes break even at about 8 columns for n = 3 and
# n = 6, and at 10 the batched pass takes at most 0.84 of the list pass's
# time for n from 1 to 12.
_BLOCK_MIN = 10
_FLOAT_EXACT = 2**53
# What both reordering passes raise for a center that is inf or nan.
_CENTER_OVERFLOW = "a center of the box reordering overflows float64"
# solve_ilsb's largest box to score point by point. Measured on 2 vCPUs
# with numpy 2.4.6, one BCD half-sweep's block, best of 15, search against
# score: rank 3 on [1, 4] (64 points) 1.63 against 0.14 ms, rank 5 (1,024
# points) 4.24 against 0.65 ms, rank 6 (4,096 points) 5.52 against
# 4.26 ms; scoring 4,096 points made a 60x60 rank-6 factorization on
# [1, 4] slower end to end (0.026 to 0.034 s) and raised its peak
# memory from 43.6 to 48.3 MB.
_SCORE_MAX = 1024
# The most scores _score holds at once: it takes the columns in chunks.
_SCORE_FLOATS = 2**17


@dataclass(frozen=True, eq=False)
class BoxConstraint:
    """Intervals lower_i <= x_i <= upper_i, with bounds checked and cast by linalg.as_int64.

    The only check that a box is nonempty. The box keeps its own read-only copy of the bounds,
    so a box stays as checked, and no column that shares it can change it. Boxes compare and
    hash by identity.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.array(as_int64(self.lower, "box lower bound"), ndmin=1)
        upper = np.array(as_int64(self.upper, "box upper bound"), ndmin=1)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("bounds must be integer vectors of equal length")
        if (lower > upper).any():
            raise EmptyBoxError(f"empty interval at coordinate {int(np.argmax(lower > upper))}")
        lower.flags.writeable = upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def uniform(cls, n, lo, hi):
        """The same interval [lo, hi] on all n coordinates."""
        return cls([lo] * n, [hi] * n)

    @property
    def n(self):
        return self.lower.shape[0]

    def contains(self, x):
        x = np.asarray(x)
        return bool((x >= self.lower).all() and (x <= self.upper).all())


def in_box_rounding(c, lo, hi):
    """Nearest and second-nearest integers to c inside [lo, hi], a BoxConstraint's interval.

    The nearest point is the clamped rounding of c (round_half_away_int).
    The second is the neighbour of nearest on c's side (the upper one when
    c >= nearest), or the other neighbour when that one leaves the box, or
    None for a singleton interval: the next closest in-box integer, with
    exact ties going to the upper one.
    """
    nearest = min(max(round_half_away_int(c), lo), hi)
    if lo == hi:
        return nearest, None
    below, above = nearest - 1, nearest + 1
    if below < lo:
        return nearest, above
    if above > hi:
        return nearest, below
    return nearest, (above if c >= nearest else below)


def _factor(H):
    """QR of H and R^{-T}, the part of mch_reduce that does not depend on y; R is read-only."""
    Q1, R = householder_qr(H)
    R.flags.writeable = False
    S = np.linalg.solve(R, np.eye(R.shape[0])).T
    return Q1, R, S


def mch_reduce(H, y, box):
    """Column-reordering reduction for the boxed problem.

    Works from the last level down: at each stage every remaining column
    is scored by the box-aware distance of its second-nearest integer to
    the conditional center (computed against the right-hand side with the
    already-fixed contributions removed), the winner rotates into the last
    open position, and the shifted columns are re-triangularized with
    Givens rotations. Z is a permutation matrix, so the returned
    constraint set is the coordinate-permuted box.

    A vector y gives (rp, permuted_box). An m-by-p block gives a list of
    p such pairs, column j's equal bit for bit to the reduction of
    y[:, j] alone; the order depends on each column, so they share only
    the QR of H. A block of at least _BLOCK_MIN columns is reordered in
    one batched numpy pass (_reorder_block), unless a box bound reaches
    _FLOAT_EXACT, past which float64 cannot hold it; any other y runs the
    list pass (_reorder) per column, as numpy's fixed cost per call
    outweighs the batching for a few columns. In either pass a center
    that overflows float64 is a ValueError, and a column norm that
    overflows gives that column a gap of 0. Every unmoved column's rp.R is
    the QR's one read-only R; a read-only box may serve several columns.
    """
    H, y = _read_problem(H, y, box)
    factors = _factor(H)
    if y.ndim == 1:
        return _reorder(factors, y, box)
    exact = -_FLOAT_EXACT < box.lower.min() and box.upper.max() < _FLOAT_EXACT
    if y.shape[1] >= _BLOCK_MIN and exact:
        return _reorder_block(factors, y, box)
    return [_reorder(factors, np.ascontiguousarray(col), box) for col in y.T]


def _reorder(factors, y, box):
    """mch_reduce on a shared _factor(H).

    Returns (rp, permuted_box); reorders copies, never the factors.
    Runs on Python lists, as ils._enumerate does, since numpy calls per
    entry would dominate a row's cost. Rotations are the array form's
    elementwise operations with givens_coeffs' coefficients. Centers and
    norms are sequential sums, which can differ from a BLAS dot product in
    the last bit and so change the order only at a near-tie. R keeps the
    array form's layout, the factor's C-ordered R unless a column moves and
    F-ordered otherwise, because the search's BLAS row products depend on it.
    """
    Q1, R_factor, S = factors  # S = R^{-T}, kept in sync with R
    n = R_factor.shape[0]
    R, S, y_hat = R_factor.tolist(), S.tolist(), _project(Q1, y).tolist()
    y_bar, lower, upper = y_hat[:], box.lower.tolist(), box.upper.tolist()
    cols = list(range(n))
    moved = False
    for kappa in range(n, 1, -1):
        last = kappa - 1
        best_gap, best_i, best_fix = -1.0, 0, 0
        for i in range(kappa):
            center = norm_sq = 0.0
            for S_r, y_r in zip(S[i:kappa], y_bar[i:kappa]):
                s_ri = S_r[i]
                center += y_r * s_ri
                norm_sq += s_ri * s_ri
            if not math.isfinite(center):
                raise ValueError(_CENTER_OVERFLOW)
            nearest, second = in_box_rounding(center, lower[i], upper[i])
            # A forced coordinate has nothing to branch on. From 2**53 on, center
            # is an integer float and the int second may not be a float, so the
            # difference is taken exactly.
            if second is None:
                gap = math.inf
            elif abs(center) < _FLOAT_EXACT:
                gap = abs(center - second) / math.sqrt(norm_sq)
            else:
                gap = abs(int(center) - second) / math.sqrt(norm_sq)
            if gap > best_gap:
                best_gap, best_i, best_fix = gap, i, nearest
        for r in range(best_i + 1):  # column best_i is zero below its diagonal
            y_bar[r] -= R[r][best_i] * best_fix
        if best_i == last:
            continue
        moved = True
        for seq in (*R, *S, cols, lower, upper):
            seq.insert(last, seq.pop(best_i))
        for p in range(best_i, last):
            c, s = givens_coeffs(R[p][p], R[p + 1][p])
            for M in (R, S):
                a, b = M[p], M[p + 1]
                M[p] = [c * u + s * v for u, v in zip(a, b)]
                M[p + 1] = [-s * u + c * v for u, v in zip(a, b)]
            R[p + 1][p] = 0.0
            for v in (y_hat, y_bar):
                v[p], v[p + 1] = c * v[p] + s * v[p + 1], -s * v[p] + c * v[p + 1]
    Z = np.zeros((n, n), dtype=np.int64)
    Z[cols, np.arange(n)] = 1
    R_out = np.array(R, order="F") if moved else R_factor
    return ReducedProblem(R=R_out, Z=Z, y_hat=np.array(y_hat)), BoxConstraint(lower, upper)


@np.errstate(over="ignore", invalid="ignore")
def _reorder_block(factors, Y, box):
    """_reorder of every column of Y in one batched pass, bit for bit.

    Returns one (rp, permuted_box) per column. The list pass runs on a
    stacked (p, n, 2n+2) array [R | S | y_hat | y_bar], one slice per
    column, and every float comes from the IEEE operation of _reorder on
    the same operands in the same order: elementwise ufuncs only, centers
    and norms summed in sequence from +0.0 one row at a time (never a BLAS
    product or a pairwise sum), and each rotation applied to whole rows of
    the columns it turns. Box bounds are float64 here, so every |bound|
    must be below 2**53. Overflow gives inf or nan without a warning, as
    Python floats do in _reorder.
    """
    Q1, R_factor, S = factors
    n = R_factor.shape[0]
    y_hat = _project(Q1, Y)
    p = y_hat.shape[1]
    W = np.empty((p, n, 2 * n + 2))
    W[:, :, :n], W[:, :, n : 2 * n] = R_factor, S
    W[:, :, 2 * n] = W[:, :, 2 * n + 1] = y_hat.T
    # Per column: the original column at each position, then its bounds.
    B = np.empty((p, 3, n))
    B[:, 0], B[:, 1], B[:, 2] = np.arange(n), box.lower, box.upper
    rows, every = np.arange(n), np.arange(p)
    moved = np.zeros(p, dtype=bool)
    for kappa in range(n, 1, -1):
        last = kappa - 1
        S_k = W[:, :kappa, n : n + kappa]
        terms = np.stack((W[:, :kappa, 2 * n + 1, None] * S_k, S_k * S_k))
        sums = np.zeros((2, p, kappa))
        for r in range(kappa):  # the terms of rows r >= i, in sequence, for every i
            sums[:, :, : r + 1] += terms[:, :, r, : r + 1]
        center, norm_sq = sums
        if not np.isfinite(center).all():
            raise ValueError(_CENTER_OVERFLOW)
        lower, upper = B[:, 1, :kappa], B[:, 2, :kappa]
        # in_box_rounding on every entry.
        nearest = np.minimum(np.maximum(round_half_away(center), lower), upper)
        below, above = nearest - 1, nearest + 1
        second = np.where(center >= nearest, above, below)
        second = np.where(above > upper, below, second)
        second = np.where(below < lower, above, second)
        gap = np.where(lower == upper, np.inf, np.abs(center - second) / np.sqrt(norm_sq))
        best = np.argmax(gap, axis=1)  # the first maximum, as the strict > scan
        fix = nearest[every, best]
        fixed = W[:, :, 2 * n + 1] - W[every, :, best] * fix[:, None]
        W[:, :, 2 * n + 1] = np.where(rows <= best[:, None], fixed, W[:, :, 2 * n + 1])
        cycled = np.flatnonzero(best != last)
        if not cycled.size:
            continue
        moved[cycled] = True
        start = best[cycled]
        # Column start moves to position last; the ones between shift left.
        source = rows + ((rows >= start[:, None]) & (rows < last))
        source[:, last] = start
        at = cycled[:, None, None]
        W[cycled, :, : 2 * n] = W[at, rows[:, None], np.hstack((source, source + n))[:, None]]
        B[cycled] = B[at, np.arange(3)[:, None], source[:, None]]
        for q in range(int(start.min()), last):
            act = cycled[start <= q]
            a, b = W[act, q], W[act, q + 1]
            # givens_coeffs; the hypot is positive, as r_{q+1,q+1} of the full-rank R.
            r = np.hypot(a[:, q], b[:, q])
            c, s = (a[:, q] / r)[:, None], (b[:, q] / r)[:, None]
            W[act, q], W[act, q + 1] = c * a + s * b, -s * a + c * b
            W[act, q + 1, q] = 0.0
    R, y_hat = W[:, :, :n], np.ascontiguousarray(W[:, :, 2 * n])
    B = B.astype(np.int64)
    Z = np.zeros((p, n, n), dtype=np.int64)
    Z[every[:, None], B[:, 0], rows] = 1
    boxes = {}  # columns with equal permuted bounds share one box
    out = []
    for j in range(p):
        key = B[j, 1:].tobytes()
        if key not in boxes:
            boxes[key] = BoxConstraint(B[j, 1], B[j, 2])
        R_out = np.array(R[j], order="F") if moved[j] else R_factor
        out.append((ReducedProblem(R=R_out, Z=Z[j], y_hat=y_hat[j]), boxes[key]))
    return out


def compute_bound_table(R, y_hat, box):
    """Removed: no code calls it; it goes with its perfbench/tracing.py seam (ROADMAP item 1)."""
    raise NotImplementedError("compute_bound_table was removed; no solver used its bounds")


def boxed_search(rp, box, stats=None):
    """Depth-first zigzag enumeration over the box in reduced coordinates.

    The Schnorr-Euchner zigzag of ils.se_search (ils._enumerate), clipped
    to the box: backtracking skips levels whose interval is fully
    enumerated, which guarantees termination on every nonempty box.
    Starts at an infinite radius, as se_search does, and returns a global
    minimizer; a ValueError reports, as in _enumerate, a coordinate
    outside int64 or a box whose every candidate's partial residual
    overflows float64. Each call builds its own search state from rp.R,
    since the reordering gives every right-hand side its own R.
    """
    lower, upper = box.lower.tolist(), box.upper.tolist()
    return _enumerate(_search_levels(rp.R), rp.y_hat.tolist(), lower, upper, stats)


def _integer_max(M):
    """max |entry| of a finite float array as a Python int, 0 if empty; None if one is fractional."""
    return int(np.abs(M).max(initial=0.0)) if (np.floor(M) == M).all() else None


def _scorable(H, Y, box):
    """Whether _score finds every column's exact optimum.

    It does for a box of at most _SCORE_MAX points and integer H and Y
    whose float64 sums are all exact, that is below 2**53. With m-by-k H,
    P the largest |box bound| (taken as 1 at least), Hmax and Ymax the
    largest |entry|, k^2 P^2 m Hmax^2 bounds every partial sum of the
    quadratic terms and of H^T H, and 2 k P m Hmax Ymax every one of the
    linear terms and of H^T Y. All of it is counted in Python ints.
    """
    lower, upper = box.lower.tolist(), box.upper.tolist()
    if math.prod(hi - lo + 1 for lo, hi in zip(lower, upper)) > _SCORE_MAX:
        return False
    h_max, y_max = _integer_max(H), _integer_max(Y)
    if h_max is None or y_max is None:
        return False
    m, k = H.shape
    p = max(1, *map(abs, lower), *map(abs, upper))
    return k * k * p * p * m * h_max * h_max + 2 * k * p * m * h_max * y_max < _FLOAT_EXACT


@functools.lru_cache(maxsize=8)
def _box_points(lower, upper):
    """Every point of the box with these bound tuples, one per row, in lexicographic order.

    Read-only, since every caller with the same box shares the array.
    """
    widths = [hi - lo + 1 for lo, hi in zip(lower, upper)]
    points = np.indices(widths).reshape(len(widths), -1).T + np.array(lower, dtype=np.int64)
    points.flags.writeable = False
    return points


def _score(H, Y, box, X):
    """Writes into X each column's exact optimum over the box, where one point alone takes it.

    ||y - H x||^2 = x^T G x - 2 x^T b + ||y||^2, with G = H^T H and
    b = H^T y. So every box point x_i gets the score q_i - 2 x_i^T b,
    where q_i = x_i^T G x_i, and the least score marks the optimum. All
    of it is exact when _scorable(H, Y, box). Returns the indices of the
    columns whose least score more than one point takes, in order.
    """
    points = _box_points(tuple(box.lower.tolist()), tuple(box.upper.tolist()))
    P = points.astype(float)
    q = ((P @ (H.T @ H)) * P).sum(axis=1)
    B = H.T @ Y
    step = max(1, _SCORE_FLOATS // P.shape[0])
    tied = []
    for start in range(0, Y.shape[1], step):
        S = q[:, None] - 2.0 * (P @ B[:, start : start + step])
        cols = np.arange(S.shape[1])
        best = S.argmin(axis=0)
        unique = (S == S[best, cols]).sum(axis=0) == 1
        X[:, start + cols[unique]] = points[best[unique]].T
        tied += (start + cols[~unique]).tolist()
    return tied


def solve_ilsb(H, y, box, stats=None):
    """Globally minimize ||y - H x||_2^2 over integer x inside the box.

    y is a vector or, as for mch_reduce, an m-by-p block of right-hand
    sides. When _scorable(H, y, box), _score answers each column that
    has one exact optimum, and stats.scored counts them. The other
    columns, or all of them, go to one mch_reduce call and a search per
    column, which adds its nodes to stats. Both give the same answers
    wherever the optimum is unique. Returns (x, residual_sq) for a vector
    and the n-by-p int64 X alone for a block. The box must be nonempty
    and H of full column rank: H's one QR, after scoring (mch_reduce's,
    or householder_qr's when no column ties), raises RankDeficientError
    otherwise, before any search or change to stats.
    """
    H, y = _read_problem(H, y, box)
    Y = y if y.ndim == 2 else y[:, None]
    p = Y.shape[1]
    X = np.empty((H.shape[1], p), dtype=np.int64, order="F")
    tied = _score(H, Y, box, X) if _scorable(H, Y, box) else list(range(p))
    if tied:  # mch_reduce's QR is the rank check
        block = Y if len(tied) == p else Y[:, tied]
        for j, (rp, permuted_box) in zip(tied, mch_reduce(H, block, box)):
            X[:, j] = rp.Z @ boxed_search(rp, permuted_box, stats=stats)
    else:
        householder_qr(H)  # the rank check
    if stats is not None:
        stats.scored += p - len(tied)
    return _answer(H, y, X)
