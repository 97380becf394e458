"""Box-constrained integer least squares.

General unimodular transforms would warp a box constraint, so the
reduction here is restricted to column reorderings: the constraint set in
reduced coordinates stays a box with permuted bounds. The reordering
ranks columns by how costly their second-best in-box choice is. The
search is the zigzag shared with ils.se_search, given the permuted box
bounds; it prunes by its radius alone.

The order depends on the right-hand side, so a block of them shares only
the QR of H: mch_reduce reduces a block in one call, and solve_ilsb is
that call and a search per column.
"""

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


@dataclass(frozen=True)
class BoxConstraint:
    """Intervals lower_i <= x_i <= upper_i, with bounds checked and cast by linalg.as_int64.

    The box keeps its own copy of the bounds, so a caller's later write cannot reach them.
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


@dataclass(frozen=True)
class BoundTable:
    """Per-level lower bounds on the residual mass of already-fixed levels.

    delta[k] bounds the k-th squared residual term from below over the box
    and gamma[k] = delta[0] + ... + delta[k-1] accumulates the terms that
    the search fixes after level k.
    """

    delta: np.ndarray
    gamma: np.ndarray


def in_box_rounding(c, lo, hi):
    """Nearest and second-nearest integers to c inside [lo, hi].

    The nearest point is the clamped rounding of c (round_half_away_int);
    the second is the next closest in-box integer, or None for a singleton
    interval. Exact ties prefer the upper neighbour.
    """
    if lo > hi:
        raise EmptyBoxError(f"empty interval [{lo}, {hi}]")
    nearest = min(max(round_half_away_int(c), lo), hi)
    if lo == hi:
        return nearest, None
    below, above = nearest - 1, nearest + 1
    if below < lo:
        return nearest, above
    if above > hi:
        return nearest, below
    d_below = abs(c - below)
    d_above = abs(above - c)
    if d_above < d_below:
        return nearest, above
    if d_below < d_above:
        return nearest, below
    return nearest, (above if c >= nearest else below)


def _factor(H):
    """QR of H and R^{-T}: the part of mch_reduce that does not depend on y."""
    Q1, R = householder_qr(H)
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
    outweighs the batching for a few columns.
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
            nearest, second = in_box_rounding(center, lower[i], upper[i])
            # A forced coordinate has nothing to branch on.
            gap = math.inf if second is None else abs(center - second) / math.sqrt(norm_sq)
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


def _reorder_block(factors, Y, box):
    """_reorder of every column of Y in one batched pass, bit for bit.

    Returns one (rp, permuted_box) per column. The list pass runs on a
    stacked (p, n, 2n+2) array [R | S | y_hat | y_bar], one slice per
    column, and every float comes from the IEEE operation of _reorder on
    the same operands in the same order: elementwise ufuncs only, centers
    and norms summed in sequence from +0.0 one row at a time (never a BLAS
    product or a pairwise sum), and each rotation applied to whole rows of
    the columns it turns. Box bounds are float64 here, so every |bound|
    must be below 2**53.
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
        lower, upper = B[:, 1, :kappa], B[:, 2, :kappa]
        # in_box_rounding on every entry; + 0.0 turns -0.0 into the int's 0.0.
        nearest = np.minimum(np.maximum(round_half_away(center), lower), upper) + 0.0
        below, above = nearest - 1, nearest + 1
        d_below, d_above = np.abs(center - below), np.abs(above - center)
        tie = np.where(center >= nearest, above, below)
        second = np.where(d_below < d_above, below, tie)
        second = np.where(d_above < d_below, above, second)
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
    """Sound per-level lower bounds on residual terms over the box.

    For level k the term (y_hat_k - sum_j r_kj z_j)^2 is confined to an
    interval by the box; when both endpoints share a sign the squared
    smaller endpoint is a valid lower bound, otherwise the term can vanish
    and the bound is zero. Endpoints within 1e-12 of zero count as
    sign-straddling. The solver does not use the table: on the problems
    it has been measured on, the bounds almost never prune a node.
    """
    R, y_hat = np.asarray(R, dtype=float), np.asarray(y_hat, dtype=float).ravel()
    lower, upper = box.lower.astype(float), box.upper.astype(float)
    delta = np.zeros(y_hat.shape[0])
    for k in range(delta.shape[0]):
        p, q = R[k, k:] * lower[k:], R[k, k:] * upper[k:]
        lo_end = y_hat[k] - float(np.maximum(p, q).sum())
        hi_end = y_hat[k] - float(np.minimum(p, q).sum())
        if min(lo_end, hi_end) > 1e-12 or max(lo_end, hi_end) < -1e-12:
            delta[k] = min(lo_end * lo_end, hi_end * hi_end)
    return BoundTable(delta=delta, gamma=np.concatenate(([0.0], np.cumsum(delta)[:-1])))


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


def solve_ilsb(H, y, box, stats=None):
    """Globally minimize ||y - H x||_2^2 over integer x inside the box.

    y is a vector or, as for mch_reduce, an m-by-p block of right-hand
    sides: one mch_reduce call reduces them all, then a search per column
    adds its nodes to stats. Returns (x, residual_sq) for a vector and
    the n-by-p int64 X alone for a block. H must have full column rank
    and the box must be nonempty.
    """
    H, y = _read_problem(H, y)
    reduced = mch_reduce(H, y if y.ndim == 2 else y[:, None], box)
    X = np.empty((H.shape[1], len(reduced)), dtype=np.int64, order="F")
    for j, (rp, permuted_box) in enumerate(reduced):
        X[:, j] = rp.Z @ boxed_search(rp, permuted_box, stats=stats)
    return _answer(H, y, X)
