"""Box-constrained integer least squares.

General unimodular transforms would warp a box constraint, so the
reduction here is restricted to column reorderings: the constraint set in
reduced coordinates stays a box with permuted bounds. The reordering
ranks columns by how costly their second-best in-box choice is. The
search is the zigzag shared with ils.se_search, given the permuted box
bounds and a table of precomputed per-level bounds that tighten its
radius test.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .exceptions import EmptyBoxError
from .ils import ReducedProblem, _enumerate, _project
from .linalg import givens_coeffs, householder_qr, pairwise_sum, require_finite

_SIGN_TOL = 1e-12


def _int64_bounds(values, side):
    """values as an int64 vector; a ValueError names a bound int64 cannot hold."""
    try:
        return np.atleast_1d(np.asarray(values, dtype=np.int64))
    except OverflowError:
        big = next(v for v in np.ravel(np.array(values, dtype=object)) if not -(2**63) <= v < 2**63)
        raise ValueError(f"box {side} bound {big} is outside the int64 range") from None


@dataclass(frozen=True)
class BoxConstraint:
    """Per-coordinate integer intervals lower_i <= x_i <= upper_i."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = _int64_bounds(self.lower, "lower")
        upper = _int64_bounds(self.upper, "upper")
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

    @property
    def sizes(self):
        return self.upper - self.lower + 1

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

    @classmethod
    def zero(cls, n):
        return cls(np.zeros(n), np.zeros(n))


def in_box_rounding(c, lo, hi):
    """Nearest and second-nearest integers to c inside [lo, hi].

    The nearest point is the clamped rounding of c; the second is the next
    closest in-box integer, or None for a singleton interval. Exact ties
    prefer the upper neighbour.
    """
    if lo > hi:
        raise EmptyBoxError(f"empty interval [{lo}, {hi}]")
    # The clamped rounding, half away from zero as in linalg.round_half_away.
    nearest = min(max(math.floor(c + 0.5) if c >= 0 else -math.floor(0.5 - c), lo), hi)
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


def _check_box(H, box):
    if box.n != H.shape[1]:
        raise ValueError(f"box has {box.n} coordinates, expected {H.shape[1]}")


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
    constraint set is the coordinate-permuted box. The pass runs on
    Python lists, with the array form's results and R layout (_reorder).
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    require_finite(y, "y")
    _check_box(H, box)
    rp, permuted_box, _ = _reorder(_factor(H), y, box)
    return rp, permuted_box


def _reorder(factors, y, box):
    """mch_reduce on a shared _factor(H), plus the bound table of its result.

    Returns (rp, permuted_box, bounds); reorders copies, never the factors.
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
    y_vec, offset = _project(Q1, y)
    R, S, y_hat = R_factor.tolist(), S.tolist(), y_vec.tolist()
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
    rp = ReducedProblem(R=R_out, Z=Z, y_hat=np.array(y_hat), offset=offset)
    return rp, BoxConstraint(lower, upper), _bound_table(R, y_hat, lower, upper)


def compute_bound_table(R, y_hat, box):
    """Sound per-level lower bounds on residual terms over the box.

    For level k the term (y_hat_k - sum_j r_kj z_j)^2 is confined to an
    interval by the box; when both endpoints share a sign the squared
    smaller endpoint is a valid lower bound, otherwise the term can vanish
    and the bound is zero. Endpoints within 1e-12 of zero count as
    sign-straddling. Runs on Python lists, the code _reorder runs on its
    result, and sums in numpy's pairwise order, so the table is numpy's.
    """
    R = np.asarray(R, dtype=float).tolist()
    y_hat = np.asarray(y_hat, dtype=float).ravel().tolist()
    return _bound_table(R, y_hat, box.lower.tolist(), box.upper.tolist())


def _bound_table(R, y_hat, lower, upper):
    """compute_bound_table on lists; pairwise_sum keeps numpy's sums bit for bit."""
    n = len(y_hat)
    delta = [0.0] * n
    for k in range(n):
        # Rounding is monotone: r * hi is the larger product when r > 0.
        terms = list(zip(R[k][k:], lower[k:], upper[k:]))
        lo_end = y_hat[k] - pairwise_sum([r * (hi if r > 0 else lo) for r, lo, hi in terms])
        hi_end = y_hat[k] - pairwise_sum([r * (lo if r > 0 else hi) for r, lo, hi in terms])
        same_positive = lo_end > _SIGN_TOL and hi_end > _SIGN_TOL
        same_negative = lo_end < -_SIGN_TOL and hi_end < -_SIGN_TOL
        if same_positive or same_negative:
            delta[k] = min(lo_end * lo_end, hi_end * hi_end)
    gamma = list(accumulate(delta[:-1], initial=0.0))  # sequential, as np.cumsum
    return BoundTable(delta=np.array(delta), gamma=np.array(gamma))


def boxed_search(rp, box, bounds, beta0=np.inf, stats=None, trace=None):
    """Best-first enumeration over the box in reduced coordinates.

    The shared zigzag of ils.se_search, clipped to the box and pruned by
    the bound table: candidates at each level zigzag outward from the
    clamped rounding of the conditional center, and backtracking skips
    levels whose interval is fully enumerated, which is what guarantees
    termination on every nonempty box. Returns a global minimizer, or
    None when a finite beta0 admits no point. trace, when given, receives
    (level, z[level:]) for every visited node.
    """
    lower, upper, gamma = box.lower.tolist(), box.upper.tolist(), bounds.gamma.tolist()
    return _enumerate(rp, lower, upper, gamma, beta0, stats, trace)


def solve_ilsb(H, y, box, stats=None):
    """Globally minimize ||y - H x||_2^2 over integer x inside the box.

    The one-column case of solve_ilsb_many. Returns (x, residual_sq).
    H must have full column rank and the box must be nonempty
    (BoxConstraint construction enforces it).
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    x = solve_ilsb_many(H, y[:, None], box, stats)[:, 0]
    r = y - H @ x
    return x, float(r @ r)


def solve_ilsb_many(H, Y, box, stats=None):
    """Globally minimize ||Y[:, j] - H x_j||_2^2 inside the box, for every column j.

    The column order of the reduction depends on each right-hand side,
    so only the QR of H and R^{-T} are shared; one pass per column
    reorders it as mch_reduce would and builds its bound table, then a
    search adds its nodes to stats. Returns X, whose column j is x_j.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"Y must be an m-by-p block of right-hand sides, got shape {Y.shape}")
    require_finite(Y, "y")
    _check_box(H, box)
    factors = _factor(H)
    X = np.empty((H.shape[1], Y.shape[1]), dtype=np.int64, order="F")
    for j in range(X.shape[1]):
        rp, permuted_box, bounds = _reorder(factors, np.ascontiguousarray(Y[:, j]), box)
        X[:, j] = rp.Z @ boxed_search(rp, permuted_box, bounds, stats=stats)
    return X
