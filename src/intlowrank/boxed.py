"""Box-constrained integer least squares.

General unimodular transforms would warp a box constraint, so the
reduction here is restricted to column reorderings: the constraint set in
reduced coordinates stays a box with permuted bounds. The reordering
ranks columns by how costly their second-best in-box choice is. The
search is the zigzag shared with ils.se_search, given the permuted box
bounds and a table of precomputed per-level bounds that tighten its
radius test.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import EmptyBoxError
from .ils import ReducedProblem, _enumerate, _project
from .linalg import givens_coeffs, householder_qr, require_finite, rotate_rows, round_half_away

_SIGN_TOL = 1e-12


@dataclass(frozen=True)
class BoxConstraint:
    """Per-coordinate integer intervals lower_i <= x_i <= upper_i."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=np.int64))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=np.int64))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("bounds must be integer vectors of equal length")
        if (lower > upper).any():
            raise EmptyBoxError(f"empty interval at coordinate {int(np.argmax(lower > upper))}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def uniform(cls, n, lo, hi):
        """The same interval [lo, hi] on all n coordinates."""
        return cls(np.full(n, lo, dtype=np.int64), np.full(n, hi, dtype=np.int64))

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
    nearest = min(max(int(round_half_away(c)), lo), hi)
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
    constraint set is the coordinate-permuted box.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    require_finite(y, "y")
    _check_box(H, box)
    return _reorder(_factor(H), y, box)


def _reorder(factors, y, box):
    """mch_reduce on a shared _factor(H); reorders copies, never the factors."""
    Q1, R, S = factors  # S = R^{-T}, kept in sync with R
    n = R.shape[0]
    y_hat, offset = _project(Q1, y)
    y_bar = y_hat.copy()
    lower = box.lower.copy()
    upper = box.upper.copy()
    cols = np.arange(n)

    for kappa in range(n, 1, -1):
        last = kappa - 1
        best_gap = -1.0
        best_i = 0
        best_fix = 0
        for i in range(kappa):
            s_col = S[i:kappa, i]
            center = float(y_bar[i:kappa] @ s_col)
            nearest, second = in_box_rounding(center, int(lower[i]), int(upper[i]))
            if second is None:
                gap = np.inf  # forced coordinate: nothing to branch on
            else:
                gap = abs(center - second) / float(np.linalg.norm(s_col))
            if gap > best_gap:
                best_gap = gap
                best_i = i
                best_fix = nearest
        y_bar = y_bar - R[:, best_i] * best_fix
        if best_i != last:
            order = np.r_[
                np.arange(best_i),
                np.arange(best_i + 1, kappa),
                best_i,
                np.arange(kappa, n),
            ]
            R = R[:, order]
            S = S[:, order]
            cols = cols[order]
            lower = lower[order]
            upper = upper[order]
            for p in range(best_i, last):
                c, s = givens_coeffs(R[p, p], R[p + 1, p])
                rotate_rows(R, p, p + 1, c, s)
                R[p + 1, p] = 0.0
                rotate_rows(S, p, p + 1, c, s)
                rotate_rows(y_hat, p, p + 1, c, s)
                rotate_rows(y_bar, p, p + 1, c, s)

    Z = np.zeros((n, n), dtype=np.int64)
    Z[cols, np.arange(n)] = 1
    rp = ReducedProblem(R=R, Z=Z, y_hat=y_hat, offset=offset)
    return rp, BoxConstraint(lower, upper)


def compute_bound_table(R, y_hat, box):
    """Sound per-level lower bounds on residual terms over the box.

    For level k the term (y_hat_k - sum_j r_kj z_j)^2 is confined to an
    interval by the box; when both endpoints share a sign the squared
    smaller endpoint is a valid lower bound, otherwise the term can vanish
    and the bound is zero. Endpoints within 1e-12 of zero count as
    sign-straddling.
    """
    y_hat = np.asarray(y_hat, dtype=float).ravel()
    n = y_hat.shape[0]
    lower = box.lower.astype(float)
    upper = box.upper.astype(float)
    delta = np.zeros(n)
    for k in range(n):
        row = R[k, k:]
        p = row * lower[k:]
        q = row * upper[k:]
        lo_end = y_hat[k] - float(np.maximum(p, q).sum())
        hi_end = y_hat[k] - float(np.minimum(p, q).sum())
        same_positive = lo_end > _SIGN_TOL and hi_end > _SIGN_TOL
        same_negative = lo_end < -_SIGN_TOL and hi_end < -_SIGN_TOL
        if same_positive or same_negative:
            delta[k] = min(lo_end * lo_end, hi_end * hi_end)
    gamma = np.concatenate(([0.0], np.cumsum(delta)[:-1]))
    return BoundTable(delta=delta, gamma=gamma)


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
    so only the QR of H and R^{-T} are shared; each column is reordered
    as mch_reduce would, then searched, and every search adds its nodes
    to stats. Returns X, whose column j is x_j.
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
        rp, permuted_box = _reorder(factors, np.ascontiguousarray(Y[:, j]), box)
        bounds = compute_bound_table(rp.R, rp.y_hat, permuted_box)
        X[:, j] = rp.Z @ boxed_search(rp, permuted_box, bounds, stats=stats)
    return X
