"""Unconstrained integer least squares.

The solver runs in two stages: a lattice reduction that re-expresses
min ||y - H x||^2 as an upper-triangular problem min ||y_hat - R z||^2
with x = Z z for a unimodular Z, followed by a depth-first zigzag
enumeration. The enumeration starts at an infinite radius, so its first
leaf is the Babai point, and shrinks the radius at every better point
found, so it always ends at a global minimizer; it fails only with a
stated ValueError (_enumerate). The reduction is partial LLL
(plll_reduce); lll_reduce is the same reduction followed by a full
size-reduction pass, which makes it LLL-reduced. The
reduction depends on H alone, so problems that share H share one
reduction and differ only in y_hat: plll_reduce, se_search and
solve_ils take a vector y or an m-by-p block of them. The enumeration
(_enumerate) serves both solvers: se_search runs it on an unbounded box,
and the boxed solver's boxed_search on its box. A block's searches
share the part of its state that depends on R alone (_search_levels).
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    as_int64,
    givens_coeffs,
    householder_qr_min_pivot,
    max_abs,
    require_finite,
    rotate_rows,
    round_half_away_int,
)

_LOOP_GUARD = 200_000
# Margin for the column-swap tests. A swap must shrink the diagonal by a
# bounded relative amount, otherwise rounding noise on exact ties (where
# a swap just exchanges the two quantities) ping-pongs forever.
_SWAP_MARGIN = 1e-12


@dataclass
class SearchStats:
    """Search counters, summed over every search they are passed to.

    nodes is the total number of visited nodes; betas holds each
    search's accepted bounds, in the order the searches ran. scored is
    the number of right-hand sides that the boxed solver answered by
    scoring every point of a small box, with no search, so no nodes.
    """

    nodes: int = 0
    betas: list = field(default_factory=list)
    scored: int = 0


@dataclass
class ReducedProblem:
    """Triangularized problem min ||y_hat - R z||^2 with x = Z z.

    ||y - H (Z z)||^2 - ||y_hat - R z||^2 is the same for every z: the
    squared part of y outside the column space of H, which changes no
    search decision and is not kept. A block's y_hat is n-by-p.
    """

    R: np.ndarray
    Z: np.ndarray
    y_hat: np.ndarray

    @property
    def n(self):
        return self.R.shape[0]


def _project(Q1, y):
    """Q1^T y.

    An m-by-p block of right-hand sides is projected one contiguous
    column at a time: a single matrix product rounds differently in the
    last bit, which can flip ties between integer points of equal
    residual.
    """
    if y.ndim == 2:
        y_hat = np.empty((Q1.shape[1], y.shape[1]))
        for j in range(y.shape[1]):
            y_hat[:, j] = Q1.T @ np.ascontiguousarray(y[:, j])
        return y_hat
    return Q1.T @ y


def _read_problem(H, y, box=None):
    """(H, y) of min ||y - H x||^2 as a 2-D float H and a float y.

    A 2-D y is an m-by-p block of right-hand sides and stays one; any other
    y is read as a vector. A ValueError reports, in this order, an H with no
    columns, a y whose row count differs from H's, a non-finite entry or
    squared norm of y, a box, when given, whose width differs from H's, and
    a non-finite entry or squared norm of H: the QR kernels trust this check.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        y = y.ravel()
    if H.shape[1] == 0:
        raise ValueError("H has no columns")
    if y.shape[0] != H.shape[0]:
        raise ValueError(f"H has {H.shape[0]} rows but y has {y.shape[0]}")
    require_finite(y, "y")
    if box is not None and box.n != H.shape[1]:
        raise ValueError(f"box has {box.n} coordinates, expected {H.shape[1]}")
    require_finite(H, "H")
    return H, y


def _answer(H, y, X):
    """X for a block y; (x, float(r @ r)) for a vector y, whose x is X's one column."""
    if y.ndim == 2:
        return X
    x = X[:, 0]
    r = y - H @ x
    return x, float(r @ r)


def integer_gauss_transform(R, Z, i, j):
    """Subtract round(r_ij / r_ii) times column i from column j, i < j.

    Only rows <= i of column j change, so R stays upper triangular and
    |r_ij| <= |r_ii| / 2 afterwards. The same elementary column operation
    lands on Z, which keeps |det Z| = 1. Operates in place.
    """
    zeta = round_half_away_int(R[i, j] / R[i, i])
    if zeta != 0:
        R[: i + 1, j] -= zeta * R[: i + 1, i]
        Z[:, j] -= zeta * Z[:, i]
    return R, Z


def plll_reduce(H, y):
    """Partial lattice reduction: size-reduce only around column swaps.

    Starts from a QR factorization with ascending-norm column pivoting and
    guarantees the diagonal condition with delta = 1 on adjacent pairs;
    size reduction is applied only to columns that get permuted. The
    residual identity of the returned problem holds regardless.

    y may also be an m-by-p block whose columns are right-hand sides.
    R and Z do not depend on y, so one reduction serves the block:
    y_hat is then n-by-p, and y_hat[:, j] equals the y_hat of the
    reduction of y[:, j] alone bit for bit.

    The loop runs on Python lists, R as rows of floats and Z as columns of
    ints, since numpy's cost per call would dominate it. Each float is the
    array form's: the same IEEE operation on the same operands in the same
    order (integer_gauss_transform's column update, full-row swaps and
    rotate_rows' elementwise rotation with givens_coeffs' coefficients),
    and R comes back C-ordered, as the search's BLAS row products depend on
    the layout. y_hat stays an array, so a block takes one rotation per
    swap. Z's entries do not wrap: one outside int64 raises a ValueError.
    """
    H, y = _read_problem(H, y)
    Q1, R_qr, perm = householder_qr_min_pivot(H)
    n = R_qr.shape[0]
    R = R_qr.tolist()
    Z = [[0] * n for _ in range(n)]
    for j, i in enumerate(perm.tolist()):
        Z[j][i] = 1
    y_hat = _project(Q1, y)
    k = 1
    for _ in range(_LOOP_GUARD):
        if k >= n:
            break
        zeta = round_half_away_int(R[k - 1][k] / R[k - 1][k - 1])
        alpha = R[k - 1][k] - zeta * R[k - 1][k - 1]
        if R[k - 1][k - 1] ** 2 > (alpha**2 + R[k][k] ** 2) * (1.0 + _SWAP_MARGIN):
            for i in range(k - 1, -1, -1):  # integer_gauss_transform(R, Z, i, k)
                zeta = round_half_away_int(R[i][k] / R[i][i])
                if zeta != 0:
                    for row in R[: i + 1]:
                        row[k] -= zeta * row[i]
                    Z[k] = [u - zeta * v for u, v in zip(Z[k], Z[i])]
            # Swap columns k-1, k and restore triangularity with one rotation.
            for row in R:
                row[k - 1], row[k] = row[k], row[k - 1]
            Z[k - 1], Z[k] = Z[k], Z[k - 1]
            c, s = givens_coeffs(R[k - 1][k - 1], R[k][k - 1])
            a, b = R[k - 1], R[k]
            R[k - 1] = [c * u + s * v for u, v in zip(a, b)]
            R[k] = [-s * u + c * v for u, v in zip(a, b)]
            R[k][k - 1] = 0.0
            rotate_rows(y_hat, k - 1, k, c, s)
            k = max(k - 1, 1)
        else:
            k += 1
    else:
        raise RuntimeError("lattice reduction failed to terminate")
    Z = as_int64(list(zip(*Z)), "unimodular transform entry").reshape(n, n)
    return ReducedProblem(R=np.array(R).reshape(n, n), Z=Z, y_hat=y_hat)


def lll_reduce(H, y):
    """Full lattice reduction of min ||y - H x||^2: plll_reduce, then size reduction.

    R satisfies |r_ij| <= |r_ii| / 2 (i < j) and, on adjacent pairs,
    r_{k-1,k-1}^2 <= r_{k-1,k}^2 + r_kk^2: PLLL's swap test already uses
    the size-reduced superdiagonal, and size reduction keeps the diagonal.
    It touches only R and Z, so y may be a block, as for plll_reduce.
    """
    rp = plll_reduce(H, y)
    for j in range(1, rp.n):
        for i in range(j - 1, -1, -1):
            integer_gauss_transform(rp.R, rp.Z, i, j)
    return rp


def _search_levels(R):
    """The part of _enumerate's state that depends on R alone.

    Returns (diag, products, tails, z_float): R's diagonal as floats, a
    float64 buffer for a search's fixed coordinates, and per level k
    below the top the view tails[k] = z_float[k+1:] and the row view's
    products[k] = R[k, k+1:].dot. products[k](tails[k]) is the matmul's
    numpy DOUBLE_dot on the same memory, so it equals R[k, k+1:] @
    tails[k] in every bit but a zero's sign, which no search decision
    reads: rounding, the tie flag and the distances treat +0.0 and -0.0
    alike. A level reads only entries its own search wrote on the way
    down, so searches may take turns on one state, as a block's columns
    do, but not run on it at once.
    """
    n = R.shape[0]
    z_float = np.zeros(n)
    products = [R[k, k + 1 :].dot for k in range(n - 1)]
    tails = [z_float[k + 1 :] for k in range(n - 1)]
    return R.diagonal().tolist(), products, tails, z_float


def _enumerate(levels, y_hat, lower, upper, stats):
    """Zigzag enumeration of min ||y_hat - R z||^2 over lower <= z <= upper.

    The per-level bounds lower[k], upper[k] may be -inf and inf. A node
    is pruned when its partial residual reaches the radius: the best
    residual so far, initially inf. Each level starts at the clamped
    rounding of its conditional center and then takes the nearest untried
    in-box integer, so distances are nondecreasing and a failed radius
    test ends the level. On an exact distance tie the upper neighbour
    wins when the center lies at or above the first candidate, else the
    lower one. Backtracking skips levels whose interval is exhausted.
    Returns a global minimizer. A ValueError reports a coordinate outside
    int64, or a search with no leaf: one whose every candidate has a
    partial residual that overflows float64 to inf, which a box far from
    the centers can force. stats, when given, gains the visited nodes and
    every accepted radius.

    Per-level state lives in Python lists, y_hat too, as numpy scalar
    access would dominate. The fixed coordinates are kept twice: exactly
    as ints, for the answer, and in the float64 buffer of levels, R's
    _search_levels, whose views give each center its product with a row
    of R, the BLAS dot that numpy's own cast of an int64 z would make.
    The top level's row is empty, numpy's empty dot is +0.0 and y - 0.0
    is y for every float, so that center is y_hat / r_kk exactly.
    """
    diag, products, tails, z_float = levels
    n = len(diag)
    beta = np.inf
    best = None
    nodes = 0
    c = [0.0] * n
    t = [0.0] * n
    lo_f = [0] * n
    hi_f = [0] * n
    up = [False] * n
    z = [0] * n  # levels above the current one
    k = n - 1
    ck = y_hat[k] / diag[k]
    try:
        while True:
            # Enter level k at the in-box integer nearest its center ck.
            zk = round_half_away_int(ck)
            if zk < lower[k]:
                zk = lower[k]
            elif zk > upper[k]:
                zk = upper[k]
            c[k] = ck
            lo_f[k] = hi_f[k] = zk
            up[k] = ck >= zk
            while True:
                nodes += 1
                d = diag[k] * (zk - ck)
                partial = t[k] + d * d
                if partial < beta:
                    if not -(2**63) <= zk < 2**63:
                        raise OverflowError  # z must fit in int64
                    z[k] = z_float[k] = zk
                    if k > 0:
                        t[k - 1] = partial
                        k -= 1
                        ck = (y_hat[k] - float(products[k](tails[k]))) / diag[k]
                        break
                    beta = partial
                    best = z[:]
                    if stats is not None:
                        stats.betas.append(beta)
                # Backtrack to the nearest level with an untried in-box integer.
                k += 1
                while k < n:
                    a = lo_f[k] - 1
                    b = hi_f[k] + 1
                    ck = c[k]
                    if a < lower[k]:
                        if b > upper[k]:
                            k += 1
                            continue
                        zk = hi_f[k] = b
                    elif b > upper[k] or ck - a < b - ck or (ck - a == b - ck and not up[k]):
                        zk = lo_f[k] = a
                    else:
                        zk = hi_f[k] = b
                    break
                else:
                    if stats is not None:
                        stats.nodes += nodes
                    if best is None:
                        raise ValueError("the search's partial residuals all overflow float64")
                    return np.array(best, dtype=np.int64)
    except OverflowError:  # a coordinate outside int64, or an infinite center
        raise ValueError("a search coordinate is outside the int64 range") from None


def se_search(rp, stats=None):
    """Depth-first zigzag enumeration of min ||y_hat - R z||^2 over Z^n.

    Returns a global minimizer z; _enumerate's ValueErrors are its only
    failures. The search starts at an infinite radius, so its first leaf
    is the Babai point, and every later leaf is strictly better: the
    sequence of accepted bounds is strictly decreasing. Each level visits
    integers in order of distance from its center; on an exact tie the
    upper one comes first when the center lies at or above the level's
    first (rounded) integer, else the lower one.

    A block rp (y_hat n-by-p, from plll_reduce) gives the n-by-p int64 Z
    of its columns' vector searches, run in column order on one search
    state for R; stats gains theirs in that order.
    """
    levels = _search_levels(rp.R)
    unbounded = [-np.inf] * rp.n, [np.inf] * rp.n
    if rp.y_hat.ndim == 1:
        return _enumerate(levels, rp.y_hat.tolist(), *unbounded, stats)
    Z = np.empty(rp.y_hat.shape, dtype=np.int64, order="F")
    for j, y_hat in enumerate(rp.y_hat.T.tolist()):
        Z[:, j] = _enumerate(levels, y_hat, *unbounded, stats)
    return Z


def solve_ils(H, y, stats=None):
    """Globally minimize ||y - H x||_2^2 over integer vectors x.

    y is a vector or, as for plll_reduce, an m-by-p block of right-hand
    sides, which share one reduction of H and one se_search (stats gains
    every column's nodes). Returns (x, residual_sq) for a vector and the
    n-by-p int64 X alone, x_j in column j, for a block. H must have full
    column rank; a ValueError reports an x_j with a coordinate outside int64.
    """
    H, y = _read_problem(H, y)
    rp = plll_reduce(H, y if y.ndim == 2 else y[:, None])
    Zs = se_search(rp, stats=stats)
    # Z z can leave int64 though every z fits. The int64 product is exact
    # when max row-sum |Z| * max |z| < 2**63, else it is checked in Python ints.
    if int(np.abs(rp.Z).sum(axis=1).max()) * max_abs(Zs) >= 2**63:
        exact = rp.Z.astype(object) @ Zs.astype(object)
        if not all(-(2**63) <= v < 2**63 for v in exact.flat):
            raise ValueError("a solution coordinate is outside the int64 range")
    X = np.matmul(rp.Z, Zs, out=np.empty_like(Zs))  # column-major, as Zs is
    return _answer(H, y, X)
