"""Dense linear algebra kernels shared by the reduction and factorization code.

The package's one rounding rule, ties away from zero, and its one rule for
what counts as an int64 integer live here too.
"""

import math

import numpy as np

from .exceptions import RankDeficientError

RANK_TOL = 1e-10


def round_half_away(x):
    """Round to the nearest integer, ties away from zero. Returns floats."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def round_half_away_int(x):
    """round_half_away of one float as a Python int, by the same IEEE operations."""
    return math.floor(x + 0.5) if x >= 0 else -math.floor(0.5 - x)


def as_int64(values, name):
    """values as an int64 array; a ValueError names an entry that is not an integer.

    Only ints and integral floats pass: a fractional or NaN entry, or a Fraction, is never
    rounded or truncated, and one outside int64 (inf, 1e19, 2**63) is never wrapped.
    An int64 array comes back as itself, not as a copy. Other sequences are read as Python
    objects, so an int that numpy would round to float64 (2**62 + 1 beside 2.0) stays exact.
    """
    arr = np.asarray(values)
    if np.can_cast(arr.dtype, np.int64):  # every value of the dtype fits
        return arr.astype(np.int64, copy=False)
    if not isinstance(values, np.ndarray):
        arr = np.array(values, dtype=object)
    for v in arr.ravel().tolist():
        v = v.item() if isinstance(v, np.generic) else v
        fractional = not isinstance(v, float) or not (v.is_integer() or math.isinf(v))
        if fractional and not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} {v} is not an integer")
        if not -(2**63) <= v < 2**63:
            raise ValueError(f"{name} {v} is outside the int64 range")
    return arr.astype(np.int64)


def max_abs(M):
    """max |entry| of an integer array as a Python int, 0 if empty; np.abs wraps INT64_MIN."""
    return max(-int(M.min()), int(M.max())) if M.size else 0


def require_finite(arr, name):
    """A ValueError unless every entry of arr and its squared norm are finite float64."""
    with np.errstate(over="ignore"):  # a non-finite entry also makes the norm non-finite
        if np.isfinite(np.vdot(arr, arr)):
            return
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    raise ValueError(f"the squared norm of {name} overflows float64")


def _check_diagonal(R, scale):
    bound = RANK_TOL * scale
    diag = np.abs(np.diag(R))
    if (diag <= bound).any():
        raise RankDeficientError(
            f"numerically rank deficient: min |r_ii| = {diag.min():.3e} "
            f"<= {bound:.3e}"
        )


def householder_qr(H):
    """Thin QR factorization H = Q1 @ R of a full-column-rank matrix.

    Q1 is m-by-n with orthonormal columns and R is n-by-n upper triangular.
    Raises RankDeficientError when some |r_ii| <= RANK_TOL * ||H||_F.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    require_finite(H, "H")
    m, n = H.shape
    if m < n:
        raise RankDeficientError(f"{m}x{n} matrix cannot have full column rank")
    Q1, R = np.linalg.qr(H, mode="reduced")
    _check_diagonal(R, np.linalg.norm(H))
    return Q1, R


def _householder_vector(x):
    v = np.asarray(x, dtype=float).copy()
    sigma = float(v[1:] @ v[1:])
    x0 = float(v[0])
    if sigma == 0.0:
        v[:] = 0.0
        v[0] = 1.0
        return v, 0.0
    mu = np.sqrt(x0 * x0 + sigma)
    v0 = x0 - mu if x0 <= 0 else -sigma / (x0 + mu)
    beta = 2.0 * v0 * v0 / (sigma + v0 * v0)
    v /= v0
    v[0] = 1.0
    return v, beta


def householder_qr_min_pivot(H):
    """Thin QR with ascending-norm column pivoting: H[:, perm] = Q1 @ R.

    At step i the remaining column whose orthogonal-complement norm is
    smallest moves to position i, so small diagonals surface early.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    require_finite(H, "H")
    m, n = H.shape
    if m < n:
        raise RankDeficientError(f"{m}x{n} matrix cannot have full column rank")
    A = H.copy()
    perm = np.arange(n)
    reflectors = []
    for i in range(n):
        norms = np.linalg.norm(A[i:, i:], axis=0)
        j = i + int(np.argmin(norms))
        if j != i:
            A[:, [i, j]] = A[:, [j, i]]
            perm[[i, j]] = perm[[j, i]]
        v, beta = _householder_vector(A[i:, i])
        if beta != 0.0:
            A[i:, i:] -= beta * np.outer(v, v @ A[i:, i:])
        A[i + 1 :, i] = 0.0
        reflectors.append((i, v, beta))
    R = np.triu(A[:n, :n]).copy()
    Q1 = np.eye(m, n)
    for i, v, beta in reversed(reflectors):
        if beta != 0.0:
            Q1[i:, :] -= beta * np.outer(v, v @ Q1[i:, :])
    _check_diagonal(R, np.linalg.norm(H))
    return Q1, R, perm


def givens_coeffs(a, b):
    """Coefficients (c, s) with [c s; -s c] @ [a, b]^T = [hypot(a, b), 0]^T."""
    r = float(np.hypot(a, b))
    if r == 0.0:
        return 1.0, 0.0
    return a / r, b / r


def rotate_rows(M, i, j, c, s):
    """Apply the rotation [c s; -s c] to rows (or entries) i and j in place."""
    ri = c * M[i] + s * M[j]
    rj = -s * M[i] + c * M[j]
    M[i] = ri
    M[j] = rj

