"""Dense linear algebra kernels shared by the reduction and factorization code."""

import numpy as np

from .exceptions import RankDeficientError

RANK_TOL = 1e-10


def round_half_away(x):
    """Round to the nearest integer, ties away from zero. Returns floats."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def pairwise_sum(v):
    """Sum of a list of floats in the order numpy's sum adds an array.

    The result equals float(np.sum(v)) bit for bit: up to 128 terms go
    into 8 interleaved accumulators (fewer than 8 are added in sequence),
    and longer lists split in two at a multiple of 8.
    """
    n = len(v)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(v[:half]) + pairwise_sum(v[half:])
    total = 0.0
    if n >= 8:
        acc, tail = v[:8], n - n % 8
        for i in range(8, tail, 8):
            for j in range(8):
                acc[j] += v[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        v = v[tail:]
    for x in v:
        total += x
    return total


def require_finite(arr, name):
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")


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


def int_det(M):
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [[int(v) for v in row] for row in np.asarray(M)]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]
