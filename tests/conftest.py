"""Shared test helpers: instance generators and brute-force oracles.

The brute-force oracles are independent of the package's reduction and
search code: they enumerate integer boxes certified (by least-squares
geometry) to contain every optimum, and they compare exact integer
residuals. array_plll_reduce is the reduction's array form, the
reference that the package's list form must match bit for bit.
"""

import numpy as np

from intlowrank.ils import (
    _LOOP_GUARD,
    _SWAP_MARGIN,
    ReducedProblem,
    _project,
    _read_problem,
    integer_gauss_transform,
)
from intlowrank.linalg import (
    givens_coeffs,
    householder_qr_min_pivot,
    rotate_rows,
    round_half_away_int,
)


def exact_residual_sq(H, y, x):
    """Exact integer squared residual for integer H, y, x."""
    d = np.asarray(y, dtype=object) - np.asarray(H, dtype=object) @ np.asarray(x, dtype=object)
    return int((d * d).sum())


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


def array_plll_reduce(H, y):
    """ils.plll_reduce on numpy arrays: R and Z updated in place, column by column."""
    H, y = _read_problem(H, y)
    Q1, R, perm = householder_qr_min_pivot(H)
    n = R.shape[0]
    Z = np.zeros((n, n), dtype=np.int64)
    Z[perm, np.arange(n)] = 1
    y_hat = _project(Q1, y)
    k = 1
    for _ in range(_LOOP_GUARD):
        if k >= n:
            break
        zeta = round_half_away_int(R[k - 1, k] / R[k - 1, k - 1])
        alpha = R[k - 1, k] - zeta * R[k - 1, k - 1]
        if R[k - 1, k - 1] ** 2 > (alpha**2 + R[k, k] ** 2) * (1.0 + _SWAP_MARGIN):
            for i in range(k - 1, -1, -1):
                integer_gauss_transform(R, Z, i, k)
            R[:, [k - 1, k]] = R[:, [k, k - 1]]
            Z[:, [k - 1, k]] = Z[:, [k, k - 1]]
            c, s = givens_coeffs(R[k - 1, k - 1], R[k, k - 1])
            rotate_rows(R, k - 1, k, c, s)
            R[k, k - 1] = 0.0
            rotate_rows(y_hat, k - 1, k, c, s)
            k = max(k - 1, 1)
        else:
            k += 1
    else:
        raise RuntimeError("lattice reduction failed to terminate")
    return ReducedProblem(R=R, Z=Z, y_hat=y_hat)


def assert_bits_equal(a, b):
    """Equal dtype, shape and bits: floats must match in every bit, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def random_full_rank(rng, m, n, lo=-9, hi=9, min_sigma=0.3):
    """Random integer matrix with full column rank.

    Rejects draws whose smallest singular value falls below min_sigma;
    that keeps the certified enumeration boxes small enough to exhaust.
    """
    while True:
        H = rng.integers(lo, hi + 1, size=(m, n))
        if n == 1:
            if np.any(H):
                return H
            continue
        s = np.linalg.svd(H.astype(float), compute_uv=False)
        if s[-1] >= min_sigma:
            return H


def babai_point(H, y):
    """Nearest-plane integer point from a plain QR factorization."""
    Q, R = np.linalg.qr(np.asarray(H, dtype=float))
    w = Q.T @ np.asarray(y, dtype=float)
    n = R.shape[1]
    x = np.zeros(n, dtype=np.int64)
    for k in range(n - 1, -1, -1):
        c = (w[k] - R[k, k + 1 :] @ x[k + 1 :]) / R[k, k]
        x[k] = int(np.floor(abs(c) + 0.5)) * (1 if c >= 0 else -1)
    return x


def brute_box_min(H, y, lo, hi):
    """Exact integer minimum of ||y - H x||^2 over a full integer box."""
    H64 = np.asarray(H, dtype=np.int64)
    y64 = np.asarray(y, dtype=np.int64)
    grids = np.meshgrid(
        *[np.arange(l, h + 1, dtype=np.int64) for l, h in zip(lo, hi)], indexing="ij"
    )
    X = np.stack([g.ravel() for g in grids], axis=1)
    D = y64[None, :] - X @ H64.T
    return int((D * D).sum(axis=1).min())


def brute_ils_min(H, y, cap_cells=400_000):
    """Exhaustive minimum of ||y - H x||^2 over all integer vectors.

    Enumerates a box certified to contain every point whose residual does
    not exceed that of a cheap feasible point: any such x satisfies
    ||H (x - x_ls)||^2 <= beta0 - ||y - H x_ls||^2, which bounds each
    coordinate through the rows of the pseudoinverse. Returns None when
    the certified box exceeds the cell budget (caller should regenerate).
    """
    Hf = np.asarray(H, dtype=float)
    yf = np.asarray(y, dtype=float)
    x_ls, *_ = np.linalg.lstsq(Hf, yf, rcond=None)
    rho2 = float(np.sum((yf - Hf @ x_ls) ** 2))
    feasible = [np.asarray(np.round(x_ls), dtype=np.int64), babai_point(Hf, yf)]
    beta0 = min(exact_residual_sq(H, y, c) for c in feasible)
    d = np.sqrt(max(beta0 - rho2, 0.0)) * (1.0 + 1e-9) + 1e-9
    pinv = np.linalg.pinv(Hf)
    rad = np.linalg.norm(pinv, axis=1) * d + 1e-9
    lo = np.ceil(x_ls - rad).astype(np.int64)
    hi = np.floor(x_ls + rad).astype(np.int64)
    for c in feasible:
        lo = np.minimum(lo, c)
        hi = np.maximum(hi, c)
    cells = int(np.prod((hi - lo + 1).astype(object)))
    if cells > cap_cells:
        return None
    return brute_box_min(H, y, lo, hi)


def make_ils_instance(rng, n):
    """Random ILS instance kept oracle-friendly.

    Small dimensions draw fully random targets; larger ones plant a
    solution and perturb it so the certified enumeration box stays small.
    """
    m = n + int(rng.integers(0, 3))
    H = random_full_rank(rng, m, n)
    if n <= 4:
        y = rng.integers(-30, 31, size=m)
    else:
        x_true = rng.integers(-5, 6, size=n)
        noise = rng.integers(-2, 3, size=m)
        y = H @ x_true + noise
    return H, y


def make_ilsb_instance(rng, n, max_width=5):
    """Random boxed instance with at most max_width values per coordinate."""
    m = n + int(rng.integers(0, 3))
    H = random_full_rank(rng, m, n)
    y = rng.integers(-20, 21, size=m)
    lo = rng.integers(-4, 4, size=n)
    hi = lo + rng.integers(0, max_width, size=n)
    return H, y, lo, hi


# Data matrices from the worked examples used across the test suite.

TRANSACTIONS = np.array(
    [
        [2, 1, 3, 0, 2, 5],
        [2, 1, 1, 0, 2, 4],
        [0, 0, 4, 2, 0, 2],
        [4, 2, 2, 0, 4, 8],
        [0, 0, 2, 1, 0, 1],
    ]
)

TRANSACTIONS_V0 = np.array([[2, 1, 2, 0, 2, 4], [0, 0, 1, 1, 0, 1]])

RANK2_U = np.array([[1, 1], [1, 0], [0, 2], [2, 0], [0, 1]])
RANK2_V = np.array([[2, 1, 1, 0, 2, 4], [0, 0, 2, 1, 0, 1]])

RANDOM_TEST_A = np.array(
    [
        [16, 9, 7, 12, 13],
        [20, 12, 8, 14, 14],
        [22, 12, 10, 17, 19],
        [22, 14, 10, 16, 17],
        [28, 17, 13, 21, 23],
    ]
)

RANDOM_TEST_V0_FIRST = np.array([[3, 2, 4, 3, 3], [2, 1, 3, 3, 4], [2, 2, 3, 4, 1]])
RANDOM_TEST_U_FIRST = np.array(
    [[1, 2, 1], [3, 1, 1], [2, 3, 1], [3, 1, 1], [4, 2, 1]]
)
RANDOM_TEST_V_FIRST = np.array([[4, 3, 2, 3, 3], [4, 1, 2, 3, 3], [4, 3, 1, 3, 4]])

RANDOM_TEST_V0_SECOND = np.array([[2, 3, 2, 4, 1], [3, 2, 2, 1, 2], [2, 1, 4, 3, 3]])
RANDOM_TEST_U_SECOND = np.array(
    [[2, 2, 1], [1, 4, 1], [3, 3, 1], [2, 4, 1], [3, 4, 2]]
)
RANDOM_TEST_V_SECOND = np.array([[3, 1, 1, 3, 3], [3, 2, 1, 2, 2], [4, 3, 3, 2, 3]])
