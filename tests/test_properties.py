"""Property tests of the solvers and the block update against brute force.

Hypothesis draws small integer problems: n from 1 to 4 coordinates, box
widths from 0 (a singleton coordinate) to 3, and integer H of full column
rank. The settings are derandomized, so every run tests the same examples.
"""

import numpy as np
from conftest import brute_box_min, brute_ils_min, exact_residual_sq
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intlowrank.boxed import (
    BoxConstraint,
    boxed_search,
    compute_bound_table,
    mch_reduce,
    solve_ilsb,
)
from intlowrank.factorize import update_u
from intlowrank.ils import solve_ils
from intlowrank.linalg import int_det

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def _matrix(draw, rows, cols, lo, hi):
    row = st.lists(st.integers(lo, hi), min_size=cols, max_size=cols)
    entries = draw(st.lists(row, min_size=rows, max_size=rows))
    return np.array(entries, dtype=np.int64).reshape(rows, cols)


def _full_rank(draw, rows, cols, lo, hi):
    H = _matrix(draw, rows, cols, lo, hi)
    assume(int_det(H.T @ H) != 0)  # exact test of full column rank
    return H


def _box(draw, n):
    lower = _matrix(draw, 1, n, -3, 3).ravel()
    widths = _matrix(draw, 1, n, 0, 3).ravel()
    return BoxConstraint(lower, lower + widths)


@st.composite
def ils_problems(draw):
    """(H, y) with integer H of full column rank."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, n + 2))
    return _full_rank(draw, m, n, -6, 6), _matrix(draw, m, 1, -30, 30).ravel()


@st.composite
def boxed_problems(draw):
    """(H, y, box) with integer H of full column rank."""
    H, y = draw(ils_problems())
    return H, y, _box(draw, H.shape[1])


@st.composite
def update_problems(draw):
    """(A, V, box) with V of full row rank k <= 3, one box for every row of U."""
    k = draw(st.integers(1, 3))
    V = _full_rank(draw, draw(st.integers(k, k + 2)), k, -4, 4).T
    A = _matrix(draw, draw(st.integers(1, 3)), V.shape[1], -12, 12)
    return A, V, _box(draw, k)


@DETERMINISTIC
@given(ils_problems())
def test_solve_ils_reaches_the_brute_force_optimum(problem):
    H, y = problem
    optimum = brute_ils_min(H, y)
    assume(optimum is not None)
    x, resid_sq = solve_ils(H.astype(float), y.astype(float))
    assert exact_residual_sq(H, y, x) == optimum
    assert abs(resid_sq - optimum) <= 1e-9 * max(1.0, optimum)


@DETERMINISTIC
@given(update_problems())
def test_update_u_rows_reach_the_brute_force_optimum(problem):
    A, V, box = problem
    U = update_u(A, V, box)
    for a, u in zip(A, U):
        assert box.contains(u)
        assert exact_residual_sq(V.T, a, u) == brute_box_min(V.T, a, box.lower, box.upper)


@DETERMINISTIC
@given(boxed_problems())
def test_solve_ilsb_reaches_the_brute_force_optimum(problem):
    H, y, box = problem
    x, resid_sq = solve_ilsb(H.astype(float), y.astype(float), box)
    assert box.contains(x)
    optimum = brute_box_min(H, y, box.lower, box.upper)
    assert exact_residual_sq(H, y, x) == optimum
    assert abs(resid_sq - optimum) <= 1e-9 * max(1.0, optimum)


@DETERMINISTIC
@given(boxed_problems())
def test_mch_reduce_permutes_the_box_and_keeps_the_optimum(problem):
    H, y, box = problem
    rp, pbox = mch_reduce(H.astype(float), y.astype(float), box)
    Z = rp.Z
    n = H.shape[1]
    assert set(np.unique(Z)) <= {0, 1}
    assert np.array_equal(Z @ Z.T, np.eye(n, dtype=np.int64))  # a permutation matrix
    assert np.array_equal(Z.T @ box.lower, pbox.lower)
    assert np.array_equal(Z.T @ box.upper, pbox.upper)
    z = boxed_search(rp, pbox, compute_bound_table(rp.R, rp.y_hat, pbox))
    assert exact_residual_sq(H, y, Z @ z) == brute_box_min(H, y, box.lower, box.upper)
