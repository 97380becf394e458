"""Property tests of the boxed solver against brute force.

Hypothesis draws small integer problems: n from 1 to 4 coordinates, box
widths from 0 (a singleton coordinate) to 3, and integer H of full column
rank. The settings are derandomized, so every run tests the same examples.
"""

import numpy as np
from conftest import brute_box_min, exact_residual_sq
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intlowrank.boxed import (
    BoxConstraint,
    boxed_search,
    compute_bound_table,
    mch_reduce,
    solve_ilsb,
)
from intlowrank.linalg import int_det

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def _matrix(draw, rows, cols, lo, hi):
    row = st.lists(st.integers(lo, hi), min_size=cols, max_size=cols)
    entries = draw(st.lists(row, min_size=rows, max_size=rows))
    return np.array(entries, dtype=np.int64).reshape(rows, cols)


@st.composite
def boxed_problems(draw):
    """(H, y, box) with integer H of full column rank."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, n + 2))
    H = _matrix(draw, m, n, -6, 6)
    assume(int_det(H.T @ H) != 0)  # exact test of full column rank
    y = _matrix(draw, m, 1, -30, 30).ravel()
    lower = _matrix(draw, 1, n, -3, 3).ravel()
    widths = _matrix(draw, 1, n, 0, 3).ravel()
    return H, y, BoxConstraint(lower, lower + widths)


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
