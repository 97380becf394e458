"""Property tests of the solvers and the block updates against brute force.

Hypothesis draws small integer problems: n from 1 to 4 coordinates, box
widths from 0 (a singleton coordinate) to 3, and integer H of full column
rank; and, for the run's residual, factors and data of any shape with
entries near 0, 2**31 or 2**62. The settings are derandomized, so every
run tests the same examples.
"""

import numpy as np
from conftest import brute_box_min, brute_ils_min, exact_residual_sq, int_det
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intlowrank.boxed import (
    _BLOCK_MIN,
    BoxConstraint,
    boxed_search,
    mch_reduce,
    solve_ilsb,
)
from intlowrank.factorize import _Data, residual, update_u, update_v
from intlowrank.ils import solve_ils

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
def one_sided_problems(draw):
    """(H, y, box) whose box is [lo, 2**62] or [-2**62, hi] on each coordinate.

    The far bounds are past 2**53, where float64 no longer holds every
    integer, so the reordering runs per column.
    """
    H, y = draw(ils_problems())
    n = H.shape[1]
    ends = _matrix(draw, 1, n, -3, 3).ravel()
    from_below = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    box = BoxConstraint(np.where(from_below, ends, -(2**62)), np.where(from_below, 2**62, ends))
    return H, y, box


@st.composite
def update_problems(draw):
    """(A, V, box) with V of full row rank k <= 3, one box for every row of U.

    A has 1 to 3 rows, or _BLOCK_MIN, which takes the boxed updates to
    the batched reordering when they are distinct.
    """
    k = draw(st.integers(1, 3))
    V = _full_rank(draw, draw(st.integers(k, k + 2)), k, -4, 4).T
    A = _matrix(draw, draw(st.sampled_from((1, 2, 3, _BLOCK_MIN))), V.shape[1], -12, 12)
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


# update_v on (A.T, V.T) solves the row problems of update_u on (A, V), one per column.
@DETERMINISTIC
@given(update_problems())
def test_update_v_columns_reach_the_brute_force_optimum(problem):
    A, V, box = problem
    for a, v in zip(A, update_v(A.T, V.T, box).T):
        assert box.contains(v)
        assert exact_residual_sq(V.T, a, v) == brute_box_min(V.T, a, box.lower, box.upper)


@DETERMINISTIC
@given(update_problems())
def test_unboxed_updates_reach_the_brute_force_optimum(problem):
    A, V, _ = problem
    optima = [brute_ils_min(V.T, a) for a in A]
    assume(None not in optima)
    for X in (update_u(A, V), update_v(A.T, V.T).T):
        assert [exact_residual_sq(V.T, a, x) for a, x in zip(A, X)] == optima


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
    z = boxed_search(rp, pbox)
    assert exact_residual_sq(H, y, Z @ z) == brute_box_min(H, y, box.lower, box.upper)


@DETERMINISTIC
@given(one_sided_problems())
def test_one_sided_box_never_beats_the_unboxed_optimum(problem):
    H, y, box = problem
    x, _ = solve_ilsb(H.astype(float), y.astype(float), box)
    x_free, _ = solve_ils(H.astype(float), y.astype(float))
    assert box.contains(x)
    boxed, free = exact_residual_sq(H, y, x), exact_residual_sq(H, y, x_free)
    assert boxed >= free
    if box.contains(x_free):
        assert boxed == free


# Entries near 0 keep the run's residual in int64; near 2**31 or 2**62 they
# put it past the int64 bound, into Python ints.
SCALES = (0, 2**31, 2**62)


def _scaled(draw, rows, cols):
    scale = draw(st.sampled_from(SCALES))
    signs = _matrix(draw, rows, cols, 0, 1) * 2 - 1
    return signs * (scale + _matrix(draw, rows, cols, -9, 9))


@st.composite
def factorizations(draw):
    """(A, U, V) with A m x n, U m x k and V k x n, k from 1 to 6."""
    m, n, k = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 6))
    return _scaled(draw, m, n), _scaled(draw, m, k), _scaled(draw, k, n)


@DETERMINISTIC
@given(factorizations())
def test_run_residual_is_exact(problem):
    A, U, V = problem
    assert _Data(A).residual(U, V) == residual(A, U, V)
