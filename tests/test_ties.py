"""Exact ties: every solver reaches the exact integer minimum on tie-rich problems.

On H = 2 I with an odd y every conditional center is a half-integer, so
neighbouring integers tie exactly on every coordinate; H = 2 G with
integer G and an odd y make every residual a sum of odd squares, where
many points tie. The boxes [0, 1] and [-1, 1] keep few points, many of
them tied. Which tied x comes back is the search's tie rule;
these tests check only the residual's value, which any exact solver
must reach under any tie rule.
"""

import numpy as np
import pytest
from conftest import brute_box_min, brute_ils_min, exact_residual_sq, random_full_rank

from intlowrank.boxed import _BLOCK_MIN, BoxConstraint, solve_ilsb
from intlowrank.factorize import update_u, update_v
from intlowrank.ils import solve_ils

# Enough columns that a boxed block takes the batched reordering.
WIDTH = _BLOCK_MIN + 2
BOXES = {"unboxed": None, "0/1": (0, 1), "width 2": (-1, 1)}


def _odd(rng, shape):
    return 2 * rng.integers(-6, 6, size=shape) + 1


def _tie_problems():
    """(H, Y): H = 2 G of full column rank and an m-by-WIDTH block Y of odd integers."""
    rng = np.random.default_rng(2)
    problems = [(2 * np.eye(3, dtype=np.int64), _odd(rng, (3, WIDTH)))]
    for n in (1, 2, 3, 3, 4, 4, 5, 5):
        m = n + int(rng.integers(0, 3))
        problems.append((2 * random_full_rank(rng, m, n, lo=-2, hi=2), _odd(rng, (m, WIDTH))))
    return problems


PROBLEMS = _tie_problems()


def _optimum(H, y, bounds):
    """The exact minimum of ||y - H x||^2 over the integers, or over the box bounds."""
    if bounds is None:
        optimum = brute_ils_min(H, y)
        assert optimum is not None
        return optimum
    n = H.shape[1]
    return brute_box_min(H, y, np.full(n, bounds[0]), np.full(n, bounds[1]))


def _solve(H, y, box):
    if box is None:
        return solve_ils(H.astype(float), y.astype(float))
    return solve_ilsb(H.astype(float), y.astype(float), box)


@pytest.mark.parametrize("bounds", BOXES.values(), ids=BOXES.keys())
@pytest.mark.parametrize("H, Y", PROBLEMS, ids=[f"{H.shape[0]}x{H.shape[1]}" for H, _ in PROBLEMS])
def test_vector_and_block_solves_reach_the_minimum(H, Y, bounds):
    box = None if bounds is None else BoxConstraint.uniform(H.shape[1], *bounds)
    X = _solve(H, Y, box)
    assert X.shape == (H.shape[1], WIDTH)
    for j, y in enumerate(Y.T):
        optimum = _optimum(H, y, bounds)
        x, resid_sq = _solve(H, y, box)
        for point in (x, X[:, j]):
            assert box is None or box.contains(point)
            assert exact_residual_sq(H, y, point) == optimum
        # Small integer data: the float residual is exact.
        assert resid_sq == optimum


@pytest.mark.parametrize("bounds", BOXES.values(), ids=BOXES.keys())
def test_factor_updates_reach_the_row_minima(bounds):
    rng = np.random.default_rng(3)
    k, m, n = 3, WIDTH, 5
    A = _odd(rng, (m, n))
    A[1] = A[0]  # equal rows are solved once
    V = 2 * random_full_rank(rng, n, k, lo=-2, hi=2).T
    U = 2 * random_full_rank(rng, m, k, lo=-2, hi=2)
    box = None if bounds is None else BoxConstraint.uniform(k, *bounds)
    # Row i of update_u's U solves A[i] ~ V^T u; column j of update_v's V solves A[:, j] ~ U v.
    for H, rows, X in ((V.T, A, update_u(A, V, box)), (U, A.T, update_v(A, U, box).T)):
        for y, x in zip(rows, X):
            assert box is None or box.contains(x)
            assert exact_residual_sq(H, y, x) == _optimum(H, y, bounds)
