import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import int_det

from intlowrank.exceptions import RankDeficientError
from intlowrank.ils import plll_reduce, solve_ils
from intlowrank.linalg import (
    as_int64,
    exact_rank,
    givens_coeffs,
    householder_qr,
    householder_qr_min_pivot,
    max_abs,
    rotate_rows,
    round_half_away,
    round_half_away_int,
)


class TestRounding:
    @pytest.mark.parametrize(
        "x,expected",
        [(0.0, 0), (0.4, 0), (0.5, 1), (-0.5, -1), (1.5, 2), (-1.5, -2), (2.4, 2), (-2.6, -3)],
    )
    def test_half_away_from_zero(self, x, expected):
        assert round_half_away(x) == expected
        out = round_half_away_int(x)
        assert type(out) is int and out == expected

    def test_vectorized(self):
        out = round_half_away([0.5, -0.5, 1.2])
        assert np.array_equal(out, [1.0, -1.0, 1.0])

    def test_scalar_form_matches_array_form(self):
        # Ties, their float neighbours, the largest float below one half,
        # and magnitudes where every float is an integer.
        rng = np.random.default_rng(23)
        ties = np.arange(-40, 40) + 0.5
        x = np.concatenate([
            rng.normal(size=2000) * 10.0 ** rng.integers(-3, 20, size=2000),
            ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf),
            [0.0, -0.0, 0.49999999999999994, -0.49999999999999994],
            [2.0**52 - 0.5, 0.5 - 2.0**52, 2.0**53 + 2],
        ])
        assert [round_half_away_int(v) for v in x.tolist()] == [int(v) for v in round_half_away(x)]


class TestAsInt64:
    # numpy reads a list mixing ints with floats as float64, which rounded
    # these ints to the nearest float before they were checked.
    @pytest.mark.parametrize("values", [[2**62 + 1, 2.0], [2**63 - 1, 2.0], [-(2**62) - 1, 1.0]])
    def test_ints_mixed_with_floats_kept_exactly(self, values):
        out = as_int64(values, "x")
        assert out.dtype == np.int64 and out.tolist() == [int(v) for v in values]

    def test_entry_past_int64_named_exactly(self):
        with pytest.raises(ValueError, match=f"x {2**63 + 1} is outside the int64 range"):
            as_int64([2**63 - 1, 2**63 + 1], "x")

    def test_numpy_scalars_in_a_list(self):
        assert as_int64([np.float32(2.0), np.int8(-3), 4], "x").tolist() == [2, -3, 4]
        with pytest.raises(ValueError, match="x 0.5 is not an integer"):
            as_int64([np.float32(0.5), 1], "x")


class TestMaxAbs:
    @pytest.mark.parametrize("values, expected", [
        ([[-(2**63), 5]], 2**63),  # np.abs wraps this entry to itself
        ([[3, -7], [2, 0]], 7),
        ([[4, 9]], 9),
        (np.zeros((3, 0), dtype=np.int64), 0),
    ], ids=["int64-min", "negative", "positive", "empty"])
    def test_largest_magnitude_as_python_int(self, values, expected):
        out = max_abs(np.array(values, dtype=np.int64))
        assert type(out) is int and out == expected


class TestHouseholderQR:
    def test_identity(self):
        Q1, R = householder_qr(np.eye(3))
        assert np.allclose(Q1, np.eye(3))
        assert np.allclose(R, np.eye(3))

    def test_scaled_identity(self):
        _, R = householder_qr(2 * np.eye(2))
        assert np.allclose(np.abs(np.diag(R)), [2.0, 2.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        H = rng.integers(-9, 10, size=(5, 3)).astype(float)
        Q1, R = householder_qr(H)
        assert np.linalg.norm(H - Q1 @ R) <= 1e-10 * np.linalg.norm(H)
        assert np.allclose(Q1.T @ Q1, np.eye(3), atol=1e-12)
        assert np.allclose(R, np.triu(R))

    def test_rank_deficient(self):
        with pytest.raises(RankDeficientError):
            householder_qr(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_wide_matrix_rejected(self):
        with pytest.raises(RankDeficientError):
            householder_qr(np.ones((2, 3)))

    # The unboxed path's QR rejects a wide H before any pivoting or reduction.
    @pytest.mark.parametrize("solve", [
        householder_qr_min_pivot,
        lambda H: plll_reduce(H, np.ones(2)),
        lambda H: solve_ils(H, np.ones(2)),
    ], ids=["householder_qr_min_pivot", "plll_reduce", "solve_ils"])
    def test_wide_matrix_rejected_on_the_unboxed_path(self, solve):
        with pytest.raises(RankDeficientError, match="^2x3 matrix cannot have full column rank$"):
            solve(np.ones((2, 3)))


class TestMinPivotQR:
    def test_reconstruction_with_permutation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            H = rng.integers(-9, 10, size=(6, 4)).astype(float)
            if np.linalg.matrix_rank(H) < 4:
                continue
            Q1, R, perm = householder_qr_min_pivot(H)
            assert sorted(perm) == list(range(4))
            assert np.linalg.norm(H[:, perm] - Q1 @ R) <= 1e-9 * np.linalg.norm(H)
            assert np.allclose(R, np.triu(R))

    def test_first_pivot_is_smallest_column(self):
        H = np.array([[3.0, 1.0, 5.0], [0.0, 0.5, 2.0], [0.0, 0.0, 4.0]])
        _, _, perm = householder_qr_min_pivot(H)
        norms = np.linalg.norm(H, axis=0)
        assert perm[0] == int(np.argmin(norms))

    def test_rank_deficient(self):
        with pytest.raises(RankDeficientError):
            householder_qr_min_pivot(np.array([[1.0, 1.0], [1.0, 1.0]]))

    # Column 0's sigma, 1e-322, is subnormal, so v0 underflows to -0.0 and
    # beta to 0: the reflector is the identity, and v is never divided.
    def test_subnormal_sigma_divides_nothing(self):
        H = np.array([[1e150, 0.0], [1e-161, 1e151]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Q1, R, perm = householder_qr_min_pivot(H)
            x = solve_ils(H, [1e150, 1e151])[0]
        assert perm.tolist() == [0, 1] and np.array_equal(Q1, np.eye(2))
        assert np.array_equal(R, np.triu(H)) and x.tolist() == [1, 1]


class TestGivens:
    def test_zeroes_second_entry(self):
        c, s = givens_coeffs(3.0, 4.0)
        v = np.array([3.0, 4.0])
        rotate_rows(v, 0, 1, c, s)
        assert v[0] == pytest.approx(5.0)
        assert v[1] == pytest.approx(0.0, abs=1e-15)

    def test_zero_pair(self):
        assert givens_coeffs(0.0, 0.0) == (1.0, 0.0)

    def test_norm_preserved_on_rows(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(4, 5))
        before = np.linalg.norm(M)
        c, s = givens_coeffs(M[1, 0], M[2, 0])
        rotate_rows(M, 1, 2, c, s)
        assert np.linalg.norm(M) == pytest.approx(before)


class TestIntDet:
    def test_known_values(self):
        assert int_det([[2, 3], [0, 1]]) == 2
        assert int_det([[0, 1], [1, 0]]) == -1
        assert int_det(np.eye(4, dtype=int)) == 1

    def test_singular(self):
        assert int_det([[1, 2], [2, 4]]) == 0

    def test_zero_pivot_needs_row_swap(self):
        assert int_det([[0, 2, 1], [3, 0, 0], [0, 0, 5]]) == -30

    def test_matches_float_det(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            M = rng.integers(-5, 6, size=(5, 5))
            assert int_det(M) == round(np.linalg.det(M.astype(float)))


def _fraction_rank(M):
    """Rank of an integer matrix by Gaussian elimination over the rationals."""
    rows, rank = [[Fraction(int(v)) for v in row] for row in np.asarray(M)], 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestExactRank:
    @pytest.mark.parametrize("m, k", [(6, 4), (3, 5), (1, 3), (7, 7)])
    def test_every_rank_of_h_and_g(self, m, k):
        # H = B C with B m-by-r and C r-by-k has rank at most r; checked, not assumed.
        rng = np.random.default_rng(80 + m * k)
        seen = set()
        for r in range(min(m, k) + 1):
            for _ in range(5):
                H = rng.integers(-9, 10, size=(m, r)) @ rng.integers(-9, 10, size=(r, k))
                rank = _fraction_rank(H)
                seen.add(rank)
                assert exact_rank(H.tolist()) == rank
                assert exact_rank((H.T @ H).tolist()) == rank
        assert seen == set(range(min(m, k) + 1))

    def test_zero_columns_and_skipped_pivots(self):
        assert exact_rank(np.zeros((4, 3), dtype=np.int64).tolist()) == 0
        assert exact_rank([]) == exact_rank([[], []]) == 0
        # Zero leading columns, and a column with no pivot between two with one.
        M = [[0, 0, 2, 4, 1], [0, 0, 1, 2, 0], [0, 0, 3, 6, 5]]
        assert exact_rank(M) == _fraction_rank(M) == 2

    def test_entries_past_float64(self):
        # Minors of G = H^T H for H near 2**26 exceed 2**53; every division stays exact.
        rng = np.random.default_rng(81)
        for _ in range(10):
            H = rng.integers(2**25, 2**26, size=(8, 5))
            H[:, 4] = H[:, 0] - 3 * H[:, 2]
            G = [[sum(int(a) * int(b) for a, b in zip(u, v)) for v in H.T] for u in H.T]
            assert exact_rank(G) == _fraction_rank(G) == 4
