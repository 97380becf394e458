import numpy as np
import pytest
from conftest import (
    array_plll_reduce,
    assert_bits_equal,
    brute_ils_min,
    exact_residual_sq,
    int_det,
    make_ils_instance,
    random_full_rank,
)

from intlowrank import ils
from intlowrank.exceptions import RankDeficientError
from intlowrank.factorize import rounded_real_ls
from intlowrank.boxed import BoxConstraint, boxed_search, mch_reduce, solve_ilsb
from intlowrank.ils import (
    ReducedProblem,
    SearchStats,
    _search_levels,
    integer_gauss_transform,
    lll_reduce,
    plll_reduce,
    se_search,
    solve_ils,
)

EX21_H = np.array([[8.0, 1.0], [9.0, 2.0]])
EX21_Y = np.array([16.0, 17.0])

# Every entry point that reads an unconstrained problem (H, y), called as f(H, y).
READERS = {
    "solve_ils": solve_ils,
    "solve_ils_block": lambda H, y: solve_ils(H, np.reshape(y, (-1, 1))),
    "plll_reduce": plll_reduce,
    "lll_reduce": lll_reduce,
    "rounded_real_ls": rounded_real_ls,
}


def assert_reduction_contract(H, y, rp, rng, size_reduced=True, n_probe=20):
    n = rp.R.shape[0]
    # unimodular transform
    assert abs(int_det(rp.Z)) == 1
    # upper triangular with nonzero diagonal
    assert np.allclose(rp.R, np.triu(rp.R))
    assert np.all(np.abs(np.diag(rp.R)) > 0)
    # diagonal condition with delta = 1
    for k in range(1, n):
        lhs = rp.R[k - 1, k - 1] ** 2
        rhs = rp.R[k - 1, k] ** 2 + rp.R[k, k] ** 2
        assert lhs <= rhs * (1 + 1e-9) + 1e-9
    if size_reduced:
        for i in range(n):
            for j in range(i + 1, n):
                assert abs(rp.R[i, j]) <= abs(rp.R[i, i]) / 2 + 1e-9 * abs(rp.R[i, i]) + 1e-12
    # residual preservation on random integer points, up to the constant
    # squared part of y outside the column space of H
    outside = float(y @ y - rp.y_hat @ rp.y_hat)
    for _ in range(n_probe):
        z = rng.integers(-6, 7, size=n)
        lhs = float(np.sum((y - H @ (rp.Z @ z)) ** 2))
        rhs = float(np.sum((rp.y_hat - rp.R @ z) ** 2)) + outside
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


class TestIntegerGaussTransform:
    def test_subhalf_ratio_is_noop(self):
        R = np.array([[5.0, 2.0], [0.0, 1.0]])
        Z = np.eye(2, dtype=np.int64)
        integer_gauss_transform(R, Z, 0, 1)
        assert np.array_equal(R, [[5.0, 2.0], [0.0, 1.0]])
        assert np.array_equal(Z, np.eye(2))

    def test_tie_rounds_away_from_zero(self):
        # ratio 3/2 = 1.5 rounds to 2, so the new entry is 3 - 2*2 = -1
        R = np.array([[2.0, 3.0], [0.0, 1.0]])
        Z = np.eye(2, dtype=np.int64)
        integer_gauss_transform(R, Z, 0, 1)
        assert R[0, 1] == pytest.approx(-1.0)
        assert np.array_equal(Z, [[1, -2], [0, 1]])

    def test_unimodularity_preserved(self):
        rng = np.random.default_rng(5)
        R = np.triu(rng.normal(size=(4, 4))) + 4 * np.eye(4)
        Z = np.eye(4, dtype=np.int64)
        for j in range(1, 4):
            for i in range(j - 1, -1, -1):
                integer_gauss_transform(R, Z, i, j)
        assert abs(int_det(Z)) == 1

    def test_only_rows_up_to_i_change(self):
        R = np.array([[1.0, 0.0, 3.0], [0.0, 1.0, 4.0], [0.0, 0.0, 1.0]])
        before = R.copy()
        Z = np.eye(3, dtype=np.int64)
        integer_gauss_transform(R, Z, 1, 2)
        assert np.array_equal(R[2], before[2])
        assert R[1, 2] == pytest.approx(0.0)


class TestLLLReduce:
    def test_identity_already_reduced(self):
        y = np.array([1.0, -2.0, 3.0])
        rp = lll_reduce(np.eye(3), y)
        assert np.allclose(rp.R, np.eye(3))
        assert np.array_equal(rp.Z, np.eye(3))
        assert np.allclose(rp.y_hat, y)

    def test_conditions_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            H = random_full_rank(rng, n + int(rng.integers(0, 3)), n)
            y = rng.integers(-20, 21, size=H.shape[0])
            rp = lll_reduce(H.astype(float), y.astype(float))
            assert_reduction_contract(H, y, rp, rng)


class TestPLLLReduce:
    def test_identity(self):
        rp = plll_reduce(np.eye(4), np.array([0.2, -0.4, 1.2, 0.0]))
        assert abs(int_det(rp.Z)) == 1
        z = se_search(rp)
        x = rp.Z @ z
        assert np.array_equal(np.sort(np.abs(x)), [0, 0, 0, 1])

    def test_contract_without_full_size_reduction(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            H = random_full_rank(rng, n + 1, n)
            y = rng.integers(-20, 21, size=n + 1)
            rp = plll_reduce(H.astype(float), y.astype(float))
            assert_reduction_contract(H, y, rp, rng, size_reduced=False)

    def test_matches_lll_optimum(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            H = random_full_rank(rng, n + 1, n)
            y = rng.integers(-15, 16, size=n + 1)
            r_lll = _pipeline_residual(lll_reduce, H, y)
            r_plll = _pipeline_residual(plll_reduce, H, y)
            assert r_lll == r_plll


    def test_transform_beyond_int64_rejected(self):
        # A full-rank H whose reduction needs a Z entry of 10**24; an int64
        # column operation wraps it silently.
        H = np.array([
            [0, 1000, 0, 0, -(10**9)],
            [-(10**6), 0, 0, 0, 10],
            [1, 0, 0, -(10**6), 0],
            [0, 0, -(10**8), 10, 0],
            [0, 0, 100, 0, 0],
        ])
        for solve in (plll_reduce, solve_ils):
            with pytest.raises(ValueError, match="entry 10{24} is outside the int64 range"):
                solve(H, np.ones(5))


def _pipeline_residual(reduce_fn, H, y):
    rp = reduce_fn(H.astype(float), y.astype(float))
    z = se_search(rp)
    return exact_residual_sq(H, y, rp.Z @ z)


class TestSESearch:
    def test_babai_point_optimal_for_diagonal(self):
        from intlowrank.ils import ReducedProblem

        rp = ReducedProblem(
            R=np.eye(2), Z=np.eye(2, dtype=np.int64), y_hat=np.array([0.4, -0.3])
        )
        z = se_search(rp)
        assert np.array_equal(z, [0, 0])

    def test_worked_counterexample(self):
        rp = plll_reduce(EX21_H, EX21_Y)
        z = se_search(rp)
        x = rp.Z @ z
        assert np.array_equal(x, [2, 0])
        assert exact_residual_sq(EX21_H.astype(int), EX21_Y.astype(int), x) == 1
        # the four roundings of the real solution are all strictly worse
        naive = [(2, -1), (2, -2), (3, -1), (3, -2)]
        expect = [2, 13, 113, 72]
        for v, e in zip(naive, expect):
            assert exact_residual_sq(EX21_H.astype(int), EX21_Y.astype(int), np.array(v)) == e

    def test_bounds_strictly_decreasing(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            H = random_full_rank(rng, 5, 4)
            y = rng.integers(-20, 21, size=5)
            stats = SearchStats()
            se_search(plll_reduce(H.astype(float), y.astype(float)), stats=stats)
            assert len(stats.betas) >= 1
            assert all(b < a for a, b in zip(stats.betas, stats.betas[1:]))

    def test_single_level_closed_form(self):
        from intlowrank.ils import ReducedProblem

        rp = ReducedProblem(
            R=np.array([[2.0]]), Z=np.eye(1, dtype=np.int64), y_hat=np.array([7.0])
        )
        stats = SearchStats()
        assert np.array_equal(se_search(rp, stats=stats), [4])  # 7/2 = 3.5 rounds away to 4
        assert stats.nodes == 1

    def test_half_integer_tie_takes_upper_neighbour_first(self):
        from intlowrank.ils import ReducedProblem

        # The top level's center 10.5 rounds to 11, then steps to 10; its
        # next candidates 9 and 12 tie at distance 1.5, and 9 goes first
        # because the center lies below the first integer 11. An
        # alternating zigzag would take 12 first and stop after 15 nodes.
        rp = ReducedProblem(
            R=np.array([[4.0, 0.0, -1.0], [0.0, 4.0, -1.0], [0.0, 0.0, 1.0]]),
            Z=np.eye(3, dtype=np.int64),
            y_hat=np.array([0.0, 3.5, 10.5]),
        )
        stats = SearchStats()
        assert np.array_equal(se_search(rp, stats=stats), [3, 4, 12])
        assert stats.nodes == 17
        assert stats.betas == [3.5, 2.5]


class TestSolveILS:
    def test_worked_counterexample(self):
        x, resid_sq = solve_ils(EX21_H, EX21_Y)
        assert np.array_equal(x, [2, 0])
        assert resid_sq == pytest.approx(1.0, abs=1e-10)

    def test_identity_roundtrip(self):
        y = np.array([3.0, -1.0, 7.0])
        x, resid_sq = solve_ils(np.eye(3), y)
        assert np.array_equal(x, [3, -1, 7])
        assert resid_sq == pytest.approx(0.0, abs=1e-12)

    def test_constructed_solution_reached_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            H = random_full_rank(rng, n + 1, n)
            x_true = rng.integers(-8, 9, size=n)
            y = H @ x_true
            x, _ = solve_ils(H.astype(float), y.astype(float))
            assert exact_residual_sq(H, y, x) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        done = 0
        while done < 60:
            n = int(rng.integers(1, 5))
            H, y = make_ils_instance(rng, n)
            oracle = brute_ils_min(H, y)
            if oracle is None:
                continue
            x, _ = solve_ils(H.astype(float), y.astype(float))
            assert exact_residual_sq(H, y, x) == oracle
            done += 1

    @pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
    def test_row_count_mismatch_names_both_counts(self, read):
        with pytest.raises(ValueError, match="H has 3 rows but y has 2"):
            read(np.eye(3), [1, 2])

    @pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
    def test_no_columns_rejected(self, read):
        with pytest.raises(ValueError, match="H has no columns"):
            read(np.zeros((3, 0)), [1.0, 2.0, 3.0])

    # plll_reduce gives this H the Z [[-333, 1], [1, 0]], so x = Z z can
    # leave int64 while every z fits.
    BIG_Z_H = np.array([[3.0, 1000.4], [0.0, 1.0], [0.0, 0.0]])

    def test_solution_beyond_int64_rejected(self):
        # The optimum is about (1e19, -3e16); an int64 product wraps it.
        y = np.array([-1.2e16, -3e16, 0.0])
        with pytest.raises(ValueError, match="a solution coordinate is outside the int64 range"):
            solve_ils(self.BIG_Z_H, y)

    # The unconstrained optima lie past int64: about (1.5e19, -1.5e19), and
    # 1e310, whose center is inf in float64.
    @pytest.mark.parametrize("H, y", [([[1, 0], [0, 1], [1, 1]], [3e19, 2, 3]),
                                      ([[1e-300], [0]], [1e10, 0])],
                             ids=["3e19", "inf-center"])
    def test_search_coordinate_beyond_int64_rejected(self, H, y):
        with pytest.raises(ValueError, match="a search coordinate is outside the int64 range"):
            solve_ils(H, y)

    def test_large_solution_inside_int64_kept(self):
        # max row-sum |Z| * max |z| passes 2**63 here, so the product is
        # checked exactly, and it fits.
        x_true = [-9 * 10**18, 3 * 10**16]
        x, _ = solve_ils(self.BIG_Z_H, self.BIG_Z_H @ np.array(x_true, dtype=float))
        assert x.dtype == np.int64
        assert all(abs(int(v) - t) < 10**6 for v, t in zip(x, x_true))


class TestSharedReduction:
    """One block reduction must reproduce every per-column reduction exactly."""

    def _block(self, rng, m, n, p):
        H = random_full_rank(rng, m, n, lo=-20, hi=20).astype(float)
        Y = rng.integers(-60, 61, size=(m, p)).astype(float)
        return H, Y

    def test_columns_match_single_reductions_bit_for_bit(self):
        rng = np.random.default_rng(41)
        swaps_seen = False
        for _ in range(30):
            n = int(rng.integers(1, 7))
            H, Y = self._block(rng, n + int(rng.integers(0, 4)), n, int(rng.integers(1, 6)))
            block = plll_reduce(H, Y)
            assert block.y_hat.shape == (n, Y.shape[1])
            for j in range(Y.shape[1]):
                single = plll_reduce(H, Y[:, j])
                assert np.array_equal(block.R, single.R)
                assert np.array_equal(block.Z, single.Z)
                assert np.array_equal(block.y_hat[:, j], single.y_hat)
            is_permutation = (block.Z >= 0).all() and np.array_equal(block.Z @ block.Z.T, np.eye(n))
            swaps_seen |= not is_permutation
        # PLLL size-reduces only around swaps, so a Z that is not a
        # permutation proves that Givens rotations reached the block.
        assert swaps_seen

    @pytest.mark.parametrize("seed", [None, 45], ids=["identity", "random"])
    def test_lll_block_columns_match_vector_reductions_bit_for_bit(self, seed):
        if seed is None:
            H, Y = np.eye(3), np.ones((3, 2))
        else:
            # Seed 45 swaps in PLLL and size-reduces after it.
            H, Y = self._block(np.random.default_rng(seed), 5, 3, 4)
            assert not np.array_equal(lll_reduce(H, Y).Z, plll_reduce(H, Y).Z)
        block = lll_reduce(H, Y)
        assert block.y_hat.shape == (3, Y.shape[1])
        for j in range(Y.shape[1]):
            single = lll_reduce(H, Y[:, j])
            assert_bits_equal(block.R, single.R)
            assert_bits_equal(block.Z, single.Z)
            assert_bits_equal(block.y_hat[:, j], single.y_hat)
        # A 2-D y with one column is still a block.
        assert lll_reduce(H, Y[:, :1]).y_hat.shape == (3, 1)

    def test_solve_many_matches_solve_per_column(self):
        rng = np.random.default_rng(42)
        for n in (1, 1, 2, 3, 4, 5):
            H, Y = self._block(rng, n + 2, n, 7)
            block = SearchStats()
            X = solve_ils(H, Y, stats=block)
            assert X.shape == (n, 7)
            nodes, betas = 0, []
            for j in range(7):
                single, direct = SearchStats(), SearchStats()
                x, _ = solve_ils(H, Y[:, j], stats=single)
                assert np.array_equal(X[:, j], x)
                # The one-column solve is the reduction and search of the vector.
                rp = plll_reduce(H, Y[:, j])
                assert np.array_equal(x, rp.Z @ se_search(rp, stats=direct))
                assert (single.nodes, single.betas) == (direct.nodes, direct.betas)
                nodes += single.nodes
                betas += single.betas
            # The block's stats sum the columns' searches, in column order.
            assert block.nodes == nodes
            assert block.betas == betas

    def test_rank_deficient_block_raises(self):
        H = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(RankDeficientError):
            solve_ils(H, np.ones((3, 4)))


# Every solver, called as f(H, y): a block y gives X, a vector y (x, residual_sq or None).
SOLVERS = {
    "solve_ils": solve_ils,
    "solve_ilsb": lambda H, y: solve_ilsb(H, y, BoxConstraint.uniform(np.shape(H)[1], -9, 9)),
    "rounded_real_ls": lambda H, y: (
        rounded_real_ls(H, y) if np.ndim(y) == 2 else (rounded_real_ls(H, y), None)
    ),
}


@pytest.mark.parametrize("solve", SOLVERS.values(), ids=SOLVERS.keys())
class TestBlockShape:
    """A 2-D y is a block of right-hand sides; any other y is one vector."""

    H = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 1.0]])
    Y = np.array([[4.0, -7.0, 0.0], [5.0, 2.0, 9.0], [1.0, 1.0, -3.0]])

    def test_one_column_block_stays_a_block(self, solve):
        X = solve(self.H, self.Y[:, :1])
        assert isinstance(X, np.ndarray) and X.shape == (2, 1) and X.dtype == np.int64

    def test_columns_are_the_vector_solves(self, solve):
        X = solve(self.H, self.Y)
        assert X.shape == (2, 3)
        for j in range(3):
            x, _ = solve(self.H, self.Y[:, j])
            assert np.array_equal(X[:, j], x)

    def test_one_row_block_is_a_row_count_error(self, solve):
        with pytest.raises(ValueError, match="H has 3 rows but y has 1"):
            solve(self.H, self.Y[:, 0][None, :])

    def test_one_row_block_of_a_one_row_H(self, solve):
        X = solve([[2.0]], [[6.0, -4.0]])
        assert X.tolist() == [[3, -2]]

    def test_empty_block(self, solve):
        X = solve(self.H, np.zeros((3, 0)))
        assert isinstance(X, np.ndarray) and X.shape == (2, 0) and X.dtype == np.int64


class TestFiniteEntries:
    def test_nan_matrix_rejected(self):
        with pytest.raises(ValueError):
            solve_ils(np.array([[1.0, np.nan], [0.0, 1.0]]), np.zeros(2))

    @pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
    def test_inf_target_rejected(self, read):
        with pytest.raises(ValueError, match="y contains non-finite entries"):
            read(np.eye(2), np.array([np.inf, 0.0]))


def _ils_search_problem(seed):
    """A problem shaped as the benchmark's ils-search: square integer H of dimension 22..27."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(22, 28))
    H = np.rint(rng.standard_normal((n, n)) * 16.0).astype(np.int64)
    y = H @ rng.integers(-8, 9, size=n) + np.rint(rng.standard_normal(n) * 16.0).astype(np.int64)
    return H, y


class TestPLLLListOracle:
    """plll_reduce on lists reproduces the array form bit for bit."""

    def _problems(self):
        """Seeded (H, y) in three families; y is an m-by-p block in the second."""
        rng = np.random.default_rng(64)
        for seed in range(12):
            yield _ils_search_problem(1000 + seed)
        for _ in range(8):  # a V half-sweep of a 200x200 rank-3 factorization
            U = rng.integers(1, 5, size=(200, 3))
            yield U, U @ rng.integers(1, 5, size=(3, 200)) + rng.integers(-2, 3, size=(200, 200))
        for exponent in range(-3, 4):  # small real H over six orders of magnitude
            for _ in range(6):
                n = int(rng.integers(2, 7))
                m = n + int(rng.integers(0, 4))
                H = rng.standard_normal((m, n)) * 10.0**exponent
                yield H, rng.standard_normal(m) * 10.0**exponent

    def test_matches_array_form(self):
        swapped = 0
        for H, y in self._problems():
            try:
                rp = plll_reduce(H, y)
            except RankDeficientError:
                continue
            ref = array_plll_reduce(H, y)
            for got, want in ((rp.R, ref.R), (rp.y_hat, ref.y_hat), (rp.Z, ref.Z)):
                assert_bits_equal(got, want)
            # The search's BLAS row products depend on R's memory layout.
            assert rp.R.flags.c_contiguous
            swapped += not (np.abs(rp.Z).sum(axis=0) == 1).all()
        assert swapped > 30  # most problems take size-reducing swaps


class TestSearchBits:
    """The search's answer, nodes and every accepted radius, recorded before its list-state rewrite.

    Unboxed problems search PLLL's C-ordered R; the boxed ones were chosen
    so that the reordering moves a column, which leaves R F-ordered.
    """

    @pytest.mark.parametrize("seed, boxed, z, nodes, betas", [
        (3, False, [11, 1, 5, -11, -7, 3, -2, 2, 2, -1, 11, 1, -2, 12, 7, -3, 2, 1, 5, -3, -3, 12,
                    4, 6, 6, -7], 2937,
         ["0x1.a8fffffffffeep+12", "0x1.82ffffffffff2p+12", "0x1.7e2ffffffffdep+12",
          "0x1.61b0000000007p+12", "0x1.5a7ffffffffcbp+12", "0x1.0f90000000017p+12"]),
        (11, False, [16, 9, -6, -40, -14, -21, -2, 4, -8, -6, 16, -14, -4, -10, -7, 9, 1, -2, -8,
                     7, 5, -1], 1029,
         ["0x1.c65ffffffffe2p+11", "0x1.c05ffffffffb9p+11", "0x1.72a000000001cp+11"]),
        (11, True, [2, -3, -7, -6, -7, 0, -3, 2, 3, 1, 6, -3, -6, 8, 7, 5, -8, 5, -4, 5, 2, -6],
         2633,
         ["0x1.344ffffffffd7p+12", "0x1.1c6000000001ap+12", "0x1.de8000000001ep+11",
          "0x1.72a0000000014p+11"]),
        (9, True, [-1, -7, 6, 7, 6, 8, -6, -6, -6, -4, 5, -7, -3, 3, 8, -1, -5, -8, -7, -8, 7, 3,
                   -2, -5], 10677,
         ["0x1.f1efffffffff2p+12", "0x1.edf000000001ap+12", "0x1.7cefffffffff7p+12",
          "0x1.738ffffffffcdp+12", "0x1.718ffffffffebp+12", "0x1.6c7ffffffffdcp+12",
          "0x1.37dffffffffe5p+12"]),
    ], ids=["unboxed-3", "unboxed-11", "boxed-11", "boxed-9"])
    def test_pinned(self, seed, boxed, z, nodes, betas):
        H, y = _ils_search_problem(seed)
        stats = SearchStats()
        if boxed:
            rp, box = mch_reduce(H, y, BoxConstraint.uniform(H.shape[1], -8, 8))
            assert rp.R.flags.f_contiguous and not rp.R.flags.c_contiguous
            got = boxed_search(rp, box, stats=stats)
        else:
            rp = plll_reduce(H, y)
            assert rp.R.flags.c_contiguous
            got = se_search(rp, stats=stats)
        assert got.dtype == np.int64 and got.tolist() == z
        assert stats.nodes == nodes
        assert [b.hex() for b in stats.betas] == betas



class TestSearchLevels:
    """Each level's precomputed product is R[k, k+1:] @ z[k+1:] in every bit."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_products_are_the_matmul_bit_for_bit(self, order):
        rng = np.random.default_rng(17)
        negative_zeros = 0
        for _ in range(300):
            n = int(rng.integers(1, 9))
            R = np.array(np.triu(rng.standard_normal((n, n))) * 10.0 ** rng.integers(-3, 4),
                         order=order)
            diag, products, tails, z_float = _search_levels(R)
            assert diag == R.diagonal().tolist()
            assert len(products) == len(tails) == n - 1
            # Integer coordinates, zeros common, as a search writes them.
            z_float[:] = rng.integers(-2, 3, size=n)
            for k in range(n - 1):
                want = float(R[k, k + 1 :] @ z_float[k + 1 :])
                assert float(products[k](tails[k])).hex() == want.hex()
                negative_zeros += k == n - 2 and R[k, k + 1] < 0 and z_float[k + 1] == 0
        # A one-term row times 0 is -0.0 when the entry is negative: the matmul's +0.0 is pinned.
        assert negative_zeros > 10

def _bcd_row(seed, n, noise):
    """A BCD row's problem: H with entries in [1, 4] and 2n + 4 rows, y = H x + noise."""
    rng = np.random.default_rng(seed)
    H = rng.integers(1, 5, size=(2 * n + 4, n))
    return H, H @ rng.integers(1, 5, size=n) + rng.integers(-noise, noise + 1, size=2 * n + 4)


class TestSearchBitsBCDShapes:
    """TestSearchBits on the short rows of a BCD half-sweep (n = 1, 3, 6).

    A row of R with fewer than about six terms takes BLAS's scalar tail
    loop, not the unrolled one the 22-27 dim problems above exercise.
    Unboxed problems search PLLL's C-ordered R; boxed ones, on the box
    [1, 4], either the reordering's F-ordered R (a column moved) or the
    factor's C-ordered R (none did). A "-0" case replaces y_hat's last
    entry, the top level's center numerator, by -0.0.
    """

    @pytest.mark.parametrize("n, boxed, layout, seed, noise, negative_zero, z, nodes, betas", [
        (1, False, "C", 0, 3, False, [1], 1, ["0x1.7d05f417d05fbp-2"]),
        (3, False, "C", 257, 3, False, [3, 8, 10], 11,
         ["0x1.58992124b9c98p+4", "0x1.28992124b9cc0p+4", "0x1.f1324249739b4p+3"]),
        (6, False, "C", 286, 12, False, [7, 7, 11, 3, 2, 17], 35,
         ["0x1.5ebec993c57e8p+5", "0x1.56bec993c5806p+5", "0x1.56bec993c57f8p+5",
          "0x1.36bec993c57ffp+5", "0x1.bd7d93278b036p+4"]),
        (3, True, "F", 24, 3, False, [3, 2, 2], 13,
         ["0x1.851e319e0a27ap+4", "0x1.551e319e0a264p+4", "0x1.051e319e0a268p+4"]),
        (3, True, "C", 191, 12, False, [2, 2, 3], 13,
         ["0x1.7bce3c99b165bp+4", "0x1.2bce3c99b168dp+4"]),
        (6, True, "F", 382, 12, False, [4, 3, 1, 3, 3, 4], 29,
         ["0x1.c81ddcf873e06p+5", "0x1.481ddcf873ddep+5", "0x1.481ddcf873dc2p+5",
          "0x1.201ddcf873dbbp+5"]),
        (6, True, "C", 327, 3, False, [4, 2, 1, 3, 2, 2], 25,
         ["0x1.8bc6a2093c046p+4", "0x1.0bc6a2093c05ap+4", "0x1.d78d44127807cp+3",
          "0x1.b78d44127806ap+3"]),
        (3, False, "C", 257, 3, True, [-4, 10, 0], 5, ["0x1.2ffb0c1292b75p+1"]),
        (3, True, "F", 24, 3, True, [3, 3, 1], 9, ["0x1.01b6c2f7ce81ap+5", "0x1.d36d85ef9d01ep+4"]),
    ], ids=["unboxed-1", "unboxed-3", "unboxed-6", "boxed-3-F", "boxed-3-C", "boxed-6-F",
            "boxed-6-C", "unboxed-3-neg0", "boxed-3-F-neg0"])
    def test_pinned(self, n, boxed, layout, seed, noise, negative_zero, z, nodes, betas):
        H, y = _bcd_row(seed, n, noise)
        if boxed:
            rp, box = mch_reduce(H, y, BoxConstraint.uniform(n, 1, 4))
        else:
            rp = plll_reduce(H, y)
        assert rp.R.flags[f"{layout}_CONTIGUOUS"] and rp.R.flags.c_contiguous == (layout == "C")
        if negative_zero:
            y_hat = rp.y_hat.copy()
            y_hat[-1] = -0.0
            rp = ReducedProblem(R=rp.R, Z=rp.Z, y_hat=y_hat)
        stats = SearchStats()
        got = boxed_search(rp, box, stats=stats) if boxed else se_search(rp, stats=stats)
        assert got.dtype == np.int64 and got.tolist() == z
        assert stats.nodes == nodes
        assert [b.hex() for b in stats.betas] == betas


def _mixed_block():
    """(H, Y) whose columns differ widely: y = 0, entries near 1e9, tie-rich odd ys, duplicates.

    H = 2 G, so an odd y puts every residual at a sum of odd squares and
    many points tie. Twelve columns send a boxed block down the batched
    reordering.
    """
    rng = np.random.default_rng(5)
    H = 2 * random_full_rank(rng, 6, 4, lo=-2, hi=2)
    big = H @ rng.integers(-(10**8), 10**8, size=4) + rng.integers(-40, 41, size=6)
    odd = 2 * rng.integers(-6, 6, size=(6, 7)) + 1
    Y = np.column_stack([np.zeros(6, dtype=np.int64), big, odd, odd[:, 2], big + 3, big])
    assert abs(big).max() > 10**8
    return H, Y


class TestBlockColumnsIndependent:
    """A column's search sees nothing of the block's other columns.

    Each column of a block solve, in any column order, returns the x,
    nodes and accepted radii of its own vector solve, and the block's
    stats are the columns' stats in column order.
    """

    @pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
    @pytest.mark.parametrize("boxed", [False, True], ids=["solve_ils", "solve_ilsb"])
    def test_columns_are_their_vector_solves(self, boxed, order):
        H, Y = _mixed_block()
        box = BoxConstraint.uniform(4, -(2**40), 2**40)

        def solve(y, stats):
            return solve_ilsb(H, y, box, stats) if boxed else solve_ils(H, y, stats)

        p = Y.shape[1]
        cols = {"forward": np.arange(p), "reversed": np.arange(p)[::-1],
                "shuffled": np.random.default_rng(9).permutation(p)}[order]
        block = SearchStats()
        X = solve(Y[:, cols], block)
        nodes, betas = 0, []
        for i, j in enumerate(cols):
            single = SearchStats()
            x, _ = solve(Y[:, j], single)
            assert np.array_equal(X[:, i], x)
            assert single.nodes > 0
            nodes += single.nodes
            betas += [b.hex() for b in single.betas]
        assert block.nodes == nodes
        assert [b.hex() for b in block.betas] == betas


def _bcd_block(seed, n, noise, p=40):
    """A BCD half-sweep's block: the H of _bcd_row and p right-hand sides H x + noise."""
    H, _ = _bcd_row(seed, n, noise)
    rng = np.random.default_rng(seed + 1)
    E = rng.integers(-noise, noise + 1, size=(H.shape[0], p))
    return H, H @ rng.integers(1, 5, size=(n, p)) + E


BLOCKS = {
    "mixed": _mixed_block,
    "bcd-1": lambda: _bcd_block(0, 1, 3),
    "bcd-3": lambda: _bcd_block(257, 3, 3),
    "bcd-6": lambda: _bcd_block(286, 6, 12),
}


class TestBlockSearch:
    """se_search on a block reduction is its columns' vector searches, one call in all."""

    @pytest.mark.parametrize("make", BLOCKS.values(), ids=BLOCKS.keys())
    def test_columns_are_their_vector_searches(self, make):
        H, Y = make()
        block = SearchStats()
        Z = se_search(plll_reduce(H, Y), stats=block)
        assert Z.dtype == np.int64 and Z.shape == (H.shape[1], Y.shape[1])
        nodes, betas = 0, []
        for j in range(Y.shape[1]):
            single = SearchStats()
            z = se_search(plll_reduce(H, Y[:, j]), stats=single)
            assert z.tolist() == Z[:, j].tolist()
            nodes += single.nodes
            betas += [b.hex() for b in single.betas]
        assert block.nodes == nodes
        assert [b.hex() for b in block.betas] == betas

    def test_empty_block(self):
        rp = plll_reduce(EX21_H, np.zeros((2, 0)))
        Z = se_search(rp)
        assert Z.dtype == np.int64 and Z.shape == (2, 0)

    @pytest.mark.parametrize("block", [True, False], ids=["block", "vector"])
    def test_solve_ils_searches_once(self, block, monkeypatch):
        # A counting wrapper installed through the module global, as the
        # benchmark's tracer installs its own.
        search, calls = ils.se_search, []

        def counting(rp, stats=None):
            before = stats.nodes
            out = search(rp, stats)
            calls.append(stats.nodes - before)
            return out

        monkeypatch.setattr(ils, "se_search", counting)
        H, Y = _mixed_block()
        stats = SearchStats()
        solve_ils(H, Y if block else Y[:, 1], stats=stats)
        assert calls == [stats.nodes] and stats.nodes > 0
