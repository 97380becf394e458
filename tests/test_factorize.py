from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    RANDOM_TEST_A,
    RANDOM_TEST_U_FIRST,
    RANDOM_TEST_U_SECOND,
    RANDOM_TEST_V0_FIRST,
    RANDOM_TEST_V0_SECOND,
    RANDOM_TEST_V_FIRST,
    RANDOM_TEST_V_SECOND,
    RANK2_U,
    RANK2_V,
    TRANSACTIONS,
    TRANSACTIONS_V0,
    brute_box_min,
    exact_residual_sq,
    random_full_rank,
)

from intlowrank.boxed import BoxConstraint, solve_ilsb
from intlowrank.exceptions import NotOrthonormalError, RankDeficientError
from intlowrank.factorize import (
    STATUS_CONVERGED,
    STATUS_MAX_SWEEPS,
    STATUS_RANK_DEFICIENT,
    FactorizationConfig,
    as_int_matrix,
    bcd_factorize,
    init_most_frequent,
    init_random,
    residual,
    round_project_orthonormal,
    rounded_real_ls,
    update_u,
    update_v,
)
from intlowrank.ils import SearchStats, solve_ils


class TestResidual:
    def test_published_factor_pairs(self):
        assert residual(RANDOM_TEST_A, RANDOM_TEST_U_FIRST, RANDOM_TEST_V_FIRST) == 23
        assert residual(RANDOM_TEST_A, RANDOM_TEST_U_SECOND, RANDOM_TEST_V_SECOND) == 7

    def test_exact_product_is_zero(self):
        assert residual(RANK2_U @ RANK2_V, RANK2_U, RANK2_V) == 0

    def test_huge_entries_stay_exact(self):
        # arbitrary-precision arithmetic: no wraparound at int64 scale
        U = np.array([[10**12], [2 * 10**12]])
        V = np.array([[10**6, -(10**6)]])
        A = np.zeros((2, 2), dtype=np.int64)
        assert residual(A, U, V) == 2 * 10**36 + 8 * 10**36

    def test_int_entry_mixed_with_floats_kept_exactly(self):
        # numpy reads this A as float64, which rounded 2**53 + 1 to 2**53.
        assert residual([[2**53 + 1, 0.0]], [[1]], [[0, 0]]) == (2**53 + 1) ** 2

    def test_rejects_fractional_entries(self):
        with pytest.raises(ValueError):
            as_int_matrix(np.array([[1.5, 2.0]]))
        with pytest.raises(ValueError, match="matrix entry 0.5 is not an integer"):
            as_int_matrix(np.array([[0.5]]))
        with pytest.raises(ValueError, match="matrix entry 1/2 is not an integer"):
            as_int_matrix(np.array([[Fraction(1, 2)]], dtype=object))  # a cast truncates it

    # A cast used to wrap 1e19 and 2**63 to -2**63, making the residual
    # 2**126, and np.rint raised a TypeError on the Python int 2**70.
    @pytest.mark.parametrize("a", [np.array([[1e19]]), np.array([[2**63]], dtype=np.uint64),
                                   np.array([[2**70]], dtype=object), np.array([[np.inf]])],
                             ids=["float-1e19", "uint64-2**63", "object-2**70", "inf"])
    def test_rejects_entries_outside_int64(self, a):
        with pytest.raises(ValueError, match=r"matrix entry \S+ is outside the int64 range"):
            residual(a, [[1]], [[0]])

    def test_accepts_integral_floats(self):
        M = as_int_matrix(np.array([[1.0, -2.0], [0.0, 3.0]]))
        assert M.dtype == np.int64 and np.array_equal(M, [[1, -2], [0, 3]])

    def test_int64_matrix_is_not_copied(self):
        A = np.array([[1, -2], [0, 3]], dtype=np.int64)
        assert as_int_matrix(A) is A

    @pytest.mark.parametrize("a", [3_037_000_499, 3_037_000_500, -3_037_000_500])
    def test_exact_at_the_int64_bound(self, a):
        # a**2 < 2**63 for the first value only: int64 on one side of the
        # overflow bound, arbitrary precision on the other.
        zero = np.zeros((1, 1), dtype=np.int64)
        assert residual(np.array([[a]]), zero, zero) == a * a

    def test_matches_python_int_reference(self):
        rng = np.random.default_rng(51)
        for scale in (1, 100, 10**4, 10**6, 3 * 10**9):
            m, n, k = (int(v) for v in rng.integers(1, 12, size=3))
            A = rng.integers(-scale, scale + 1, size=(m, n))
            U = rng.integers(-scale, scale + 1, size=(m, k))
            V = rng.integers(-scale, scale + 1, size=(k, n))
            expected = sum(
                (int(A[i, j]) - sum(int(U[i, r]) * int(V[r, j]) for r in range(k))) ** 2
                for i in range(m)
                for j in range(n)
            )
            assert residual(A, U, V) == expected


class TestRoundProjectOrthonormal:
    def test_coordinate_projection(self):
        A = TRANSACTIONS
        V = np.eye(6, dtype=np.int64)[:2]
        assert np.array_equal(round_project_orthonormal(A, V), A[:, :2])

    def test_signed_permutation_rows(self):
        A = TRANSACTIONS
        V = np.zeros((2, 6), dtype=np.int64)
        V[0, 3] = -1
        V[1, 0] = 1
        U = round_project_orthonormal(A, V)
        assert np.array_equal(U[:, 0], -A[:, 3])
        assert np.array_equal(U[:, 1], A[:, 0])

    def test_not_orthonormal_rejected(self):
        with pytest.raises(NotOrthonormalError):
            round_project_orthonormal(TRANSACTIONS, np.ones((2, 6), dtype=np.int64))

    def test_matches_row_solves(self):
        rng = np.random.default_rng(30)
        A = rng.integers(-9, 10, size=(6, 5))
        V = np.zeros((3, 5), dtype=np.int64)
        for r, (j, s) in enumerate([(1, 1), (3, -1), (0, 1)]):
            V[r, j] = s
        U_fast = round_project_orthonormal(A, V)
        U_ils = update_u(A, V)
        assert residual(A, U_fast, V) == residual(A, U_ils, V)


class TestUpdates:
    def test_exact_factor_gives_zero_rows(self):
        A = RANK2_U @ RANK2_V
        U = update_u(A, RANK2_V)
        assert residual(A, U, RANK2_V) == 0

    def test_boxed_rows_are_globally_optimal(self):
        box = BoxConstraint.uniform(2, 0, 2)
        U = update_u(TRANSACTIONS, TRANSACTIONS_V0, box)
        H = TRANSACTIONS_V0.T
        for i in range(TRANSACTIONS.shape[0]):
            got = exact_residual_sq(H, TRANSACTIONS[i], U[i])
            best = brute_box_min(H, TRANSACTIONS[i], box.lower, box.upper)
            assert got == best

    def test_single_row_matches_direct_solve(self):
        rng = np.random.default_rng(31)
        V = rng.integers(-4, 5, size=(3, 5))
        while np.linalg.matrix_rank(V) < 3:
            V = rng.integers(-4, 5, size=(3, 5))
        a = rng.integers(-9, 10, size=(1, 5))
        U = update_u(a, V)
        x, _ = solve_ils(V.T.astype(float), a[0].astype(float))
        assert exact_residual_sq(V.T, a[0], U[0]) == exact_residual_sq(V.T, a[0], x)

    # An unknown name must not fall through to the rounding baseline.
    @pytest.mark.parametrize("box", [None, BoxConstraint.uniform(2, 0, 2)], ids=["unboxed", "boxed"])
    def test_unknown_method_rejected(self, box):
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            update_u(TRANSACTIONS, TRANSACTIONS_V0, box, method="bogus")
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            update_v(TRANSACTIONS.T, TRANSACTIONS_V0.T, box, method="bogus")

    def test_update_v_mirrors_update_u(self):
        rng = np.random.default_rng(32)
        A = rng.integers(0, 6, size=(5, 4))
        U = rng.integers(0, 3, size=(5, 2))
        while np.linalg.matrix_rank(U) < 2:
            U = rng.integers(0, 3, size=(5, 2))
        V = update_v(A, U)
        Ut = update_u(A.T, U.T)
        assert residual(A, U, V) == residual(A.T, Ut, U.T)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("box", [None, (-2, 3)])
    def test_shared_reduction_matches_row_by_row(self, k, box):
        # k = 1 takes the single-level branch of the unboxed search.
        rng = np.random.default_rng(60 + k)
        A = rng.integers(-6, 7, size=(9, 7))
        V = random_full_rank(rng, 7, k, lo=-4, hi=4).T
        U = random_full_rank(rng, 9, k, lo=-4, hi=4)
        cons = BoxConstraint.uniform(k, *box) if box else None
        u_stats, v_stats = SearchStats(), SearchStats()
        new_u = update_u(A, V, cons, stats=u_stats)
        new_v = update_v(A, U, cons, stats=v_stats)
        assert new_u.shape == (9, k) and new_v.shape == (k, 7)
        for H, rows, targets, block in ((V.T, new_u, A, u_stats), (U, new_v.T, A.T, v_stats)):
            # One stats object over the row solves sums their nodes and
            # concatenates their betas in row order, as the update must.
            stats = SearchStats()
            for i, y in enumerate(targets):
                H_f, y_f = H.astype(float), y.astype(float)
                if cons is None:
                    x, _ = solve_ils(H_f, y_f, stats=stats)
                else:
                    x, _ = solve_ilsb(H_f, y_f, cons, stats=stats)
                assert np.array_equal(rows[i], x)
            assert block.nodes == stats.nodes
            assert block.betas == stats.betas

    @pytest.mark.parametrize("method", ["ils", "rounded_ls"])
    @pytest.mark.parametrize("box", [None, (-2, 3)])
    def test_repeated_targets_are_solved_once(self, method, box):
        # Rows 0, 2 and 7 of A are equal, as are rows 1 and 5; so are
        # columns 0 and 5, and columns 1 and 3.
        rng = np.random.default_rng(70)
        A = rng.integers(-6, 7, size=(5, 5))[[0, 1, 0, 2, 3, 1, 4, 0]][:, [0, 1, 2, 1, 3, 0, 4]]
        V = random_full_rank(rng, 7, 2, lo=-4, hi=4).T
        U = random_full_rank(rng, 8, 2, lo=-4, hi=4)
        cons = BoxConstraint.uniform(2, *box) if box else None
        u_stats, v_stats = SearchStats(), SearchStats()
        new_u = update_u(A, V, cons, method=method, stats=u_stats)
        new_v = update_v(A, U, cons, method=method, stats=v_stats)
        # The layout of the factors that every solve is scattered into.
        assert new_u.dtype == new_v.dtype == np.int64
        assert new_u.flags.c_contiguous and new_v.flags.f_contiguous
        for H, rows, targets, block in ((V.T, new_u, A, u_stats), (U, new_v.T, A.T, v_stats)):
            H_f = H.astype(float)
            stats, seen = SearchStats(), set()
            for i, y in enumerate(targets):
                # Only the first copy of a target is searched and counted.
                counted = None if y.tobytes() in seen else stats
                seen.add(y.tobytes())
                y_f = y.astype(float)
                if method == "rounded_ls":
                    x = rounded_real_ls(H_f, y_f, cons)
                elif cons is None:
                    x, _ = solve_ils(H_f, y_f, stats=counted)
                else:
                    x, _ = solve_ilsb(H_f, y_f, cons, stats=counted)
                assert np.array_equal(rows[i], x)
            assert len(seen) == 5
            assert block.nodes == stats.nodes
            assert block.betas == stats.betas

    @pytest.mark.parametrize("box", [None, BoxConstraint.uniform(2, 0, 3)])
    def test_rank_deficient_factor_raises(self, box):
        deficient = np.array([[1, 2, 3, 4, 5, 6], [2, 4, 6, 8, 10, 12]])
        with pytest.raises(RankDeficientError):
            update_u(TRANSACTIONS, deficient, box)
        with pytest.raises(RankDeficientError):
            update_v(TRANSACTIONS.T, deficient.T, box)

    def test_node_counts_collected(self):
        stats = SearchStats()
        update_u(TRANSACTIONS, TRANSACTIONS_V0, stats=stats)
        # Every row's search visits a node and accepts a first bound.
        assert stats.nodes >= TRANSACTIONS.shape[0]
        assert len(stats.betas) >= TRANSACTIONS.shape[0]
        baseline = SearchStats()
        update_u(TRANSACTIONS, TRANSACTIONS_V0, method="rounded_ls", stats=baseline)
        assert baseline.nodes == 0 and baseline.betas == []


class TestInitMostFrequent:
    def test_reproduces_worked_example(self):
        assert np.array_equal(init_most_frequent(TRANSACTIONS, 2), TRANSACTIONS_V0)

    def test_constant_column(self):
        A = np.full((4, 3), 7)
        assert np.array_equal(init_most_frequent(A, 1), np.full((1, 3), 7))

    def test_padding_keeps_rows_distinct(self):
        A = np.array([[5, 1], [5, 2], [5, 2]])
        V0 = init_most_frequent(A, 2)
        # first column has a single distinct value: row r pads to 5 + r
        assert np.array_equal(V0[:, 0], [5, 6])
        assert np.array_equal(V0[:, 1], [2, 1])

    def test_padding_past_int64_names_the_column(self):
        top = np.iinfo(np.int64).max
        A = np.array([[1, top, 2], [2, top, 2], [3, top, 2]])
        with pytest.raises(ValueError, match=r"column 1 has fewer distinct values \(1\) than the rank \(2\)"):
            init_most_frequent(A, 2)
        # One row of padding fits exactly; the value is never wrapped.
        assert init_most_frequent(A - np.array([0, 1, 0]), 2)[1, 1] == top

    @pytest.mark.parametrize("case", range(7))
    def test_matches_column_loop_reference(self, case):
        rng = np.random.default_rng(case)
        for _ in range(60):
            m, n = (int(v) for v in rng.integers(1, 9, size=2))
            if case == 0:
                # Frequency ties and fewer distinct values than rows.
                A = rng.integers(-2, 3, size=(m, n))
            elif case == 1:
                # Top values on both sides of, or equidistant from, the mean.
                A = rng.choice([-3, -1, 0, 1, 3], size=(2 * m, n)) + rng.integers(-1, 2, size=(1, n))
            elif case == 2:
                A = rng.integers(-4, 5, size=(1, n))
            elif case == 3:
                A = rng.integers(-2, 3, size=(m, 1))
            elif case == 4:
                # Beyond 2**53, distinct values can share a float.
                A = rng.integers(-3, 4, size=(m, n)) * 2**60 + rng.integers(-2, 3, size=(m, n))
            elif case == 5:
                # The rounded mean decides between equally frequent values
                # B - 2**40 and B + 2**40; summing a column's rows in another
                # order (as A.mean(axis=0) does from 9 rows on) can flip it.
                base = rng.integers(2**61, 2**62, size=n) * rng.choice([-1, 1], size=n)
                A = base + 2**40 * rng.choice([-1, 1], size=(2 * m + 8, n))
            else:
                # As case 5 with more than 8,192 rows, which numpy sums in
                # buffered chunks, and exactly as many B - 2**40 as B + 2**40
                # entries per column, so that the rounded mean decides.
                rows = 2 * int(rng.integers(4097, 4200))
                base = rng.integers(2**61, 2**62, size=n) * rng.choice([-1, 1], size=n)
                upper = np.argsort(rng.random((rows, n)), axis=0) < rows // 2
                A = base + 2**40 * np.where(upper, 1, -1)
            for k in (1, 3, 9):
                assert np.array_equal(init_most_frequent(A, k), _init_most_frequent_reference(A, k))


def _init_most_frequent_reference(A, k):
    """init_most_frequent as a loop over columns, the form it had before vectorizing."""
    A = as_int_matrix(A)
    n = A.shape[1]
    V0 = np.zeros((k, n), dtype=np.int64)
    for j in range(n):
        col = A[:, j]
        vals, counts = np.unique(col, return_counts=True)
        freq = {int(v): int(c) for v, c in zip(vals, counts)}
        mean = float(col.mean())
        first = min(freq, key=lambda v: (-freq[v], abs(v - mean), v))
        rest = sorted((v for v in freq if v != first), key=lambda v: (-freq[v], v))
        ranked = [first, *rest]
        for r in range(k):
            V0[r, j] = ranked[r] if r < len(ranked) else first + r
    return V0


class TestInitRandom:
    def test_deterministic(self):
        a = init_random(3, 4, 1, 4, seed=99)
        b = init_random(3, 4, 1, 4, seed=99)
        assert np.array_equal(a, b)

    def test_singleton_box(self):
        assert np.array_equal(init_random(2, 2, 3, 3, seed=0), np.full((2, 2), 3))

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            init_random(2, 2, 4, 1, seed=0)

    def test_frequencies_are_uniform(self):
        draws = init_random(100, 100, 0, 4, seed=5)
        n = draws.size
        p = 1 / 5
        sigma = np.sqrt(n * p * (1 - p))
        for v in range(5):
            count = int((draws == v).sum())
            assert abs(count - n * p) <= 3 * sigma


class TestRoundedRealLS:
    def test_rounds_to_suboptimal_point(self):
        H = np.array([[8.0, 1.0], [9.0, 2.0]])
        y = np.array([16.0, 17.0])
        x = rounded_real_ls(H, y)
        assert np.array_equal(x, [2, -1])
        assert exact_residual_sq(H.astype(int), y.astype(int), x) == 2

    def test_identity_matches_exact_solver(self):
        y = np.array([4.0, -2.0, 9.0])
        x = rounded_real_ls(np.eye(3), y)
        x_exact, _ = solve_ils(np.eye(3), y)
        assert np.array_equal(x, x_exact)

    def test_never_beats_exact_solver(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            H = random_full_rank(rng, n + 1, n)
            y = rng.integers(-20, 21, size=n + 1)
            x_round = rounded_real_ls(H.astype(float), y.astype(float))
            _, resid_exact = solve_ils(H.astype(float), y.astype(float))
            assert exact_residual_sq(H, y, x_round) >= round(resid_exact) - 0

    def test_clamps_to_box(self):
        H = np.array([[8.0, 1.0], [9.0, 2.0]])
        y = np.array([16.0, 17.0])
        x = rounded_real_ls(H, y, BoxConstraint.uniform(2, 0, 3))
        assert np.array_equal(x, [2, 0])

    # A rounded coordinate past int64 used to wrap to -2**63 before the
    # clamp. 2**63 - 1 has no float64; its nearest one, 2**63, does not cast.
    @pytest.mark.parametrize("y0, lo, hi, expected", [
        (1e19, 0, 3, 3),
        (-1e150, -7, 3, -7),
        (1e19, 0, 2**63 - 1, 2**63 - 1),
        (2.0**53 + 2, 0, 2**53 + 1, 2**53 + 1),
        (2.0**62, 0, 2**63 - 1, 2**62),
    ])
    def test_clamps_beyond_int64_to_box(self, y0, lo, hi, expected):
        x = rounded_real_ls(np.eye(2), [y0, 1.0], BoxConstraint.uniform(2, lo, hi))
        assert x.dtype == np.int64 and x.tolist() == [expected, 1]

    # Without a box a coordinate past int64 used to come back as -2**63.
    @pytest.mark.parametrize("y0, message", [
        (1e19, "a solution coordinate is outside the int64 range"),
        (-1e150, "a solution coordinate is outside the int64 range"),
        (2.0**63, "a solution coordinate is outside the int64 range"),
        (1e300, "the squared norm of y overflows float64"),
    ])
    def test_unboxed_beyond_int64_rejected(self, y0, message):
        with pytest.raises(ValueError, match=message):
            rounded_real_ls(np.eye(2), [y0, 1.0])

    def test_unboxed_int64_extremes_kept(self):
        x = rounded_real_ls(np.eye(2), [-(2.0**63), 2.0**63 - 1024])
        assert x.tolist() == [-(2**63), 2**63 - 1024]


class TestBCDFactorize:
    def test_recovery_from_true_factor(self):
        A = RANK2_U @ RANK2_V
        result = bcd_factorize(A, FactorizationConfig(rank=2, init=RANK2_V))
        assert result.residual_history[0] == 0
        assert result.status == STATUS_CONVERGED
        assert np.array_equal(result.U, RANK2_U)
        assert not np.shares_memory(result.V, RANK2_V)  # equal, but the result's own

    def test_worked_boxed_run(self):
        config = FactorizationConfig(
            rank=2, box_u=(0, 2), box_v=(0, 4), init="most_frequent"
        )
        result = bcd_factorize(TRANSACTIONS, config)
        assert result.final_residual == 1
        assert result.status == STATUS_CONVERGED

    def test_worked_unconstrained_run(self):
        result = bcd_factorize(TRANSACTIONS, FactorizationConfig(rank=2))
        assert result.final_residual <= 9

    def test_monotone_descent_and_feasibility(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            m, n, k = 5, 6, 2
            A = rng.integers(0, 6, size=(m, n))
            config = FactorizationConfig(
                rank=k, box_u=(0, 3), box_v=(0, 5), init="random", seed=int(rng.integers(10**6))
            )
            result = bcd_factorize(A, config)
            hist = result.residual_history
            assert all(b <= a for a, b in zip(hist, hist[1:]))
            if result.status != STATUS_RANK_DEFICIENT:
                assert result.U.min() >= 0 and result.U.max() <= 3
                assert result.V.min() >= 0 and result.V.max() <= 5
                assert result.final_residual == residual(A, result.U, result.V)

    @pytest.mark.parametrize("box", [None, (-3, 3)], ids=["unboxed", "boxed"])
    @pytest.mark.parametrize("seed", [0, 6])
    def test_descent_on_entries_near_1e9(self, seed, box):
        # Entries near 1e9 put residual()'s bound past int64, so every
        # history entry is summed in Python ints.
        rng = np.random.default_rng(seed)
        m, n, k, scale = 9, 7, 3, 10**9
        A = rng.integers(-3, 4, size=(m, k)) @ rng.integers(-scale, scale + 1, size=(k, n))
        A += rng.integers(-scale // 2, scale // 2 + 1, size=(m, n))
        assert A.size * int(np.abs(A).max()) ** 2 >= 2**63  # entry_bound >= max |A|
        config = FactorizationConfig(
            rank=k,
            init=rng.integers(-scale, scale + 1, size=(k, n)),
            box_u=box,
            # A box_v that cuts V off far from its centers makes boxed_search
            # walk about 1e9 nodes; this one is far wider than any V here.
            box_v=None if box is None else (-(2**40), 2**40),
        )
        result = bcd_factorize(A, config)
        hist = result.residual_history
        assert result.status == STATUS_CONVERGED and len(hist) >= 6
        assert all(b <= a for a, b in zip(hist, hist[1:]))
        U, V = result.U.tolist(), result.V.tolist()
        exact = sum(
            (a - sum(u * v for u, v in zip(U[i], col))) ** 2
            for i, row in enumerate(A.tolist())
            for a, col in zip(row, zip(*V))
        )
        assert hist[-1] == exact

    def test_deterministic(self):
        A = RANDOM_TEST_A
        config = FactorizationConfig(rank=3, box_u=(1, 4), box_v=(1, 4), init="random", seed=7)
        r1 = bcd_factorize(A, config)
        r2 = bcd_factorize(A, config)
        assert np.array_equal(r1.U, r2.U)
        assert np.array_equal(r1.V, r2.V)
        assert r1.residual_history == r2.residual_history

    def test_rank_deficient_init_is_reported_not_raised(self):
        V0 = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 1, 1]])  # rank 1
        result = bcd_factorize(RANDOM_TEST_A, FactorizationConfig(rank=2, init=V0))
        assert result.status == STATUS_RANK_DEFICIENT
        assert result.U is None
        assert result.residual_history == []

    def test_transposed_run_is_v_first(self):
        A = RANK2_U @ RANK2_V
        result = bcd_factorize(A.T, FactorizationConfig(rank=2, init=RANK2_U.T))
        assert result.residual_history[0] == 0

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError):
            bcd_factorize(TRANSACTIONS, FactorizationConfig(rank=5))

    @pytest.mark.parametrize("change, message", [
        ({"init": np.ones((2, 4), dtype=np.int64)}, r"explicit init has shape \(2, 4\)"),
        ({"init": "best"}, "unknown init 'best'"),
        ({"method": "exhaustive"}, "unknown method 'exhaustive'"),
    ])
    def test_invalid_config_rejected(self, change, message):
        with pytest.raises(ValueError, match=message):
            bcd_factorize(TRANSACTIONS, FactorizationConfig(rank=2, **change))

    # The most-frequent init of a matrix of ones is V = 1 1 1, which the
    # run used to return unchanged from the box [2, 3].
    def test_most_frequent_init_is_clipped_into_box_v(self):
        config = FactorizationConfig(rank=1, box_v=(2, 3))
        result = bcd_factorize(np.ones((3, 3), dtype=np.int64), config)
        assert ((result.V >= 2) & (result.V <= 3)).all()
        assert result.residual_history[-1] == residual(np.ones((3, 3)), result.U, result.V)

    def test_explicit_init_outside_box_v_rejected(self):
        config = FactorizationConfig(rank=1, box_v=(2, 3), init=np.array([[7, 7, 7]]))
        message = r"explicit init has an entry outside the box_v interval \[2, 3\]"
        with pytest.raises(ValueError, match=message):
            bcd_factorize(np.ones((3, 3), dtype=np.int64), config)

    @pytest.mark.parametrize("box", [{"box_u": (0.5, 2.5)}, {"box_v": (0, 2.5)}])
    def test_fractional_box_rejected(self, box):
        with pytest.raises(ValueError, match="bound [02].5 is not an integer"):
            bcd_factorize(TRANSACTIONS, FactorizationConfig(rank=2, **box))

    @pytest.mark.parametrize("box", [None, (0, 4)], ids=["unboxed", "boxed"])
    def test_half_sweep_nodes_logged(self, box):
        config = FactorizationConfig(rank=2, box_u=box, box_v=box)
        result = bcd_factorize(TRANSACTIONS, config)
        assert len(result.half_sweep_nodes) == len(result.residual_history) >= 2
        # Replay the run: entry h is the node sum of the h-th block update.
        cons = BoxConstraint.uniform(2, *box) if box else None
        U, V = None, init_most_frequent(TRANSACTIONS, 2)
        for h, logged in enumerate(result.half_sweep_nodes):
            stats = SearchStats()
            if h % 2 == 0:
                U = update_u(TRANSACTIONS, V, cons, stats=stats)
            else:
                V = update_v(TRANSACTIONS, U, cons, stats=stats)
            assert logged == stats.nodes >= 1
        assert np.array_equal(U, result.U) and np.array_equal(V, result.V)

    # Both used to run on the entry wrapped to -2**63.
    @pytest.mark.parametrize("where", ["A", "init"])
    def test_entry_outside_int64_rejected(self, where):
        A = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 10]], dtype=float)
        init = np.ones((1, 3))
        (A if where == "A" else init)[0, 0] = 1e19
        with pytest.raises(ValueError, match=r"matrix entry 1e\+19 is outside the int64 range"):
            bcd_factorize(A, FactorizationConfig(rank=1, init=init))

    # Both used to end in a TypeError from inside the init code or range().
    @pytest.mark.parametrize("field, value", [("rank", 1.9), ("max_sweeps", 2.5)])
    def test_fractional_count_rejected(self, field, value):
        config = FactorizationConfig(**{"rank": 2, field: value})
        with pytest.raises(ValueError, match=f"{field} {value} is not an integer"):
            bcd_factorize(TRANSACTIONS, config)

    @pytest.mark.parametrize("max_sweeps", [0, -1])
    def test_invalid_max_sweeps_rejected(self, max_sweeps):
        with pytest.raises(ValueError, match="max_sweeps"):
            bcd_factorize(TRANSACTIONS, FactorizationConfig(rank=2, max_sweeps=max_sweeps))

    def test_max_sweeps_status(self):
        rng = np.random.default_rng(35)
        A = rng.integers(0, 9, size=(6, 6))
        config = FactorizationConfig(rank=2, max_sweeps=1, init="random", seed=1)
        result = bcd_factorize(A, config)
        assert result.status in ("max_sweeps", STATUS_CONVERGED, STATUS_RANK_DEFICIENT)
        if result.status == "max_sweeps":
            assert result.sweeps == 1

    def test_published_boxed_runs_meet_reported_levels(self):
        for V0, bound in (
            (RANDOM_TEST_V0_FIRST, 23),
            (RANDOM_TEST_V0_SECOND, 7),
        ):
            config = FactorizationConfig(rank=3, box_u=(1, 4), box_v=(1, 4), init=V0)
            result = bcd_factorize(RANDOM_TEST_A, config)
            assert result.status == STATUS_CONVERGED
            assert result.final_residual <= bound


class TestGoldenBoxedRun:
    def test_recorded_history_and_nodes(self):
        # Recorded before the boxed reordering moved to Python lists. Any
        # drift there changes these numbers, R's memory layout included:
        # the search's BLAS row products round strided and contiguous rows
        # differently from 4 terms on, so the rank is 6, not 3.
        rng = np.random.default_rng(2015)
        A = rng.integers(1, 5, size=(30, 6)) @ rng.integers(1, 5, size=(6, 30))
        config = FactorizationConfig(
            rank=6, max_sweeps=3, box_u=(1, 4), box_v=(1, 4), init="random", seed=2015
        )
        result = bcd_factorize(A, config)
        assert result.residual_history == [72984, 4232, 3224, 2603, 2267, 2011]
        # The search prunes by its radius alone; with the per-level bound
        # table it visited [404, 660, 348, 440, 366, 394].
        assert result.half_sweep_nodes == [406, 664, 352, 440, 366, 394]


class TestGoldenUnboxedRun:
    def test_recorded_history_and_nodes(self):
        # Recorded before init_most_frequent was vectorized: the unboxed
        # path from the default most-frequent init, pinned.
        rng = np.random.default_rng(2016)
        A = rng.integers(1, 5, size=(60, 3)) @ rng.integers(1, 5, size=(3, 60))
        config = FactorizationConfig(rank=3, max_sweeps=3, init="most_frequent")
        result = bcd_factorize(A, config)
        assert result.residual_history == [101703, 33724, 8730, 5873, 4841, 4651]
        # The nodes of the distinct rows (columns) only: a product of
        # entries in 1..4 repeats rows, and each repeat shares one search.
        # Solving every copy gave [300, 300, 330, 338, 346, 330].
        assert result.half_sweep_nodes == [185, 185, 201, 217, 211, 209]
        assert result.status == STATUS_MAX_SWEEPS
        assert result.sweeps == 3
