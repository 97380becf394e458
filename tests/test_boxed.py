import itertools
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    assert_bits_equal,
    brute_box_min,
    exact_residual_sq,
    int_det,
    make_ilsb_instance,
    random_full_rank,
)

from intlowrank import boxed
from intlowrank.boxed import (
    _BLOCK_MIN,
    _SCORE_MAX,
    BoxConstraint,
    _factor,
    _reorder,
    _reorder_block,
    boxed_search,
    compute_bound_table,
    in_box_rounding,
    mch_reduce,
    solve_ilsb,
)
from intlowrank.exceptions import EmptyBoxError, RankDeficientError
from intlowrank.factorize import rounded_real_ls
from intlowrank.ils import ReducedProblem, SearchStats, _project, plll_reduce, se_search
from intlowrank.linalg import givens_coeffs, rotate_rows

# Every entry point that reads a boxed problem (H, y), called as f(H, y, box).
READERS = {
    "solve_ilsb": solve_ilsb,
    "solve_ilsb_block": lambda H, y, box: solve_ilsb(H, np.reshape(y, (-1, 1)), box),
    "mch_reduce": mch_reduce,
    "rounded_real_ls": rounded_real_ls,
}


class TestBoxConstraint:
    def test_empty_interval_rejected(self):
        with pytest.raises(EmptyBoxError):
            BoxConstraint([0, 3], [4, 1])

    def test_uniform_and_contains(self):
        box = BoxConstraint.uniform(3, 0, 4)
        assert box.contains([0, 4, 2])
        assert not box.contains([0, 5, 2])

    def test_membership_is_per_coordinate(self):
        box = BoxConstraint([-1, 2], [1, 2])
        assert box.contains([1, 2])
        assert not box.contains([1, 1])

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("lo, hi, bound", [(0, 2**70, f"upper bound {2**70}"),
                                               (-(2**70), 0, f"lower bound {-(2**70)}")])
    def test_bound_outside_int64_rejected(self, uniform, lo, hi, bound):
        message = f"box {bound} is outside the int64 range"
        with pytest.raises(ValueError, match=message) as info:
            if uniform:
                BoxConstraint.uniform(2, lo, hi)
            else:
                BoxConstraint([-1, lo], [1, hi])
        assert not isinstance(info.value, EmptyBoxError)

    # A fractional bound used to be truncated toward zero: [1.5, -0.7] became
    # [1, 0], which admits x_0 = 1.
    @pytest.mark.parametrize("lower, upper, message", [
        ([1.5, -0.7], [3.9, 2], "box lower bound 1.5 is not an integer"),
        ([1, 0], [3.9, 2], "box upper bound 3.9 is not an integer"),
        ([np.nan], [2], "box lower bound nan is not an integer"),
    ])
    def test_fractional_bound_rejected(self, lower, upper, message):
        with pytest.raises(ValueError, match=message):
            BoxConstraint(lower, upper)

    def test_bounds_are_the_box_own_copy(self):
        lower, upper = np.array([0, 1]), np.array([2, 3])
        box = BoxConstraint(lower, upper)
        lower[0], upper[1] = 5, -1  # would make the box empty, past its checks
        assert box.lower.tolist() == [0, 1] and box.upper.tolist() == [2, 3]

    def test_integral_float_and_narrow_int_bounds_accepted(self):
        box = BoxConstraint(np.array([1.0, -2.0]), np.array([3, 4], dtype=np.int32))
        assert box.lower.dtype == box.upper.dtype == np.int64
        assert box.lower.tolist() == [1, -2] and box.upper.tolist() == [3, 4]

    def test_int_bound_mixed_with_floats_kept_exactly(self):
        # numpy reads this list as float64, which rounded the lower bound to 2**53.
        box = BoxConstraint([2**53 + 1, 0.0], [2**53 + 1, 5])
        assert box.lower.tolist() == [2**53 + 1, 0]

    def test_compares_and_hashes_by_identity(self):
        # Comparing the bound arrays raised numpy's "truth value ... is ambiguous".
        box, twin = BoxConstraint.uniform(2, 0, 3), BoxConstraint.uniform(2, 0, 3)
        assert not box == twin
        assert box != twin
        assert box == box
        assert len({box, twin, box}) == 2


class TestReadOnly:
    """A checked box, and the R that mch_reduce's unmoved columns share, cannot be written."""

    def test_box_bounds(self):
        box = BoxConstraint.uniform(2, 0, 3)
        with pytest.raises(ValueError, match="read-only"):
            box.lower[0] = 5  # would make the box empty, past its checks
        with pytest.raises(ValueError, match="read-only"):
            box.upper[1] = -1
        assert box.lower.tolist() == [0, 0] and box.upper.tolist() == [3, 3]

    @pytest.mark.parametrize("width", [4, _BLOCK_MIN + 2], ids=["list", "batched"])
    def test_shared_factor_and_permuted_boxes(self, width):
        # Each column of H is ten times the one before, so at every stage the
        # last open column has the largest gap and no reordering moves one.
        rng = np.random.default_rng(7)
        H = np.diag([1.0, 10.0, 100.0, 1000.0])
        Y = H @ rng.integers(-3, 4, size=(4, width)) + 0.25
        pairs = mch_reduce(H, Y, BoxConstraint.uniform(4, -3, 3))
        (rp, permuted_box), (other, _) = pairs[:2]
        assert rp.R is other.R
        with pytest.raises(ValueError, match="read-only"):
            rp.R[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            permuted_box.lower[0] = 5
        assert all(box.lower.tolist() == [-3] * 4 for _, box in pairs)


class TestInBoxRounding:
    @pytest.mark.parametrize(
        "c,lo,hi,nearest,second",
        [
            (2.3, 0, 4, 2, 3),
            (7.9, 0, 4, 4, 3),
            (1.0, 1, 1, 1, None),
            (-3.7, -2, 5, -2, -1),
            (2.5, 0, 4, 3, 2),
            (2.0, 0, 4, 2, 3),  # exact tie prefers the upper neighbour
            # Past 2**53 a neighbour need not be a float, so no float distance may decide.
            (-(2.0**53), -(2**60), 2**60, -(2**53), -(2**53) + 1),
            (2.0**53, -(2**60), 2**60, 2**53, 2**53 + 1),
            (-(2.0**54), -(2**60), 2**60, -(2**54), -(2**54) + 1),
        ],
    )
    def test_examples(self, c, lo, hi, nearest, second):
        assert in_box_rounding(c, lo, hi) == (nearest, second)

    def test_second_is_verified_by_exhaustion(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            lo = int(rng.integers(-5, 5))
            hi = lo + int(rng.integers(0, 6))
            c = float(rng.uniform(lo - 3, hi + 3))
            nearest, second = in_box_rounding(c, lo, hi)
            values = list(range(lo, hi + 1))
            best = min(values, key=lambda v: (abs(c - v), v))
            assert abs(c - nearest) == pytest.approx(abs(c - best))
            if second is None:
                assert lo == hi
            else:
                rest = [v for v in values if v != nearest]
                assert abs(c - second) == pytest.approx(min(abs(c - v) for v in rest))

        # Exactly, on quarter-integer centers and every box inside [-5, 5]: the
        # second is the closest other in-box integer, ties going to the upper one.
        for c, lo in itertools.product(np.arange(-6, 6.25, 0.25), range(-5, 6)):
            for hi in range(lo, 6):
                nearest, second = in_box_rounding(float(c), lo, hi)
                values, c_exact = range(lo, hi + 1), Fraction(float(c))
                assert abs(c_exact - nearest) == min(abs(c_exact - v) for v in values)
                rest = [v for v in values if v != nearest]
                want = min(rest, key=lambda v: (abs(c_exact - v), -v)) if rest else None
                assert second == want


def assert_boxed_reduction_contract(H, y, box, rp, permuted_box, rng, n_probe=15):
    n = rp.R.shape[0]
    Z = rp.Z
    # Z is a signed permutation (here: plain permutation) matrix
    assert abs(int_det(Z)) == 1
    assert np.array_equal(np.sort(np.abs(Z).sum(axis=0)), np.ones(n))
    assert np.array_equal(np.sort(np.abs(Z).sum(axis=1)), np.ones(n))
    # permuted bounds are the original ones routed through Z
    assert np.array_equal(Z.T @ box.lower, permuted_box.lower)
    assert np.array_equal(Z.T @ box.upper, permuted_box.upper)
    assert np.allclose(rp.R, np.triu(rp.R))
    assert np.all(np.abs(np.diag(rp.R)) > 0)
    outside = float(y @ y - rp.y_hat @ rp.y_hat)  # y's squared part outside range(H)
    for _ in range(n_probe):
        z = rng.integers(permuted_box.lower, permuted_box.upper + 1)
        x = Z @ z
        assert box.contains(x)
        lhs = float(np.sum((y - H @ x) ** 2))
        rhs = float(np.sum((rp.y_hat - rp.R @ z) ** 2)) + outside
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


class TestMCHReduce:
    def test_single_column_is_trivial(self):
        H = np.array([[3.0], [4.0]])
        box = BoxConstraint([0], [5])
        rp, pbox = mch_reduce(H, np.array([1.0, 2.0]), box)
        assert np.array_equal(rp.Z, np.eye(1))
        assert np.array_equal(pbox.lower, box.lower)
        assert np.array_equal(pbox.upper, box.upper)

    def test_contract_on_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            H, y, lo, hi = make_ilsb_instance(rng, n)
            box = BoxConstraint(lo, hi)
            rp, pbox = mch_reduce(H.astype(float), y.astype(float), box)
            assert_boxed_reduction_contract(H, y, box, rp, pbox, rng)

    def test_singleton_box_forces_unique_point(self):
        rng = np.random.default_rng(22)
        H = random_full_rank(rng, 5, 3)
        y = rng.integers(-9, 10, size=5)
        s = np.array([2, -1, 3])
        box = BoxConstraint(s, s)
        x, resid_sq = solve_ilsb(H.astype(float), y.astype(float), box)
        assert np.array_equal(x, s)
        assert resid_sq == pytest.approx(exact_residual_sq(H, y, s))


class TestBoundTable:
    def test_sign_straddling_gives_zero(self):
        rng = np.random.default_rng(23)
        R = np.triu(rng.normal(size=(3, 3))) + 3 * np.eye(3)
        box = BoxConstraint.uniform(3, -3, 3)
        table = compute_bound_table(R, np.zeros(3), box)
        assert np.array_equal(table.delta, np.zeros(3))
        assert np.array_equal(table.gamma, np.zeros(3))

    def test_scalar_example(self):
        # endpoints 7 - 4 = 3 and 7 - 2 = 5 share a sign, so delta = 3^2
        table = compute_bound_table(np.array([[2.0]]), np.array([7.0]), BoxConstraint([1], [2]))
        assert table.delta[0] == pytest.approx(9.0)
        assert table.gamma[0] == 0.0

    def test_soundness_by_exhaustion(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            H, y, lo, hi = make_ilsb_instance(rng, n, max_width=4)
            box = BoxConstraint(lo, hi)
            rp, pbox = mch_reduce(H.astype(float), y.astype(float), box)
            table = compute_bound_table(rp.R, rp.y_hat, pbox)
            grids = np.meshgrid(
                *[np.arange(l, u + 1) for l, u in zip(pbox.lower, pbox.upper)], indexing="ij"
            )
            Zs = np.stack([g.ravel() for g in grids], axis=1)
            terms = (rp.y_hat[None, :] - Zs @ rp.R.T) ** 2
            prefix = np.cumsum(terms, axis=1)
            for k in range(n):
                accumulated = prefix[:, k - 1] if k > 0 else np.zeros(len(Zs))
                assert np.all(accumulated >= table.gamma[k] - 1e-9)


class TestBoxedSearch:
    def test_all_singletons(self):
        rng = np.random.default_rng(25)
        H = random_full_rank(rng, 4, 3)
        y = rng.integers(-9, 10, size=4)
        s = np.array([1, 0, 2])
        box = BoxConstraint(s, s)
        rp, pbox = mch_reduce(H.astype(float), y.astype(float), box)
        z = boxed_search(rp, pbox)
        assert np.array_equal(rp.Z @ z, s)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(26)
        for _ in range(80):
            n = int(rng.integers(1, 6))
            H, y, lo, hi = make_ilsb_instance(rng, n)
            x, _ = solve_ilsb(H.astype(float), y.astype(float), BoxConstraint(lo, hi))
            assert np.all(x >= lo) and np.all(x <= hi)
            assert exact_residual_sq(H, y, x) == brute_box_min(H, y, lo, hi)

    def test_bounds_strictly_decreasing(self):
        rng = np.random.default_rng(28)
        H, y, lo, hi = make_ilsb_instance(rng, 4)
        box = BoxConstraint(lo, hi)
        rp, pbox = mch_reduce(H.astype(float), y.astype(float), box)
        stats = SearchStats()
        boxed_search(rp, pbox, stats=stats)
        assert all(b < a for a, b in zip(stats.betas, stats.betas[1:]))

    def test_wide_center_outside_box(self):
        # center far outside the box: enumeration walks monotonically inward
        from intlowrank.ils import ReducedProblem

        rp = ReducedProblem(
            R=np.array([[1.0]]), Z=np.eye(1, dtype=np.int64), y_hat=np.array([100.0])
        )
        box = BoxConstraint([0], [4])
        z = boxed_search(rp, box)
        assert np.array_equal(z, [4])


def _wide_box_matches_unbounded(rp):
    """se_search and boxed_search on a box no center reaches agree exactly."""
    n = rp.n
    plain, wide = SearchStats(), SearchStats()
    z_plain = se_search(rp, stats=plain)
    box = BoxConstraint.uniform(n, -(10**6), 10**6)
    z_wide = boxed_search(rp, box, stats=wide)
    assert np.array_equal(z_plain, z_wide)
    assert plain.nodes == wide.nodes
    assert plain.betas == wide.betas


class TestSharedEnumeration:
    def test_random_triangular_problems(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            R = np.triu(rng.normal(size=(n, n)))
            R[np.diag_indices(n)] = rng.uniform(0.2, 3.0, size=n) * rng.choice([-1, 1], size=n)
            y_hat = rng.normal(scale=5.0, size=n)
            _wide_box_matches_unbounded(
                ReducedProblem(R=R, Z=np.eye(n, dtype=np.int64), y_hat=y_hat)
            )

    def test_reduced_integer_problems(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            H = random_full_rank(rng, n + 1, n)
            y = rng.integers(-40, 41, size=n + 1)
            _wide_box_matches_unbounded(plll_reduce(H.astype(float), y.astype(float)))

    def test_half_integer_tie(self):
        # The one order an alternating zigzag visits differently: see
        # test_ils.py::TestSESearch::test_half_integer_tie_takes_upper_neighbour_first.
        _wide_box_matches_unbounded(
            ReducedProblem(
                R=np.array([[4.0, 0.0, -1.0], [0.0, 4.0, -1.0], [0.0, 0.0, 1.0]]),
                Z=np.eye(3, dtype=np.int64),
                y_hat=np.array([0.0, 3.5, 10.5]),
            )
        )


class TestSolveILSb:
    def test_feasible_unconstrained_optimum(self):
        H = np.array([[8.0, 1.0], [9.0, 2.0]])
        y = np.array([16.0, 17.0])
        x, resid_sq = solve_ilsb(H, y, BoxConstraint.uniform(2, 0, 3))
        assert np.array_equal(x, [2, 0])
        assert resid_sq == pytest.approx(1.0, abs=1e-10)

    def test_constructed_feasible_solution(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            H = random_full_rank(rng, n + 1, n)
            x_true = rng.integers(0, 4, size=n)
            y = H @ x_true
            box = BoxConstraint.uniform(n, 0, 3)
            x, _ = solve_ilsb(H.astype(float), y.astype(float), box)
            assert exact_residual_sq(H, y, x) == 0

    @pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
    def test_row_count_mismatch_names_both_counts(self, read):
        with pytest.raises(ValueError, match="H has 3 rows but y has 2"):
            read(np.eye(3), [1, 2], BoxConstraint.uniform(3, -5, 5))

    @pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
    def test_no_columns_rejected(self, read):
        with pytest.raises(ValueError, match="H has no columns"):
            read(np.zeros((3, 0)), [1.0, 2.0, 3.0], BoxConstraint.uniform(1, 0, 2))

    # rounded_real_ls used to broadcast a 1-coordinate box over every
    # coordinate, returning [1, 2, 0] here.
    @pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
    @pytest.mark.parametrize("width", [1, 2])
    def test_box_width_must_match_columns(self, read, width):
        with pytest.raises(ValueError, match=f"box has {width} coordinates, expected 3"):
            read(np.eye(3), [1.2, 5.0, -3.0], BoxConstraint.uniform(width, 0, 2))

    def test_binding_box_changes_solution(self):
        H = np.array([[8.0, 1.0], [9.0, 2.0]])
        y = np.array([16.0, 17.0])
        box = BoxConstraint([0, 1], [3, 3])  # excludes the optimum (2, 0)
        x, resid_sq = solve_ilsb(H, y, box)
        assert box.contains(x)
        assert resid_sq > 1.0
        oracle = brute_box_min(H.astype(int), y.astype(int), box.lower, box.upper)
        assert exact_residual_sq(H.astype(int), y.astype(int), x) == oracle


    def test_exact_answer_beyond_float64_integers(self):
        # The center 2**62 clamps to 2**60 + 1, which float64 rounds to 2**60.
        x, _ = solve_ilsb([[1.0], [0.0]], [2.0**62, 0.0], BoxConstraint([0], [2**60 + 1]))
        assert x.dtype == np.int64
        assert int(x[0]) == 2**60 + 1


class TestSharedFactorization:
    """The block solver must reproduce every one-column solve exactly."""

    # Narrower blocks are reordered per column, wider ones in one batched pass.
    # Integer targets are scored where the box is small; half-integer ones never are.
    @pytest.mark.parametrize("width", [7, _BLOCK_MIN])
    def test_solve_many_matches_solve_per_column(self, width):
        for offset in (0.0, 0.5):
            self._match_columns(width, offset)

    def _match_columns(self, width, offset):
        rng = np.random.default_rng(43)
        scored_blocks = 0
        for n in (1, 1, 2, 3, 4, 5):
            H = random_full_rank(rng, n + 2, n, lo=-20, hi=20).astype(float)
            Y = rng.integers(-60, 61, size=(n + 2, width)) + offset
            lo = rng.integers(-4, 1, size=n)
            box = BoxConstraint(lo, lo + rng.integers(0, 6, size=n))  # some singletons
            block = SearchStats()
            X = solve_ilsb(H, Y, box, stats=block)
            assert X.shape == (n, width)
            summed = SearchStats()
            for j in range(width):
                single, direct = SearchStats(), SearchStats()
                x, _ = solve_ilsb(H, Y[:, j], box, stats=single)
                assert np.array_equal(X[:, j], x)
                # The one-column solve is the reduction and search of the vector,
                # unless an integer target's small box has one optimum: that is
                # scored, with no search.
                rp, pbox = mch_reduce(H, Y[:, j], box)
                assert np.array_equal(x, rp.Z @ boxed_search(rp, pbox, stats=direct))
                scored = (
                    offset == 0.0
                    and _box_size(box) <= _SCORE_MAX
                    and len(_box_optima(H, Y[:, j], box)) == 1
                )
                searched = SearchStats() if scored else direct
                assert single == SearchStats(searched.nodes, searched.betas, int(scored))
                summed.nodes += single.nodes
                summed.betas += single.betas
                summed.scored += single.scored
            # The block's stats sum the columns' searches, in column order, and their scores.
            assert block == summed
            scored_blocks += summed.scored > 0
        assert scored_blocks == (0 if offset else 6 if width == _BLOCK_MIN else 5)

    def test_bounds_beyond_float64_integers_go_per_column(self):
        # 2**60 + 1 and 2**60 + 3 round to 2**60 in float64, so a batched
        # pass would see a singleton and return a point outside the box.
        rng = np.random.default_rng(44)
        H = random_full_rank(rng, 6, 3, lo=-9, hi=9).astype(float)
        Y = rng.integers(-60, 61, size=(6, _BLOCK_MIN + 4)).astype(float)
        box = BoxConstraint([-(2**60), 0, 2**60 + 1], [2**60, 3, 2**60 + 3])
        X = solve_ilsb(H, Y, box)
        for x, y in zip(X.T, Y.T):
            assert np.array_equal(x, solve_ilsb(H, y, box)[0])
            assert box.contains(x)

    def test_box_length_must_match_columns(self):
        with pytest.raises(ValueError, match="box has 3 coordinates, expected 2"):
            solve_ilsb(np.eye(2), np.ones((2, 1)), BoxConstraint.uniform(3, 0, 1))


class TestBlockReduction:
    """mch_reduce on a block gives each column's vector reduction, bit for bit."""

    def _problem(self, width, box=None):
        rng = np.random.default_rng(64)
        H = random_full_rank(rng, 8, 4, lo=-9, hi=9).astype(float)
        Y = rng.integers(-60, 61, size=(8, width)).astype(float)
        if box is None:
            lo = rng.integers(-4, 1, size=4)
            box = BoxConstraint(lo, lo + rng.integers(0, 6, size=4))  # some singletons
        return H, Y, box

    def _assert_columns(self, H, Y, box):
        """Returns how many columns' reductions moved a column of R."""
        reduced = mch_reduce(H, Y, box)
        assert isinstance(reduced, list) and len(reduced) == Y.shape[1]
        moved = 0
        for (rp, pbox), y in zip(reduced, Y.T):
            ref, ref_box = mch_reduce(H, y, box)
            for got, want in (
                (rp.R, ref.R), (rp.Z, ref.Z), (rp.y_hat, ref.y_hat),
                (pbox.lower, ref_box.lower), (pbox.upper, ref_box.upper),
            ):
                assert_bits_equal(got, want)
            # The search's BLAS row products depend on R's memory layout.
            assert rp.R.flags.f_contiguous == ref.R.flags.f_contiguous
            assert rp.R.flags.c_contiguous == ref.R.flags.c_contiguous
            moved += rp.R.flags.f_contiguous and not rp.R.flags.c_contiguous
        return moved

    # Below _BLOCK_MIN columns the list pass runs, from it the batched one.
    @pytest.mark.parametrize("width", [0, 1, _BLOCK_MIN - 1, _BLOCK_MIN, 60])
    def test_columns_match_vector_reductions(self, width):
        moved = self._assert_columns(*self._problem(width))
        if width == 60:
            assert 0 < moved < width  # both layouts occur

    def test_bound_beyond_float64_on_a_wide_block(self):
        # The batched pass cannot hold 2**60 + 1 in float64, so every column takes the list pass.
        box = BoxConstraint([-(2**60), 0, 2**60 + 1, -3], [2**60, 3, 2**60 + 3, 2])
        self._assert_columns(*self._problem(60, box))

    def test_one_column_block_is_a_block(self):
        H, Y, box = self._problem(3)
        [(rp, _)] = mch_reduce(H, Y[:, :1], box)
        assert rp.y_hat.shape == (4,)

    @pytest.mark.parametrize("block", [True, False], ids=["block", "vector"])
    def test_solve_ilsb_reduces_once(self, block, monkeypatch):
        # A counting wrapper installed through the module global, as the
        # benchmark's tracer installs its own.
        reduce, calls = boxed.mch_reduce, []

        def counting(H, y, box):
            out = reduce(H, y, box)
            calls.append(len(out))
            return out

        monkeypatch.setattr(boxed, "mch_reduce", counting)
        # 7**4 points, more than the scorer takes: every column is searched.
        H, Y, box = self._problem(_BLOCK_MIN + 2, BoxConstraint.uniform(4, -3, 3))
        solve_ilsb(H, Y if block else Y[:, 1], box)
        assert calls == [Y.shape[1] if block else 1]

    @pytest.mark.parametrize("block", [True, False], ids=["block", "vector"])
    def test_scored_solve_reduces_the_tied_columns_once(self, block, monkeypatch):
        reduce, calls = boxed.mch_reduce, []

        def recording(H, y, box):
            calls.append(np.array(y))
            return reduce(H, y, box)

        monkeypatch.setattr(boxed, "mch_reduce", recording)
        H, Y, box = _tie_problem(np.random.default_rng(65), _BLOCK_MIN + 2)
        tied = [j for j, y in enumerate(Y.T) if len(_box_optima(H, y, box)) > 1]
        assert 0 < len(tied) < Y.shape[1] and 0 not in tied
        solve_ilsb(H, Y if block else Y[:, tied[0]], box)
        want = tied if block else tied[:1]
        assert [c.tolist() for c in calls] == [Y[:, want].tolist()]
        # A column that one point alone takes is not reduced at all.
        calls.clear()
        solve_ilsb(H, np.delete(Y, tied, axis=1) if block else Y[:, 0], box)
        assert calls == []


def _box_size(box):
    return int(np.prod((box.upper - box.lower + 1).astype(object)))


def _box_optima(H, y, box):
    """Every box point where the exact integer ||y - H x||^2 is least, by itertools.product."""
    H = [[int(v) for v in row] for row in np.asarray(H)]
    y = [int(v) for v in np.asarray(y)]
    scores = {}
    for x in itertools.product(*map(range, box.lower.tolist(), (box.upper + 1).tolist())):
        scores[x] = sum((t - sum(h * v for h, v in zip(row, x))) ** 2 for row, t in zip(H, y))
    least = min(scores.values())
    return [list(x) for x, score in scores.items() if score == least]


def _tie_problem(rng, width):
    """H with orthogonal even columns, the box [-2, 2]^3 and targets H x + h_j / 2 that tie.

    The target halfway between H x and H (x + e_j) is as far from both,
    and no other box point is nearer. Column 0 and every third column are
    H x itself, whose optimum x is unique.
    """
    H = np.vstack((2 * np.diag(rng.integers(1, 4, size=3)), np.zeros((1, 3), dtype=np.int64)))
    X = rng.integers(-2, 2, size=(3, width))
    Y = H @ X + H[:, rng.integers(0, 3, size=width)] // 2 * (np.arange(width) % 3 != 0)
    return H.astype(float), Y.astype(float), BoxConstraint.uniform(3, -2, 2)


class TestScoredBox:
    """A box of at most _SCORE_MAX points is scored point by point, and only ties are searched."""

    def _check(self, H, Y, box, monkeypatch):
        """Checks solve_ilsb against the search and brute force; returns the tied columns."""
        reduce, blocks = boxed.mch_reduce, []

        def recording(H, y, box):
            blocks.append(np.array(y))
            return reduce(H, y, box)

        monkeypatch.setattr(boxed, "mch_reduce", recording)
        stats = SearchStats()
        X = solve_ilsb(H, Y, box, stats=stats)
        monkeypatch.undo()
        tied, searches = [], SearchStats()
        for j, y in enumerate(Y.T):
            rp, pbox = mch_reduce(H, y, box)
            optima = _box_optima(H, y, box)
            if len(optima) > 1:
                tied.append(j)
            found = rp.Z @ boxed_search(rp, pbox, stats=searches if len(optima) > 1 else None)
            assert np.array_equal(X[:, j], found)
            assert X[:, j].tolist() in optima
        # Exactly the tied columns are searched, as one block, and only their nodes count.
        assert stats.scored + len(tied) == Y.shape[1]
        assert [b.tolist() for b in blocks] == ([Y[:, tied].tolist()] if tied else [])
        assert (stats.nodes, stats.betas) == (searches.nodes, searches.betas)
        return tied

    def test_random_boxes_up_to_the_limit(self, monkeypatch):
        rng = np.random.default_rng(66)
        sizes = set()
        for widths in ([1], [1, 1, 1], [4] * 5, [32, 32], [1, 7, 1, 3], [2, 1, 5]):
            sizes.add(int(np.prod(widths)))
            for _ in range(3):
                n = len(widths)
                H = random_full_rank(rng, n + int(rng.integers(0, 3)), n, lo=-6, hi=6)
                Y = rng.integers(-40, 41, size=(H.shape[0], 12))
                lo = rng.integers(-3, 2, size=n)
                box = BoxConstraint(lo, lo + np.array(widths) - 1)
                self._check(H.astype(float), Y.astype(float), box, monkeypatch)
        assert min(sizes) == 1 and max(sizes) == _SCORE_MAX

    def test_bcd_shaped_products(self, monkeypatch):
        # A half-sweep's problem: H = V^T and the targets rows of U V, exactly or nearly.
        rng = np.random.default_rng(67)
        for k in (2, 3, 5):
            V = rng.integers(1, 5, size=(k, 30))
            A = rng.integers(1, 5, size=(20, k)) @ V
            A[10:] += rng.integers(-2, 3, size=(10, 30))
            H, Y = V.T.astype(float), A.T.astype(float)
            tied = self._check(H, Y, BoxConstraint.uniform(k, 1, 4), monkeypatch)
            assert all(j >= 10 for j in tied)  # an exact product has one optimum

    def test_columns_in_chunks(self):
        # 1,024 points: _score takes 128 columns at a time, so 300 make three chunks.
        rng = np.random.default_rng(71)
        H = random_full_rank(rng, 3, 2).astype(float)
        Y = rng.integers(-150, 151, size=(3, 300)).astype(float)
        Y[:, 200:] = Y[:, :100]  # each column of the last chunk repeats one of the first
        box = BoxConstraint([-16, -15], [15, 16])
        assert _box_size(box) == _SCORE_MAX and boxed._SCORE_FLOATS // _SCORE_MAX == 128
        block = SearchStats()
        X = solve_ilsb(H, Y, box, stats=block)
        summed = SearchStats()
        for j, y in enumerate(Y.T):
            assert np.array_equal(X[:, j], solve_ilsb(H, y, box, stats=summed)[0])
        assert block == summed and block.scored > 250
        assert np.array_equal(X[:, 200:], X[:, :100])

    def test_forced_ties_are_searched(self, monkeypatch):
        rng = np.random.default_rng(68)
        for _ in range(4):
            tied = self._check(*_tie_problem(rng, 24), monkeypatch)
            assert tied == [j for j in range(24) if j % 3]

    @pytest.mark.parametrize(
        "y, box",
        [
            ([[2.0, 3.0], [1.0, -2.0], [3.0, 1.0]], (0, 3)),  # scored, no tie
            ([[1.0], [0.0], [0.0]], (0, 3)),  # (0, 0) and (1, 0) tie
            ([2.0, 1.0, 3.0], (0, 3)),  # a vector
            (np.zeros((3, 0)), (0, 3)),  # an empty block
            (np.zeros((3, 0)), (0, 40)),  # an empty block the scorer declines
            ([[0.5], [1.0], [1.5]], (0, 3)),  # declined: not an integer
        ],
        ids=["untied", "tied", "vector", "empty", "empty-declined", "half-integer"],
    )
    def test_one_qr_per_solve(self, y, box, monkeypatch):
        H = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        qr, calls = boxed.householder_qr, []

        def counting(H):
            calls.append(H.shape)
            return qr(H)

        monkeypatch.setattr(boxed, "householder_qr", counting)
        solve_ilsb(H, y, BoxConstraint.uniform(2, *box))
        assert calls == [(3, 2)]

    def test_box_points_are_cached_read_only(self):
        boxes = [((lo, 0), (lo + 1, 2)) for lo in range(-4, 5)]
        first = boxed._box_points(*boxes[0])
        for lower, upper in boxes[1:]:
            boxed._box_points(lower, upper)
        # The first box has left the cache of eight and is built again.
        again = boxed._box_points(*boxes[0])
        assert again is not first
        expected = list(itertools.product(range(-4, -2), range(0, 3)))
        assert [tuple(x) for x in again.tolist()] == expected == [tuple(x) for x in first.tolist()]
        assert again.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            again[0, 0] = 7


class TestScoringFallback:
    """Problems outside the scorer's range take the reduction and search, unchanged."""

    def _searched(self, H, Y, box):
        stats, direct = SearchStats(), SearchStats()
        X = solve_ilsb(H, Y, box, stats=stats)
        for j, y in enumerate(np.asarray(Y, dtype=float).T):
            rp, pbox = mch_reduce(H, y, box)
            assert np.array_equal(X[:, j], rp.Z @ boxed_search(rp, pbox, stats=direct))
        assert stats == direct and stats.scored == 0
        return X

    @pytest.mark.parametrize("fractional", ["H", "y"])
    def test_fractional_problem_is_searched(self, fractional):
        rng = np.random.default_rng(69)
        H = random_full_rank(rng, 5, 3).astype(float)
        Y = rng.integers(-20, 21, size=(5, 8)).astype(float)
        if fractional == "H":
            H[0, 0] += 0.5
        else:
            Y[2, 3] += 0.25
        self._searched(H, Y, BoxConstraint.uniform(3, 0, 3))

    def test_float_exact_bound(self):
        # m = k = P = 1: Hmax^2 + 2 Hmax Ymax must stay below 2**53.
        H, box = [[2.0**26]], BoxConstraint([-1], [0])
        inside = SearchStats()
        assert solve_ilsb(H, [[2.0**25 - 1]], box, stats=inside).tolist() == [[0]]
        assert inside == SearchStats(scored=1)
        assert self._searched(H, [[2.0**25]], box).tolist() == [[0]]

    def test_more_points_than_the_limit(self):
        rng = np.random.default_rng(70)
        H = random_full_rank(rng, 4, 2).astype(float)
        Y = rng.integers(-30, 31, size=(4, 6)).astype(float)
        box = BoxConstraint([0, 0], [40, 24])
        assert _box_size(box) == _SCORE_MAX + 1
        self._searched(H, Y, box)
        stats = SearchStats()
        solve_ilsb(H, Y, BoxConstraint([0, 0], [31, 31]), stats=stats)
        assert stats.scored > 0

    @pytest.mark.parametrize("width", [0, 3])
    def test_rank_deficient_h_raises(self, width):
        H = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # a repeated column
        box = BoxConstraint.uniform(2, 0, 3)
        assert boxed._scorable(H, np.ones((3, width)), box)
        with pytest.raises(RankDeficientError):
            solve_ilsb(H, np.ones((3, width)), box)

    @pytest.mark.parametrize(
        "H, hi, tied, message",
        [
            # (1, 0) and (0, 1) tie, so the tied block's reduction raises.
            ([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], 3, [0], "8.184e-16 <= 5.292e-10"),
            # (1, 0) alone is optimal, so the QR after scoring raises.
            ([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], 1, [], "1.637e-15 <= 8.367e-10"),
        ],
    )
    @pytest.mark.parametrize("block", [False, True])
    def test_rank_deficient_h_raises_after_scoring(self, H, hi, tied, message, block):
        H, box = np.array(H), BoxConstraint.uniform(2, 0, hi)
        y = H @ [1.0, 0.0]
        assert boxed._score(H, y[:, None], box, np.empty((2, 1), dtype=np.int64)) == tied
        stats = SearchStats()
        with pytest.raises(RankDeficientError) as raised:
            solve_ilsb(H, y[:, None] if block else y, box, stats=stats)
        assert str(raised.value) == f"numerically rank deficient: min |r_ii| = {message}"
        assert stats == SearchStats()

    def test_reader_errors_come_first(self):
        box = BoxConstraint.uniform(2, 0, 2)
        with pytest.raises(ValueError, match="box has 2 coordinates, expected 3"):
            solve_ilsb(np.eye(3), [1.0, 5.0, -3.0], box)
        with pytest.raises(ValueError, match="H has 3 rows but y has 2"):
            solve_ilsb(np.eye(3), [1.0, 5.0], box)

    def test_empty_block(self):
        H = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 2.0]])
        stats = SearchStats()
        X = solve_ilsb(H, np.zeros((3, 0)), BoxConstraint.uniform(2, 0, 3), stats=stats)
        assert X.shape == (2, 0) and X.dtype == np.int64
        assert stats == SearchStats()


class TestPartialResidualOverflow:
    """A box far from every center can make each candidate's partial residual inf."""

    H = [[1e150]]
    BOX = BoxConstraint([2**62], [2**63 - 1])
    MESSAGE = "the search's partial residuals all overflow float64"

    @pytest.mark.parametrize("y", [[0.0], np.zeros((1, 3))], ids=["vector", "block"])
    def test_solve_ilsb_states_the_overflow(self, y):
        with pytest.raises(ValueError, match=self.MESSAGE):
            solve_ilsb(self.H, y, self.BOX)

    def test_boxed_search_states_the_overflow(self):
        rp, pbox = mch_reduce(self.H, [0.0], self.BOX)
        stats = SearchStats()
        with pytest.raises(ValueError, match=self.MESSAGE):
            boxed_search(rp, pbox, stats=stats)
        assert stats.nodes == 1  # the clamped lower bound; a failed radius test ends the level


class TestReorderingOverflow:
    """The list and the batched reordering meet float64 overflow alike.

    With 1e-200 H and y = 1e150 [1, 1, 0] the real solution is
    1e350 [1, 0], so the centers overflow to inf. With 1e-160 H and
    y = 1e-160 [2, 5, 0] it is [2, 3], but R^-1's entries, about 1e160,
    overflow when squared into a column norm.
    """

    H = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    BOX = BoxConstraint.uniform(2, -3, 3)
    WIDTHS = [None, 3, _BLOCK_MIN + 2]  # a vector, then blocks for the list and batched pass
    IDS = ["vector", "list-block", "batched-block"]

    @staticmethod
    def _rhs(y, width):
        return y if width is None else np.tile(y[:, None], (1, width))

    @pytest.mark.parametrize("width", WIDTHS, ids=IDS)
    def test_infinite_center_is_stated(self, width):
        y = self._rhs(np.array([1e150, 1e150, 0.0]), width)
        with pytest.raises(ValueError, match="a center of the box reordering overflows float64"):
            mch_reduce(1e-200 * self.H, y, self.BOX)

    def test_norm_overflow_gives_the_same_answer_without_a_warning(self):
        y = 1e-160 * np.array([2.0, 5.0, 0.0])
        x, _ = solve_ilsb(1e-160 * self.H, y, self.BOX)
        assert x.tolist() == [2, 3]
        for width in self.WIDTHS[1:]:  # every warning is an error in this suite
            X = solve_ilsb(1e-160 * self.H, self._rhs(y, width), self.BOX)
            assert X.T.tolist() == [[2, 3]] * width


class TestFiniteEntries:
    def test_nan_rejected(self):
        box = BoxConstraint.uniform(2, 0, 3)
        H = np.array([[1.0, 0.0], [0.0, np.nan], [1.0, 1.0]])
        with pytest.raises(ValueError):
            solve_ilsb(H, np.zeros(3), box)

    # The reader checks H's finiteness, after its other checks, before any
    # scoring or QR: the same error on the scored path as on the searched one.
    @pytest.mark.parametrize("entry, message", [
        (np.nan, "H contains non-finite entries"),
        (-np.inf, "H contains non-finite entries"),
        (1e200, "the squared norm of H overflows float64"),
    ])
    @pytest.mark.parametrize("y", [[1.0, 2.0, 3.0], [1.5, 2.0, 3.0]], ids=["scored", "searched"])
    @pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
    def test_non_finite_h_rejected(self, read, y, entry, message):
        H = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, entry]])
        with pytest.raises(ValueError, match=message):
            read(H, y, BoxConstraint.uniform(2, 0, 3))

    @pytest.mark.parametrize("y", [[1.0, 2.0, 3.0], [1.5, 2.0, 3.0]], ids=["scored", "searched"])
    def test_non_finite_h_leaves_stats_unchanged(self, y):
        stats = SearchStats()
        with pytest.raises(ValueError, match="H contains non-finite entries"):
            solve_ilsb(np.diag([1.0, np.inf, 1.0])[:, :2], y, BoxConstraint.uniform(2, 0, 3), stats)
        assert stats == SearchStats()

    @pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
    def test_box_width_comes_before_non_finite_h(self, read):
        H = np.array([[np.nan, 1.0, 2.0], [0.0, 1.0, 2.0]])  # also wide
        with pytest.raises(ValueError, match="box has 2 coordinates, expected 3"):
            read(H, [1.0, 2.0], BoxConstraint.uniform(2, 0, 3))
        with pytest.raises(ValueError, match="H contains non-finite entries"):
            read(H, [1.0, 2.0], BoxConstraint.uniform(3, 0, 3))

    @pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
    def test_inf_target_rejected(self, read):
        box = BoxConstraint.uniform(2, 0, 3)
        H = np.eye(3)[:, :2] + 1.0
        H[2, 1] = 3.0
        with pytest.raises(ValueError, match="y contains non-finite entries"):
            read(H, np.array([1.0, np.inf, 0.0]), box)


def _array_reorder(factors, y, box):
    """The array form of boxed._reorder's reordering, kept as its oracle."""
    Q1, R, S = factors
    n = R.shape[0]
    y_hat = _project(Q1, y)
    y_bar = y_hat.copy()
    lower, upper, cols = box.lower.copy(), box.upper.copy(), np.arange(n)
    for kappa in range(n, 1, -1):
        last = kappa - 1
        best_gap, best_i, best_fix = -1.0, 0, 0
        for i in range(kappa):
            s_col = S[i:kappa, i]
            center = float(y_bar[i:kappa] @ s_col)
            nearest, second = in_box_rounding(center, int(lower[i]), int(upper[i]))
            if second is None:
                gap = np.inf
            else:
                gap = abs(center - second) / float(np.linalg.norm(s_col))
            if gap > best_gap:
                best_gap, best_i, best_fix = gap, i, nearest
        y_bar = y_bar - R[:, best_i] * best_fix
        if best_i != last:
            order = np.r_[
                np.arange(best_i), np.arange(best_i + 1, kappa), best_i, np.arange(kappa, n)
            ]
            R, S, cols = R[:, order], S[:, order], cols[order]
            lower, upper = lower[order], upper[order]
            for p in range(best_i, last):
                c, s = givens_coeffs(R[p, p], R[p + 1, p])
                rotate_rows(R, p, p + 1, c, s)
                R[p + 1, p] = 0.0
                rotate_rows(S, p, p + 1, c, s)
                rotate_rows(y_hat, p, p + 1, c, s)
                rotate_rows(y_bar, p, p + 1, c, s)
    Z = np.zeros((n, n), dtype=np.int64)
    Z[cols, np.arange(n)] = 1
    return ReducedProblem(R=R, Z=Z, y_hat=y_hat), BoxConstraint(lower, upper)


class TestListPassOracle:
    """The list pass of _reorder reproduces the array form bit for bit."""

    def _problems(self, count):
        """Seeded problems with n from 2 to 27; every other one is a row of an exact U V.

        Yields (factors, y, box, exact).
        """
        rng = np.random.default_rng(62)
        made = 0
        while made < count:
            n = 2 + made % 26
            m = n + int(rng.integers(1, 40))
            exact = made % 2 == 1
            if exact:
                U = rng.integers(1, 5, size=(m, n))
                V = rng.integers(1, 5, size=(n, m))
                H, y = V.T, (U @ V)[int(rng.integers(m))]
                box = BoxConstraint.uniform(n, 1, 4)
            else:
                H, y = rng.integers(-9, 10, size=(m, n)), rng.integers(-60, 61, size=m)
                lo = rng.integers(-4, 1, size=n)
                box = BoxConstraint(lo, lo + rng.integers(0, 6, size=n))  # some singletons
            try:
                factors = _factor(H.astype(float))
            except RankDeficientError:
                continue
            made += 1
            yield factors, y.astype(float), box, exact

    def test_matches_array_form(self):
        moved = 0
        for factors, y, box, exact in self._problems(240):
            rp, pbox = _reorder(factors, y, box)
            ref, ref_box = _array_reorder(factors, y, box)
            for got, want in (
                (rp.Z, ref.Z), (rp.R, ref.R), (rp.y_hat, ref.y_hat),
                (pbox.lower, ref_box.lower), (pbox.upper, ref_box.upper),
            ):
                assert_bits_equal(got, want)
            # The search's BLAS row products depend on R's memory layout.
            assert rp.R.flags.f_contiguous == ref.R.flags.f_contiguous
            assert rp.R.flags.c_contiguous == ref.R.flags.c_contiguous
            moved += rp.R is not factors[1]
            if exact or rp.n <= 12:  # wide random boxes make large searches
                got_stats, want_stats = SearchStats(), SearchStats()
                z = boxed_search(rp, pbox, stats=got_stats)
                assert np.array_equal(z, boxed_search(ref, ref_box, stats=want_stats))
                assert got_stats.nodes == want_stats.nodes
        assert 0 < moved < 240  # both layouts occur


class TestBlockPassOracle:
    """_reorder_block gives every column what _reorder gives it, bit for bit."""

    def _blocks(self, count):
        """Seeded blocks with n from 2 to 12; every other one holds rows of an exact U V.

        Yields (factors, Y, box).
        """
        rng = np.random.default_rng(63)
        made = 0
        while made < count:
            n = 2 + made % 11
            m = n + int(rng.integers(1, 30))
            p = int(rng.integers(1, 40))
            if made % 2:
                U = rng.integers(1, 5, size=(m, n))
                V = rng.integers(1, 5, size=(n, m))
                H, Y = V.T, (U @ V)[rng.integers(m, size=p)].T
                box = BoxConstraint.uniform(n, 1, 4)
            else:
                H, Y = rng.integers(-9, 10, size=(m, n)), rng.integers(-60, 61, size=(m, p))
                lo = rng.integers(-4, 1, size=n)
                box = BoxConstraint(lo, lo + rng.integers(0, 6, size=n))  # some singletons
            try:
                factors = _factor(H.astype(float))
            except RankDeficientError:
                continue
            made += 1
            yield factors, Y.astype(float), box

    def test_matches_list_pass(self):
        mixed = 0
        for factors, Y, box in self._blocks(66):
            moved = 0
            block = _reorder_block(factors, Y, box)
            assert len(block) == Y.shape[1]
            for (rp, pbox), y in zip(block, Y.T):
                ref, ref_box = _reorder(factors, np.ascontiguousarray(y), box)
                for got, want in (
                    (rp.Z, ref.Z), (rp.R, ref.R), (rp.y_hat, ref.y_hat),
                    (pbox.lower, ref_box.lower), (pbox.upper, ref_box.upper),
                ):
                    assert_bits_equal(got, want)
                # The search's BLAS row products depend on R's memory layout.
                assert rp.R.flags.f_contiguous == ref.R.flags.f_contiguous
                assert rp.R.flags.c_contiguous == ref.R.flags.c_contiguous
                assert (rp.R is factors[1]) == (ref.R is factors[1])
                moved += rp.R is not factors[1]
                got_stats, want_stats = SearchStats(), SearchStats()
                z = boxed_search(rp, pbox, stats=got_stats)
                assert np.array_equal(z, boxed_search(ref, ref_box, stats=want_stats))
                assert got_stats.nodes == want_stats.nodes
            mixed += 0 < moved < Y.shape[1]
        assert mixed > 0  # blocks in which some columns never move

    def test_exact_centers_at_box_edges(self):
        # A diagonal H of powers of two factors exactly, so the first stage's
        # centers are C's entries: integers and half-integers at, just inside and
        # just outside both edges of every coordinate's interval.
        rng = np.random.default_rng(64)
        scale = np.array([1.0, 2.0, 4.0, 8.0, 0.5])
        box = BoxConstraint([-2, 0, 1, -3, 2], [3, 0, 4, -1, 5])
        edges = [[e + d for e in (lo, hi) for d in (-0.5, 0.0, 0.5)]
                 for lo, hi in zip(box.lower.tolist(), box.upper.tolist())]
        C = np.array([rng.choice(e, size=_BLOCK_MIN + 14) for e in edges])
        H = np.vstack((np.diag(scale), np.zeros((2, 5))))
        Y = H @ C
        factors = _factor(H)
        Q1, _, S = factors
        assert np.array_equal(S.T @ _project(Q1, Y), C)
        for (rp, pbox), y in zip(_reorder_block(factors, Y, box), Y.T):
            ref, ref_box = _reorder(factors, np.ascontiguousarray(y), box)
            for got, want in (
                (rp.Z, ref.Z), (rp.R, ref.R), (rp.y_hat, ref.y_hat),
                (pbox.lower, ref_box.lower), (pbox.upper, ref_box.upper),
            ):
                assert_bits_equal(got, want)
