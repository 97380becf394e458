import numpy as np
import pytest
from conftest import (
    brute_box_min,
    exact_residual_sq,
    make_ilsb_instance,
    random_full_rank,
)

from intlowrank.boxed import (
    BoundTable,
    BoxConstraint,
    _factor,
    _reorder,
    boxed_search,
    compute_bound_table,
    in_box_rounding,
    mch_reduce,
    solve_ilsb,
    solve_ilsb_many,
)
from intlowrank.exceptions import EmptyBoxError, RankDeficientError
from intlowrank.ils import ReducedProblem, SearchStats, _project, plll_reduce, se_search
from intlowrank.linalg import givens_coeffs, int_det, rotate_rows


class TestBoxConstraint:
    def test_empty_interval_rejected(self):
        with pytest.raises(EmptyBoxError):
            BoxConstraint([0, 3], [4, 1])

    def test_uniform_and_contains(self):
        box = BoxConstraint.uniform(3, 0, 4)
        assert box.contains([0, 4, 2])
        assert not box.contains([0, 5, 2])
        assert np.array_equal(box.sizes, [5, 5, 5])

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

    def test_empty_interval(self):
        with pytest.raises(EmptyBoxError):
            in_box_rounding(1.0, 3, 2)


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
    for _ in range(n_probe):
        z = rng.integers(permuted_box.lower, permuted_box.upper + 1)
        x = Z @ z
        assert box.contains(x)
        lhs = float(np.sum((y - H @ x) ** 2))
        rhs = float(np.sum((rp.y_hat - rp.R @ z) ** 2) + rp.offset)
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
        z = boxed_search(rp, pbox, compute_bound_table(rp.R, rp.y_hat, pbox))
        assert np.array_equal(rp.Z @ z, s)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(26)
        for _ in range(80):
            n = int(rng.integers(1, 6))
            H, y, lo, hi = make_ilsb_instance(rng, n)
            x, _ = solve_ilsb(H.astype(float), y.astype(float), BoxConstraint(lo, hi))
            assert np.all(x >= lo) and np.all(x <= hi)
            assert exact_residual_sq(H, y, x) == brute_box_min(H, y, lo, hi)

    def test_tight_bounds_prune_a_subset_of_nodes(self):
        rng = np.random.default_rng(27)
        checked = 0
        for _ in range(40):
            n = int(rng.integers(2, 6))
            H, y, lo, hi = make_ilsb_instance(rng, n)
            box = BoxConstraint(lo, hi)
            rp, pbox = mch_reduce(H.astype(float), y.astype(float), box)
            table = compute_bound_table(rp.R, rp.y_hat, pbox)
            trace_tight, trace_plain = [], []
            z_tight = boxed_search(rp, pbox, table, trace=trace_tight)
            z_plain = boxed_search(rp, pbox, BoundTable.zero(n), trace=trace_plain)
            resid = lambda z: float(np.sum((rp.y_hat - rp.R @ z) ** 2))  # noqa: E731
            assert resid(z_tight) == pytest.approx(resid(z_plain))
            assert set(trace_tight) <= set(trace_plain)
            if table.gamma.max() > 0:
                checked += 1
        assert checked > 0  # the sweep must exercise nonzero bounds

    def test_bounds_strictly_decreasing(self):
        rng = np.random.default_rng(28)
        H, y, lo, hi = make_ilsb_instance(rng, 4)
        box = BoxConstraint(lo, hi)
        rp, pbox = mch_reduce(H.astype(float), y.astype(float), box)
        stats = SearchStats()
        boxed_search(rp, pbox, compute_bound_table(rp.R, rp.y_hat, pbox), stats=stats)
        assert all(b < a for a, b in zip(stats.betas, stats.betas[1:]))

    def test_wide_center_outside_box(self):
        # center far outside the box: enumeration walks monotonically inward
        from intlowrank.ils import ReducedProblem

        rp = ReducedProblem(
            R=np.array([[1.0]]), Z=np.eye(1, dtype=np.int64), y_hat=np.array([100.0]), offset=0.0
        )
        box = BoxConstraint([0], [4])
        z = boxed_search(rp, box, BoundTable.zero(1))
        assert np.array_equal(z, [4])


def _wide_box_matches_unbounded(rp):
    """se_search and boxed_search on a box no center reaches agree exactly."""
    n = rp.n
    plain, wide = SearchStats(), SearchStats()
    z_plain = se_search(rp, stats=plain)
    box = BoxConstraint.uniform(n, -(10**6), 10**6)
    z_wide = boxed_search(rp, box, BoundTable.zero(n), stats=wide)
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
                ReducedProblem(R=R, Z=np.eye(n, dtype=np.int64), y_hat=y_hat, offset=0.0)
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
                offset=0.0,
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

    def test_binding_box_changes_solution(self):
        H = np.array([[8.0, 1.0], [9.0, 2.0]])
        y = np.array([16.0, 17.0])
        box = BoxConstraint([0, 1], [3, 3])  # excludes the optimum (2, 0)
        x, resid_sq = solve_ilsb(H, y, box)
        assert box.contains(x)
        assert resid_sq > 1.0
        oracle = brute_box_min(H.astype(int), y.astype(int), box.lower, box.upper)
        assert exact_residual_sq(H.astype(int), y.astype(int), x) == oracle


class TestSharedFactorization:
    """The block solver must reproduce every one-column solve exactly."""

    def test_solve_many_matches_solve_per_column(self):
        rng = np.random.default_rng(43)
        for n in (1, 1, 2, 3, 4, 5):
            H = random_full_rank(rng, n + 2, n, lo=-20, hi=20).astype(float)
            Y = rng.integers(-60, 61, size=(n + 2, 7)).astype(float)
            lo = rng.integers(-4, 1, size=n)
            box = BoxConstraint(lo, lo + rng.integers(0, 6, size=n))  # some singletons
            block = SearchStats()
            X = solve_ilsb_many(H, Y, box, stats=block)
            assert X.shape == (n, 7)
            nodes, betas = 0, []
            for j in range(7):
                single, direct = SearchStats(), SearchStats()
                x, _ = solve_ilsb(H, Y[:, j], box, stats=single)
                assert np.array_equal(X[:, j], x)
                # The one-column solve is the reduction and search of the vector.
                rp, pbox = mch_reduce(H, Y[:, j], box)
                table = compute_bound_table(rp.R, rp.y_hat, pbox)
                assert np.array_equal(x, rp.Z @ boxed_search(rp, pbox, table, stats=direct))
                assert (single.nodes, single.betas) == (direct.nodes, direct.betas)
                nodes += single.nodes
                betas += single.betas
            # The block's stats sum the columns' searches, in column order.
            assert block.nodes == nodes
            assert block.betas == betas

    def test_block_must_be_two_dimensional(self):
        with pytest.raises(ValueError):
            solve_ilsb_many(np.eye(2), np.ones(2), BoxConstraint.uniform(2, 0, 1))


class TestFiniteBound:
    def _problem(self):
        rng = np.random.default_rng(60)
        H, y, lo, hi = make_ilsb_instance(rng, 3)
        box = BoxConstraint(lo, hi)
        rp, pbox = mch_reduce(H.astype(float), y.astype(float), box)
        table = compute_bound_table(rp.R, rp.y_hat, pbox)
        return rp, pbox, table

    def test_exclusive_initial_bound_returns_none(self):
        rp, pbox, table = self._problem()
        assert boxed_search(rp, pbox, table, beta0=0.0) is None

    def test_generous_initial_bound_matches_default(self):
        rp, pbox, table = self._problem()
        z_default = boxed_search(rp, pbox, table)
        z_bounded = boxed_search(rp, pbox, table, beta0=1e12)
        resid = lambda z: float(np.sum((rp.y_hat - rp.R @ z) ** 2))  # noqa: E731
        assert resid(z_default) == pytest.approx(resid(z_bounded))


class TestFiniteEntries:
    def test_nan_rejected(self):
        box = BoxConstraint.uniform(2, 0, 3)
        H = np.array([[1.0, 0.0], [0.0, np.nan], [1.0, 1.0]])
        with pytest.raises(ValueError):
            solve_ilsb(H, np.zeros(3), box)

    def test_inf_target_rejected(self):
        box = BoxConstraint.uniform(2, 0, 3)
        H = np.eye(3)[:, :2] + 1.0
        H[2, 1] = 3.0
        with pytest.raises(ValueError):
            solve_ilsb(H, np.array([1.0, np.inf, 0.0]), box)


def _array_reorder(factors, y, box):
    """The array form of boxed._reorder's reordering, kept as its oracle."""
    Q1, R, S = factors
    n = R.shape[0]
    y_hat, offset = _project(Q1, y)
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
    return ReducedProblem(R=R, Z=Z, y_hat=y_hat, offset=offset), BoxConstraint(lower, upper)


def _array_bound_table(R, y_hat, box):
    """The array form of compute_bound_table, kept as its oracle."""
    n = y_hat.shape[0]
    lower, upper = box.lower.astype(float), box.upper.astype(float)
    delta = np.zeros(n)
    for k in range(n):
        p, q = R[k, k:] * lower[k:], R[k, k:] * upper[k:]
        lo_end = y_hat[k] - float(np.maximum(p, q).sum())
        hi_end = y_hat[k] - float(np.minimum(p, q).sum())
        if (lo_end > 1e-12 and hi_end > 1e-12) or (lo_end < -1e-12 and hi_end < -1e-12):
            delta[k] = min(lo_end * lo_end, hi_end * hi_end)
    return BoundTable(delta=delta, gamma=np.concatenate(([0.0], np.cumsum(delta)[:-1])))


def _assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()  # equal values and signed zeros


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
            rp, pbox, bounds = _reorder(factors, y, box)
            ref, ref_box = _array_reorder(factors, y, box)
            ref_bounds = _array_bound_table(ref.R, ref.y_hat, ref_box)
            for got, want in (
                (rp.Z, ref.Z), (rp.R, ref.R), (rp.y_hat, ref.y_hat), (rp.offset, ref.offset),
                (pbox.lower, ref_box.lower), (pbox.upper, ref_box.upper),
                (bounds.delta, ref_bounds.delta), (bounds.gamma, ref_bounds.gamma),
            ):
                _assert_bits_equal(got, want)
            # The public wrapper runs the same bound-table code.
            _assert_bits_equal(compute_bound_table(rp.R, rp.y_hat, pbox).gamma, bounds.gamma)
            # The search's BLAS row products depend on R's memory layout.
            assert rp.R.flags.f_contiguous == ref.R.flags.f_contiguous
            assert rp.R.flags.c_contiguous == ref.R.flags.c_contiguous
            moved += rp.R is not factors[1]
            if exact or rp.n <= 12:  # wide random boxes make large searches
                got_stats, want_stats = SearchStats(), SearchStats()
                z = boxed_search(rp, pbox, bounds, stats=got_stats)
                assert np.array_equal(z, boxed_search(ref, ref_box, ref_bounds, stats=want_stats))
                assert got_stats.nodes == want_stats.nodes
        assert 0 < moved < 240  # both layouts occur
