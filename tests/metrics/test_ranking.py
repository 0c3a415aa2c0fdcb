"""Unit tests for Spearman correlation, cross-checked against scipy."""

import warnings

import numpy as np
import pytest
from scipy import stats

from repro.metrics import rank_descending, spearman_correlation
from repro.metrics.ranking import (
    RankLayout,
    SetRanker,
    average_ranks,
    centered_rank_stats,
    spearman_correlation_batch,
    spearman_distinct_batch,
)


class TestAverageRanks:
    def test_no_ties(self):
        ranks = average_ranks(np.array([30.0, 10.0, 20.0]))
        assert ranks.tolist() == [3.0, 1.0, 2.0]

    def test_ties_share_average(self):
        ranks = average_ranks(np.array([10.0, 10.0, 20.0]))
        assert ranks.tolist() == [1.5, 1.5, 3.0]

    def test_matches_scipy_rankdata(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 20, size=200).astype(float)
        np.testing.assert_allclose(
            average_ranks(values), stats.rankdata(values, method="average")
        )

    def test_tied_infinities_share_average(self):
        """``inf - inf`` is nan, so finding tie groups by differencing
        would split repeated infinities; they tie like any other value."""
        values = np.array([1.0, np.inf, 3.0, np.inf, -np.inf, -np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ranks = average_ranks(values)
        assert ranks.tolist() == [3.0, 5.5, 4.0, 5.5, 1.5, 1.5]
        np.testing.assert_array_equal(
            ranks, stats.rankdata(values, method="average")
        )

    def test_repeated_infinities_match_scipy_rankdata(self):
        rng = np.random.default_rng(8)
        pool = np.array([-np.inf, -2.0, 0.0, -0.0, 1.5, np.inf])
        for _ in range(20):
            values = rng.choice(pool, size=30)
            np.testing.assert_array_equal(
                average_ranks(values), stats.rankdata(values, method="average")
            )

    def test_tied_infinities_agree_across_spearman_kernels(self):
        x = np.array([1.0, np.inf, 3.0, np.inf, -np.inf, -np.inf])
        y = np.arange(6.0)
        single = spearman_correlation(x, y)
        batch = spearman_correlation_batch(x[None], y)[0]
        assert single == batch
        assert single == pytest.approx(
            stats.spearmanr(x, y).statistic, abs=1e-12
        )


class TestSpearman:
    def test_perfect_correlation(self):
        x = np.arange(50.0)
        assert spearman_correlation(x, 3 * x + 2) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        x = np.arange(50.0)
        assert spearman_correlation(x, -x) == pytest.approx(-1.0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.normal(size=100)
            y = x + rng.normal(scale=2.0, size=100)
            expected = stats.spearmanr(x, y).statistic
            assert spearman_correlation(x, y) == pytest.approx(expected, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 5, size=200).astype(float)
        y = rng.integers(0, 5, size=200).astype(float)
        expected = stats.spearmanr(x, y).statistic
        assert spearman_correlation(x, y) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_input_is_nan(self):
        assert np.isnan(spearman_correlation(np.ones(5), np.arange(5.0)))
        assert np.isnan(spearman_correlation(np.array([1.0]), np.array([2.0])))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            spearman_correlation(np.ones(3), np.ones(4))


class TestRankDescending:
    def test_positions(self):
        positions = rank_descending(np.array([5.0, 30.0, 10.0]))
        assert positions.tolist() == [2, 0, 1]

    def test_ties_break_by_index(self):
        positions = rank_descending(np.array([10.0, 10.0]))
        assert positions.tolist() == [0, 1]


class TestSpearmanDistinctBatch:
    """The sorted-key kernel: bit-for-bit the tie-averaging batch kernel
    on every row, ranking tie-free rows from one value sort and handing
    tied, near-tied and non-finite rows to the general kernel."""

    @staticmethod
    def _stats(y):
        centered, sd = centered_rank_stats(np.asarray(y, dtype=np.float64))
        return centered, sd

    @staticmethod
    def _assert_bit_identical(x, y):
        centered, sd = centered_rank_stats(np.asarray(y, dtype=np.float64))
        fast = spearman_distinct_batch(x, centered, sd)
        with np.errstate(all="ignore"):
            exact = spearman_correlation_batch(x, y)
        np.testing.assert_array_equal(fast, exact)
        return fast

    def test_matches_general_kernel_on_distinct_rows(self):
        rng = np.random.default_rng(17)
        y = rng.normal(size=80)
        x = y + rng.normal(scale=2.0, size=(25, 80))
        self._assert_bit_identical(x, y)

    def test_matches_scipy_per_row(self):
        rng = np.random.default_rng(18)
        y = rng.normal(size=40)
        x = y + rng.normal(size=(5, 40))
        centered, sd = self._stats(y)
        fast = spearman_distinct_batch(x, centered, sd)
        for row, rho in zip(x, fast):
            assert rho == pytest.approx(
                stats.spearmanr(row, y).statistic, abs=1e-12
            )

    def test_tied_rows_fall_back_per_row(self):
        """A tied row takes the tie-averaging value; its tie-free
        neighbours in the same matrix keep the one-sort value."""
        y = np.arange(6.0)
        x = np.array(
            [
                [3.0, 1.0, 4.0, 1.0, 5.0, 9.0],  # 1.0 repeats
                [3.0, 1.0, 4.0, 2.0, 5.0, 9.0],
            ]
        )
        fast = self._assert_bit_identical(x, y)
        assert fast[0] == pytest.approx(
            stats.spearmanr(x[0], y).statistic, abs=1e-12
        )

    def test_near_ties_and_signed_zeros_fall_back(self):
        """One-ulp neighbours share their value bits, and -0.0 == 0.0
        is a tie even though their bit patterns differ."""
        rng = np.random.default_rng(20)
        y = rng.normal(size=9)
        x = rng.normal(size=(3, 9))
        x[0, 4] = np.nextafter(x[0, 2], np.inf)
        x[1, [1, 7]] = [0.0, -0.0]
        self._assert_bit_identical(x, y)

    def test_non_finite_rows_fall_back(self):
        rng = np.random.default_rng(21)
        y = rng.normal(size=7)
        x = rng.normal(size=(5, 7))
        x[0, 3] = np.inf
        x[1, 0] = -np.inf
        x[2, 6] = np.nan
        x[3, [2, 5]] = [np.inf, np.inf]
        self._assert_bit_identical(x, y)

    def test_tied_y_is_fine(self):
        """Ties in *y* are pre-averaged into the centered ranks; only x
        ties need the fallback."""
        rng = np.random.default_rng(19)
        y = rng.integers(0, 4, size=50).astype(float)
        x = rng.normal(size=(8, 50))
        x[3, 10] = x[3, 20]
        self._assert_bit_identical(x, y)

    def test_degenerate_cases_are_nan(self):
        single = spearman_distinct_batch(
            np.array([[5.0]]), *self._stats(np.array([3.0]))
        )
        assert np.isnan(single).all()
        constant_y = spearman_distinct_batch(
            np.array([[1.0, 2.0, 3.0]]), *self._stats(np.ones(3))
        )
        assert np.isnan(constant_y).all()
        constant_x = self._assert_bit_identical(
            np.array([[2.0, 2.0, 2.0], [1.0, 3.0, 2.0]]), np.arange(3.0)
        )
        assert np.isnan(constant_x[0]) and not np.isnan(constant_x[1])

    def test_requires_2d(self):
        centered, sd = self._stats(np.arange(3.0))
        with pytest.raises(ValueError):
            spearman_distinct_batch(np.arange(3.0), centered, sd)

    def test_shape_mismatch(self):
        centered, sd = self._stats(np.arange(3.0))
        with pytest.raises(ValueError):
            spearman_distinct_batch(np.ones((2, 4)), centered, sd)


class TestRankLayout:
    """Set order: each segment contiguous and ascending, the rest last."""

    @staticmethod
    def _layout(y, strata):
        sets = (
            np.arange(len(strata)),
            *(np.flatnonzero(strata == s) for s in range(3)),
        )
        stats = [
            centered_rank_stats(y[idx])
            if idx.size >= 2
            else (np.empty(0), 0.0)
            for idx in sets
        ]
        return RankLayout.build(sets, stats), sets

    def test_order_bounds_and_permuted_ranks(self):
        y = np.array([4.0, 1.0, 3.0, 9.0, 2.0, 7.0])
        strata = np.array([1, -1, 0, 1, 0, 2])
        layout, sets = self._layout(y, strata)
        assert layout.order.tolist() == [2, 4, 0, 3, 5, 1]
        assert layout.bounds.tolist() == [0, 2, 4, 5]
        whole, _ = centered_rank_stats(y)
        np.testing.assert_array_equal(layout.centered, whole[layout.order])
        # Segment 2 holds one cell: no ranks, and ρ is undefined there.
        np.testing.assert_array_equal(
            layout.segment_centered, [0.5, -0.5, -0.5, 0.5, 0.0, 0.0]
        )
        assert layout.sd[3] == 0.0
        for array in (layout.order, layout.bounds, layout.centered):
            assert not array.flags.writeable

    def test_sets_match_the_general_kernel(self):
        rng = np.random.default_rng(22)
        y = rng.normal(size=40)
        strata = rng.integers(-1, 3, size=40)
        layout, sets = self._layout(y, strata)
        x = rng.normal(size=(9, 40))
        x[4, 7] = x[4, 30]  # a tie: that row takes the exact kernel
        rho = SetRanker(layout).rank_cells(x)
        for j, idx in enumerate(sets):
            np.testing.assert_array_equal(
                rho[j], spearman_correlation_batch(x[:, idx], y[idx])
            )

    def test_overlapping_segments_are_refused(self):
        sets = (np.arange(4), np.array([0, 1]), np.array([1, 2]))
        stats = [(np.zeros(4), 1.0), (np.zeros(2), 0.5), (np.zeros(2), 0.5)]
        with pytest.raises(ValueError, match="disjoint"):
            RankLayout.build(sets, stats)

    def test_shape_checks(self):
        layout, _ = self._layout(np.arange(5.0), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            SetRanker(layout).rank_cells(np.ones(5))
        with pytest.raises(ValueError):
            SetRanker(layout).rank_cells(np.ones((2, 4)))


class TestCenteredRankStats:
    def test_centered_mean_zero(self):
        centered, sd = centered_rank_stats(np.array([9.0, 1.0, 5.0, 5.0]))
        assert centered.sum() == pytest.approx(0.0)
        assert sd == pytest.approx(average_ranks(
            np.array([9.0, 1.0, 5.0, 5.0])
        ).std())
