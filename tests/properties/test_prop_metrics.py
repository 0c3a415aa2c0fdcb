"""Property-based tests for the utility metrics."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.metrics import (
    error_ratio,
    l1_error,
    lp_error,
    rank_descending,
    spearman_correlation,
)
from repro.engine.points import baseline_rank_stats
from repro.metrics.ranking import (
    RankLayout,
    SetRanker,
    block_rows,
    centered_rank_stats,
    spearman_correlation_batch,
    spearman_distinct_batch,
)

vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(2, 60),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
)


@st.composite
def vector_pairs(draw):
    """Two equal-length vectors."""
    n = draw(st.integers(2, 60))
    elements = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
    a = draw(hnp.arrays(np.float64, n, elements=elements))
    b = draw(hnp.arrays(np.float64, n, elements=elements))
    return a, b


class TestErrorProperties:
    @given(vectors)
    @settings(max_examples=80, deadline=None)
    def test_l1_identity_is_zero(self, values):
        assert l1_error(values, values) == 0.0

    @given(vector_pairs())
    @settings(max_examples=80, deadline=None)
    def test_l1_symmetry(self, pair):
        a, b = pair
        assert l1_error(a, b) == l1_error(b, a)

    @given(vectors, st.floats(0.1, 100.0))
    @settings(max_examples=80, deadline=None)
    def test_l1_scales_linearly(self, values, scale):
        shifted = values + scale
        assert np.isclose(l1_error(values, shifted), scale * len(values))

    @given(vector_pairs())
    @settings(max_examples=80, deadline=None)
    def test_lp_monotone_in_p(self, pair):
        """||x||_p is non-increasing in p (norm monotonicity)."""
        a, b = pair
        l1 = lp_error(a, b, 1)
        l2 = lp_error(a, b, 2)
        assert l2 <= l1 * (1 + 1e-12) + 1e-9

    @given(vectors, st.floats(0.5, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_error_ratio_scales_with_private_error(self, true, factor):
        noise = np.ones_like(true)
        base = error_ratio(true, [true + noise], true + noise)
        scaled = error_ratio(true, [true + factor * noise], true + noise)
        assert np.isclose(scaled, factor * base)


class TestSpearmanProperties:
    @given(vectors)
    @settings(max_examples=80, deadline=None)
    def test_self_correlation_one(self, values):
        assume(len(np.unique(values)) > 1)
        assert np.isclose(spearman_correlation(values, values), 1.0)

    @given(vectors)
    @settings(max_examples=80, deadline=None)
    def test_negation_flips_sign(self, values):
        assume(len(np.unique(values)) > 1)
        assert np.isclose(spearman_correlation(values, -values), -1.0)

    @given(vectors, st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bounded(self, values, seed):
        rng = np.random.default_rng(seed)
        other = rng.permutation(values)
        assume(len(np.unique(values)) > 1)
        rho = spearman_correlation(values, other)
        assert -1.0 - 1e-9 <= rho <= 1.0 + 1e-9

    @given(vectors, st.floats(0.1, 5.0), st.floats(-100.0, 100.0))
    @settings(max_examples=80, deadline=None)
    def test_monotone_transform_invariance(self, values, scale, shift):
        transformed = scale * values + shift
        # Guard against float precision collapsing distinct values.
        assume(len(np.unique(transformed)) == len(np.unique(values)) > 1)
        assert np.isclose(spearman_correlation(values, transformed), 1.0)


# Widths where the cell index needs one more low mantissa bit: the key
# kernel stores indices 0..n-1 in ⌈log₂ n⌉ bits.
KEY_BIT_BOUNDARIES = (2, 3, 4, 5, 256, 257, 512, 513)
SPECIAL_VALUES = (0.0, -0.0, np.inf, -np.inf, np.nan)


def _perturb(draw, x, y):
    """Seed ``x`` (and sometimes ``y``) with what the sorted-key kernel
    must route to the exact kernel: exact ties, one-ulp neighbours,
    signed zeros, ±inf/NaN and constant rows — plus odd baselines."""
    rows, n = x.shape
    cell = st.integers(0, n - 1)
    row = st.integers(0, rows - 1)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(
            st.sampled_from(
                ("tie", "ulp", "zeros", "special", "constant", "y-special")
            )
        )
        r, i, j = draw(row), draw(cell), draw(cell)
        if kind == "tie":
            x[r, i] = x[r, j]
        elif kind == "zeros":
            x[r, [i, j]] = [0.0, -0.0]
        elif kind == "ulp":
            toward = draw(st.sampled_from((-np.inf, np.inf)))
            x[r, i] = np.nextafter(x[r, j], toward)
        elif kind == "special":
            x[r, i] = draw(st.sampled_from(SPECIAL_VALUES))
        elif kind == "constant":
            x[r] = draw(st.sampled_from((1.0, -0.0, np.inf)))
        else:
            y[i] = draw(st.sampled_from(SPECIAL_VALUES))


@st.composite
def ranking_problems(draw):
    """A noisy ``(rows, n)`` matrix and a baseline ``y`` seeded with
    everything the sorted-key kernel must route to the exact kernel
    (:func:`_perturb`) — plus tied baselines."""
    n = draw(st.sampled_from(KEY_BIT_BOUNDARIES) | st.integers(2, 40))
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((1e-315, 1e-300, 1e-3, 1.0, 1e6, 1e300)))
    if draw(st.booleans()):
        y = rng.integers(0, 4, size=n).astype(np.float64)
    else:
        y = rng.normal(size=n)
    x = y * scale + rng.normal(size=(rows, n)) * scale
    _perturb(draw, x, y)
    return x, y


class TestSpearmanDistinctBatchProperties:
    @given(ranking_problems())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_tie_averaging_kernel(self, problem):
        x, y = problem
        before = x.copy()
        fast = spearman_distinct_batch(x, *centered_rank_stats(y))
        with np.errstate(all="ignore"):
            exact = spearman_correlation_batch(x, y)
        # Bit patterns, with NaN == NaN whatever its sign or payload.
        np.testing.assert_array_equal(np.isnan(fast), np.isnan(exact))
        finite = ~np.isnan(exact)
        np.testing.assert_array_equal(
            fast[finite].view(np.int64), exact[finite].view(np.int64)
        )
        np.testing.assert_array_equal(x, before)


@st.composite
def set_ranking_problems(draw):
    """A :class:`RankLayout` ranking problem: ``(x, y, index_sets)``.

    ``index_sets`` is every cell, then four disjoint ascending segments:
    random strata; tiny segments (0, 1 and 2 cells, rest in none); or no
    strata at all, so every cell is in no segment.  One segment may hold
    a constant baseline.  The row count straddles the kernel's block:
    1, block − 1, block or block + 1 rows, or a few.  ``x`` and ``y``
    carry :func:`_perturb`'s ties, near-ties, signed zeros and ±inf/NaN,
    and a row may hold several NaNs.
    """
    n = draw(st.sampled_from(KEY_BIT_BOUNDARIES) | st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(("random", "tiny", "none")))
    labels = np.full(n, -1)
    if shape == "random":
        labels = rng.integers(-1, 4, size=n)
    elif shape == "tiny":
        cells = rng.permutation(n)
        labels[cells[:1]] = 1
        labels[cells[1:3]] = 2
        labels[cells[3 : 3 + n // 2]] = 3
    index_sets = (
        np.arange(n),
        *(np.flatnonzero(labels == s) for s in range(4)),
    )
    block = block_rows(n)
    rows = draw(
        st.sampled_from((1, block - 1, block, block + 1)) | st.integers(1, 6)
    )
    scale = draw(st.sampled_from((1e-315, 1e-3, 1.0, 1e6, 1e300)))
    if draw(st.booleans()):
        y = rng.integers(0, 4, size=n).astype(np.float64)
    else:
        y = rng.normal(size=n)
    if draw(st.booleans()):
        y[index_sets[1 + draw(st.integers(0, 3))]] = 7.0  # constant SDL ranks
    x = y * scale + rng.normal(size=(rows, n)) * scale
    _perturb(draw, x, y)
    if n >= 2 and draw(st.booleans()):
        # Several NaNs in one row rank by position: set order must not
        # reorder them against the cell-order reference.
        x[draw(st.integers(0, rows - 1)), rng.permutation(n)[:3]] = np.nan
    return x, y, index_sets


class TestSpearmanSetsProperties:
    @given(set_ranking_problems())
    @settings(max_examples=200, deadline=None)
    def test_every_set_bit_identical_to_tie_averaging_kernel(self, problem):
        """Per row and set: the multi-set kernel over set order equals
        ``spearman_correlation_batch(x[:, idx], y[idx])`` bit for bit."""
        x, y, index_sets = problem
        before = x.copy()
        with np.errstate(all="ignore"):
            stats = baseline_rank_stats(y, index_sets)
            layout = RankLayout.build(index_sets, stats)
            ranker = SetRanker(layout)
            ranker.rank_cells(x[::-1])  # scratch reuse must not leak
            fast = ranker.rank_cells(x)
        assert fast.shape == (len(index_sets), x.shape[0])
        for j, idx in enumerate(index_sets):
            with np.errstate(all="ignore"):
                exact = spearman_correlation_batch(x[:, idx], y[idx])
            np.testing.assert_array_equal(np.isnan(fast[j]), np.isnan(exact))
            finite = ~np.isnan(exact)
            np.testing.assert_array_equal(
                fast[j][finite].view(np.int64), exact[finite].view(np.int64)
            )
        np.testing.assert_array_equal(x, before)


class TestRankDescendingProperties:
    @given(vectors)
    @settings(max_examples=80, deadline=None)
    def test_is_permutation(self, values):
        positions = rank_descending(values)
        assert sorted(positions.tolist()) == list(range(len(values)))

    @given(vectors)
    @settings(max_examples=80, deadline=None)
    def test_position_zero_holds_the_maximum(self, values):
        positions = rank_descending(values)
        top_cell = positions.tolist().index(0)
        assert values[top_cell] == values.max()
