"""Spearman rank-order correlation for the ranking workloads.

Sec 10 measures ranking accuracy as the Spearman correlation between the
ordering induced by a private release's counts and the ordering induced
by the current SDL release's counts (Rankings 1 and 2, Figures 2 and 5).

Implemented directly (average ranks for ties + Pearson on ranks) so the
library has no hidden dependence on scipy for its core path; the test
suite cross-checks against :func:`scipy.stats.spearmanr`.

Two kernels compute the same values:

- :func:`spearman_correlation_batch` is the exact tie-averaging kernel,
  the reference for everything else.
- :class:`SetRanker` is the fast multi-set kernel every sweep and
  release result reduces through.  The paper reports ρ overall and per
  place-size stratum, so a :class:`RankLayout` lays the evaluation
  cells out in *set order* — each stratum one contiguous run — and the
  kernel ranks the whole set and every stratum from one key build per
  cache-sized block of rows.  Rows it cannot rank from sorted keys
  (ties, ±0.0, ±inf, NaN) go through the exact kernel, so both agree
  bit for bit.  :func:`spearman_distinct_batch` is its one-set call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks (1-based) with ties sharing the average of their positions."""
    return average_ranks_batch(np.asarray(values, dtype=np.float64)[None])[0]


def average_ranks_batch(values: np.ndarray) -> np.ndarray:
    """Row-wise tied average ranks of a ``(n_rows, n)`` matrix.

    Fully vectorized: tie groups are located by comparing sorted
    neighbors, the group start/end positions propagate along the sorted
    axis with cumulative max/min, and the averaged ranks scatter back —
    no per-row Python loop.  Each row equals :func:`average_ranks` on it.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        return average_ranks(values)
    if values.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D array, got shape {values.shape}")
    n_rows, n = values.shape
    if n == 0:
        return np.empty((n_rows, 0), dtype=np.float64)
    order = np.argsort(values, axis=1, kind="mergesort")
    sorted_values = np.take_along_axis(values, order, axis=1)
    positions = np.arange(n, dtype=np.float64)

    is_group_start = np.ones((n_rows, n), dtype=bool)
    is_group_start[:, 1:] = sorted_values[:, 1:] != sorted_values[:, :-1]
    start = np.maximum.accumulate(
        np.where(is_group_start, positions, 0.0), axis=1
    )
    is_group_end = np.ones((n_rows, n), dtype=bool)
    is_group_end[:, :-1] = is_group_start[:, 1:]
    end = np.where(is_group_end, positions, float(n - 1))
    end = np.minimum.accumulate(end[:, ::-1], axis=1)[:, ::-1]

    # A group spanning sorted positions [s, e] holds ranks s+1 .. e+1,
    # averaging to (s + e)/2 + 1.
    averaged = (start + end) / 2.0 + 1.0
    ranks = np.empty((n_rows, n), dtype=np.float64)
    np.put_along_axis(ranks, order, averaged, axis=1)
    return ranks


def spearman_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's ρ between two value vectors; nan for degenerate input."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        return float("nan")
    rank_x = average_ranks(x)
    rank_y = average_ranks(y)
    sd_x = rank_x.std()
    sd_y = rank_y.std()
    if sd_x == 0.0 or sd_y == 0.0:
        return float("nan")
    covariance = ((rank_x - rank_x.mean()) * (rank_y - rank_y.mean())).mean()
    return float(covariance / (sd_x * sd_y))


def spearman_correlation_batch(
    x_trials: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Spearman's ρ of every row of ``x_trials`` against the vector ``y``.

    ``x_trials`` is ``(n_trials, n)``; ``y`` ranks once and its centered
    ranks pair with the row-wise rank matrix of ``x_trials``, so the whole
    trial axis reduces without a per-trial loop.  Rows with a degenerate
    ranking (constant values, or n < 2) come back nan, matching
    :func:`spearman_correlation`.
    """
    x_trials = np.asarray(x_trials, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x_trials.ndim != 2:
        raise ValueError(f"expected a 2-D trial matrix, got {x_trials.shape}")
    if x_trials.shape[1] != y.shape[-1]:
        raise ValueError(f"shape mismatch: {x_trials.shape} vs {y.shape}")
    n_trials, n = x_trials.shape
    if n < 2:
        return np.full(n_trials, np.nan)
    rank_x = average_ranks_batch(x_trials)
    rank_y = average_ranks(y)

    centered_x = rank_x - rank_x.mean(axis=1, keepdims=True)
    centered_y = rank_y - rank_y.mean()
    sd_x = rank_x.std(axis=1)
    sd_y = rank_y.std()
    covariance = (centered_x * centered_y).mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = covariance / (sd_x * sd_y)
    rho[sd_x == 0.0] = np.nan
    if sd_y == 0.0:
        rho[:] = np.nan
    return rho


def centered_rank_stats(y: np.ndarray) -> tuple[np.ndarray, float]:
    """Precompute ``(centered average ranks, rank sd)`` of a baseline vector.

    One ranking of ``y`` serves every Spearman comparison against it —
    the sweep engine caches this per (workload, index set) on
    :class:`~repro.engine.points.WorkloadStatistics` so all mechanisms of
    a fused family share one SDL tabulation instead of re-ranking the
    baseline per (mechanism, α, ε) point.
    """
    ranks = average_ranks(np.asarray(y, dtype=np.float64))
    return ranks - ranks.mean(), float(ranks.std())


# A kernel block holds about this many bytes of float64 values, so a
# block's keys, sorted copy and gathered ranks stay in a core's L2 cache.
BLOCK_BYTES = 1 << 19


def block_rows(n_cells: int) -> int:
    """Rows per :class:`SetRanker` block at ``n_cells`` columns."""
    return max(1, BLOCK_BYTES // (8 * max(n_cells, 1)))


@dataclass(frozen=True)
class RankLayout:
    """One evaluation set in *set order*, with its SDL ranks.

    The set spans ``n`` cells and holds disjoint *segments* (the
    place-population strata).  ``order`` maps set positions to cells:
    segment ``s`` is the contiguous run ``bounds[s]:bounds[s + 1]`` in
    ascending cell order, and cells in no segment come last.
    ``centered`` holds the whole set's centered SDL ranks and
    ``segment_centered`` each segment's own (zero outside every
    segment), both permuted into set order; ``sd`` is the SDL rank sd of
    the whole set, then of each segment.  The arrays are read-only, so
    one layout serves every thread and every call.
    """

    order: np.ndarray
    bounds: np.ndarray
    centered: np.ndarray
    segment_centered: np.ndarray
    sd: tuple[float, ...]

    @classmethod
    def build(cls, index_sets, rank_stats) -> "RankLayout":
        """The layout of ``index_sets`` given their baseline rank stats.

        ``index_sets[0]`` is every cell, ``0..n-1``; the rest are the
        segments, ascending and disjoint.  ``rank_stats`` aligns with
        ``index_sets``: each set's :func:`centered_rank_stats` in cell
        order (an empty rank vector for a set under 2 cells).
        """
        n = index_sets[0].size
        segments = index_sets[1:]
        in_segment = np.zeros(n, dtype=bool)
        for idx in segments:
            in_segment[idx] = True
        order = np.concatenate(
            [*segments, np.flatnonzero(~in_segment)]
        ).astype(np.int64)
        if order.size != n:
            raise ValueError("segments must be disjoint")
        bounds = np.cumsum([0, *(idx.size for idx in segments)])
        centered = np.zeros(n)
        if n >= 2:
            centered[:] = rank_stats[0][0][order]
        segment_centered = np.zeros(n)
        for s, (ranks, _) in enumerate(rank_stats[1:]):
            if segments[s].size >= 2:
                segment_centered[bounds[s] : bounds[s + 1]] = ranks
        for array in (order, bounds, centered, segment_centered):
            array.setflags(write=False)
        return cls(
            order,
            bounds,
            centered,
            segment_centered,
            tuple(float(sd) for _, sd in rank_stats),
        )


class SetRanker:
    """Spearman ρ of row blocks against every set of one :class:`RankLayout`.

    ``rank(n_rows, fill)`` returns ``(1 + n_segments, n_rows)``: the
    whole set's ρ first, then each segment's.  Every value equals
    :func:`spearman_correlation_batch` on that set's cells in ascending
    cell order, bit for bit while n³ < 2⁵³ (n ≲ 2×10⁵).

    Rows go through in blocks of :func:`block_rows` rows, each keyed
    once: a value's set position replaces the low ``⌈log₂ n⌉`` bits of
    its float64 mantissa.  One ``np.sort`` of a row's keys orders the
    whole set, and sorting each segment of a copy in place orders every
    segment; the low bits of the sorted keys then read each order back.
    A row whose neighbouring sorted keys all differ in their remaining
    value bits holds distinct values, so within every set its ranks are
    a permutation of ``1..m``: the rank sd is ``sqrt((m²−1)/12)``
    (rounded exactly like ``numpy.std``), and because the baseline's
    centered ranks sum to zero, the covariance is one gather of them by
    sorted position and one dot product with the positions.  Both this
    and the tie-averaging kernel sum the same half-integer products
    exactly, in whatever order.

    A row where two sorted neighbours share their value bits — an exact
    tie, ±0.0, or values that differ only in those low bits — or that
    holds ±inf or NaN goes through :func:`spearman_correlation_batch`
    for every set; a tie inside a segment is also a tie in the whole
    row, so the whole-row check covers every segment.  The whole set is
    ranked there in cell order (NaNs rank by position), and the centered
    ranks stand in for the baseline, since ranking them reproduces the
    baseline's average ranks exactly.  Sets under 2 cells, or whose
    baseline ranks are constant, come back nan.

    A ranker allocates its scratch blocks once and reuses them on every
    call — a family sweep ranks all its members through one — because a
    fresh block the allocator has returned to the OS costs a page fault
    per 4 KiB touched.  The scratch belongs to whoever made the ranker:
    make one per call, and never share one between threads.
    """

    def __init__(self, layout: RankLayout):
        self.layout = layout
        n = layout.order.size
        bounds = layout.bounds
        sizes = (n, *(int(b - a) for a, b in zip(bounds[:-1], bounds[1:])))
        self.n_sets = len(sizes)
        live = [
            j
            for j, size in enumerate(sizes)
            if size >= 2 and layout.sd[j] != 0.0
        ]
        self.whole = bool(live) and live[0] == 0
        self.segments = [
            (j, int(bounds[j - 1]), int(bounds[j])) for j in live if j
        ]
        self.denominators = {
            j: math.sqrt((sizes[j] * sizes[j] - 1) / 12.0) * layout.sd[j]
            for j in live
        }
        self.low = (1 << (n - 1).bit_length()) - 1
        self.columns = np.arange(n, dtype=np.int64)
        self.positions = np.arange(1, n + 1, dtype=np.float64)
        self.step = block_rows(n)
        # Untouched pages cost nothing, so a full block is allocated
        # even for callers that rank fewer rows.
        shape = (self.step, n)
        self.block = np.empty(shape)
        self.keys = np.empty(shape, dtype=np.int64)
        self.scratch = np.empty(shape)
        self.segment_keys = np.empty(shape, dtype=np.int64)

    def rank(self, n_rows: int, fill) -> np.ndarray:
        """ρ of ``n_rows`` rows against every set.

        ``fill(start, stop, out)`` returns rows ``start:stop`` in set
        order, float64 — written into the scratch block ``out`` or taken
        from anywhere — so a caller can build each block of noisy rows
        just before it is ranked, while it is in cache.
        """
        layout, low = self.layout, self.low
        n = layout.order.size
        rho = np.full((self.n_sets, n_rows), np.nan)
        if not self.denominators:
            return rho
        for start in range(0, n_rows, self.step):
            stop = min(start + self.step, n_rows)
            x = fill(start, stop, self.block[: stop - start])
            bits = self.keys[: stop - start]
            np.bitwise_and(x.view(np.int64), ~low, out=bits)
            bits |= self.columns
            if self.segments:
                segment_bits = self.segment_keys[: stop - start]
                np.copyto(segment_bits, bits)
            sorted_keys = bits.view(np.float64)
            sorted_keys.sort(axis=1)
            # Comparing the value bits as floats makes -0.0 tie with
            # +0.0; NaN keys sort last and -inf can only sort first.
            gathered = self.scratch[: stop - start]
            np.bitwise_and(bits, ~low, out=gathered.view(np.int64))
            fallback = (gathered[:, 1:] == gathered[:, :-1]).any(axis=1)
            ends = sorted_keys[:, [0, -1]]
            fallback |= ~np.isfinite(ends).all(axis=1)
            # Rank of the cell at sorted position p is p+1, so
            # Σ_j rank_j · cy_j = Σ_p (p+1) · cy[order_p]; Σ cy = 0 makes
            # the centering of the rank side vanish into the same dot
            # product.  einsum, not ``@``: the sum is exact in any order,
            # and on a 2-vCPU host OpenBLAS's threaded gemv took ~8 ms per
            # 1500×503 family chunk against einsum's ~0.7 ms.  ``clip``
            # only skips the bounds check: the indices are positions.
            if self.whole:
                bits &= low
                np.take(layout.centered, bits, out=gathered, mode="clip")
                covariance = np.einsum("ij,j->i", gathered, self.positions) / n
                rho[0, start:stop] = covariance / self.denominators[0]
            if self.segments:
                segment_sorted = segment_bits.view(np.float64)
                for _, a, b in self.segments:
                    segment_sorted[:, a:b].sort(axis=1)
                segment_bits &= low
                ranks = layout.segment_centered
                np.take(ranks, segment_bits, out=gathered, mode="clip")
                for j, a, b in self.segments:
                    positions = self.positions[: b - a]
                    covariance = (
                        np.einsum("ij,j->i", gathered[:, a:b], positions)
                        / (b - a)
                    )
                    rho[j, start:stop] = covariance / self.denominators[j]
            if fallback.any():
                rows = np.flatnonzero(fallback)
                tied = x[rows]
                if self.whole:
                    cells = np.empty_like(tied)
                    cells[:, layout.order] = tied
                    baseline = np.empty(n)
                    baseline[layout.order] = layout.centered
                    rho[0, start + rows] = spearman_correlation_batch(
                        cells, baseline
                    )
                for j, a, b in self.segments:
                    rho[j, start + rows] = spearman_correlation_batch(
                        tied[:, a:b], layout.segment_centered[a:b]
                    )
        return rho

    def rank_cells(self, x_trials: np.ndarray) -> np.ndarray:
        """:meth:`rank` over a ``(n_trials, n)`` matrix in *cell* order.

        Each block is gathered into set order inside the scratch block.
        """
        x_trials = np.asarray(x_trials, dtype=np.float64)
        if x_trials.ndim != 2:
            raise ValueError(
                f"expected a 2-D trial matrix, got {x_trials.shape}"
            )
        order = self.layout.order
        if x_trials.shape[1] != order.size:
            raise ValueError(
                f"shape mismatch: {x_trials.shape} vs {order.size} cells"
            )
        return self.rank(
            x_trials.shape[0],
            lambda start, stop, out: np.take(
                x_trials[start:stop], order, axis=1, out=out, mode="clip"
            ),
        )


def spearman_distinct_batch(
    x_trials: np.ndarray, centered_rank_y: np.ndarray, sd_y: float
) -> np.ndarray:
    """Row-wise Spearman ρ against a pre-ranked baseline, from one value sort.

    The one-set call of :class:`SetRanker`: equals
    :func:`spearman_correlation_batch` against the baseline whose
    :func:`centered_rank_stats` are ``(centered_rank_y, sd_y)``, bit for
    bit while n³ < 2⁵³.
    """
    n = centered_rank_y.shape[-1]
    layout = RankLayout.build((np.arange(n),), ((centered_rank_y, sd_y),))
    return SetRanker(layout).rank_cells(x_trials)[0]


def rank_descending(values: np.ndarray) -> np.ndarray:
    """Positions of cells when sorted by value descending (0 = largest).

    Ties resolve by cell index, matching how a published list would break
    ties deterministically.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(-values, kind="mergesort")
    positions = np.empty(len(values), dtype=np.int64)
    positions[order] = np.arange(len(values))
    return positions
