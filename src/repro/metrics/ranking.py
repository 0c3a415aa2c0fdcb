"""Spearman rank-order correlation for the ranking workloads.

Sec 10 measures ranking accuracy as the Spearman correlation between the
ordering induced by a private release's counts and the ordering induced
by the current SDL release's counts (Rankings 1 and 2, Figures 2 and 5).

Implemented directly (average ranks for ties + Pearson on ranks) so the
library has no hidden dependence on scipy for its core path; the test
suite cross-checks against :func:`scipy.stats.spearmanr`.
"""

from __future__ import annotations

import math

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


def spearman_distinct_batch(
    x_trials: np.ndarray, centered_rank_y: np.ndarray, sd_y: float
) -> np.ndarray:
    """Row-wise Spearman ρ against a pre-ranked baseline, from one value sort.

    Equals :func:`spearman_correlation_batch` against the baseline whose
    :func:`centered_rank_stats` are ``(centered_rank_y, sd_y)``, bit for
    bit while n³ < 2⁵³ (n ≲ 2×10⁵).  Each value's cell index replaces the
    low ``⌈log₂ n⌉`` bits of its float64 mantissa, so one ``np.sort`` of
    these keys orders every row and the low bits of the sorted keys read
    the order back.  A row whose neighbouring sorted keys all differ in
    their remaining value bits holds distinct values in that order: its
    ranks are a permutation of ``1..n``, the rank sd is the constant
    ``sqrt((n²−1)/12)`` (rounded exactly like ``numpy.std``), and because
    the baseline's centered ranks sum to zero the covariance collapses to
    a position dot product over the sorted-order gather.  Both kernels
    then sum the same half-integer products exactly.

    Rows where two neighbours share their value bits — exact ties, ±0.0,
    or values that differ only in those low bits — and rows holding ±inf
    or NaN go through :func:`spearman_correlation_batch` itself, row by
    row; the centered ranks stand in for the baseline there, since
    ranking them reproduces the baseline's average ranks exactly.
    """
    x_trials = np.asarray(x_trials, dtype=np.float64)
    if x_trials.ndim != 2:
        raise ValueError(f"expected a 2-D trial matrix, got {x_trials.shape}")
    n_trials, n = x_trials.shape
    if n != centered_rank_y.shape[-1]:
        raise ValueError(
            f"shape mismatch: {x_trials.shape} vs {centered_rank_y.shape}"
        )
    if n < 2 or sd_y == 0.0:
        return np.full(n_trials, np.nan)
    low = (1 << (n - 1).bit_length()) - 1
    bits = x_trials.view(np.int64) & ~low
    bits |= np.arange(n, dtype=np.int64)
    keys = bits.view(np.float64)
    keys.sort(axis=1)
    # Comparing the value bits as floats makes -0.0 tie with +0.0; NaN
    # keys sort last and -inf can only sort first.
    value_bits = (bits & ~low).view(np.float64)
    fallback = (value_bits[:, 1:] == value_bits[:, :-1]).any(axis=1)
    fallback |= ~(np.isfinite(keys[:, 0]) & np.isfinite(keys[:, -1]))
    del value_bits
    # Rank of the cell at sorted position p is p+1, so
    # Σ_j rank_j · cy_j = Σ_p (p+1) · cy[order_p]; Σ cy = 0 makes the
    # centering of the rank side vanish into the same dot product.
    # einsum, not ``@``: the sum is exact in any order, and on a 2-vCPU
    # host OpenBLAS's threaded gemv took ~8 ms per 1500×503 family chunk
    # against einsum's ~0.7 ms.
    bits &= low
    positions = np.arange(1, n + 1, dtype=np.float64)
    covariance = np.einsum("ij,j->i", centered_rank_y[bits], positions) / n
    sd_x = math.sqrt((n * n - 1) / 12.0)
    rho = covariance / (sd_x * sd_y)
    if fallback.any():
        rho[fallback] = spearman_correlation_batch(
            x_trials[fallback], centered_rank_y
        )
    return rho


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
