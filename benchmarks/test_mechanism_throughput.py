"""Micro-benchmarks: throughput of the samplers, the mechanisms and the
marginal-query engine (the substrate costs behind every experiment)."""

import numpy as np

from benchmarks.test_batched_trials import _best_of_pair
from repro.core import EREEParams, LogLaplace, SmoothGamma, SmoothLaplace
from repro.core.smooth_sensitivity import sample_gamma4, sample_gamma4_fast
from repro.db import Marginal, per_establishment_counts

PARAMS = EREEParams(alpha=0.1, epsilon=2.0, delta=0.05)
N_CELLS = 50_000
MIN_GAMMA4_FAST_SPEEDUP = 1.3


def test_gamma4_sampler_throughput(benchmark):
    result = benchmark(sample_gamma4, N_CELLS, 1)
    assert result.shape == (N_CELLS,)


def test_gamma4_fast_sampler_throughput(benchmark):
    result = benchmark(sample_gamma4_fast, N_CELLS, 1)
    assert result.shape == (N_CELLS,)


def test_gamma4_fast_sampler_gate():
    """The single-round oversampled sampler must not regress vs the
    grow-as-needed rejection loop (it typically runs ~2x faster)."""
    fast_s, default_s = _best_of_pair(
        lambda: sample_gamma4_fast(N_CELLS, 1),
        lambda: sample_gamma4(N_CELLS, 1),
        repeats=5,
    )
    speedup = default_s / fast_s
    assert speedup >= MIN_GAMMA4_FAST_SPEEDUP, (
        f"sample_gamma4_fast only {speedup:.2f}x vs sample_gamma4 "
        f"(need >= {MIN_GAMMA4_FAST_SPEEDUP}x)"
    )


def test_log_laplace_throughput(benchmark):
    mechanism = LogLaplace(PARAMS)
    counts = np.random.default_rng(2).integers(0, 10_000, N_CELLS).astype(float)
    result = benchmark(mechanism.release_counts, counts, 3)
    assert result.shape == counts.shape


def test_smooth_gamma_throughput(benchmark):
    mechanism = SmoothGamma(PARAMS)
    rng = np.random.default_rng(4)
    counts = rng.integers(0, 10_000, N_CELLS).astype(float)
    xv = np.minimum(counts, rng.integers(1, 2_000, N_CELLS)).astype(float)
    result = benchmark(mechanism.release_counts, counts, xv, 5)
    assert result.shape == counts.shape


def test_smooth_laplace_throughput(benchmark):
    mechanism = SmoothLaplace(PARAMS)
    rng = np.random.default_rng(6)
    counts = rng.integers(0, 10_000, N_CELLS).astype(float)
    xv = np.minimum(counts, rng.integers(1, 2_000, N_CELLS)).astype(float)
    result = benchmark(mechanism.release_counts, counts, xv, 7)
    assert result.shape == counts.shape


def test_marginal_query_throughput(benchmark, context):
    worker_full = context.worker_full
    marginal = Marginal(
        worker_full.table.schema, ["place", "naics", "ownership", "sex"]
    )
    counts = benchmark(marginal.counts, worker_full.table)
    assert counts.sum() == worker_full.n_jobs


def test_per_establishment_stats_throughput(benchmark, context):
    worker_full = context.worker_full
    marginal = Marginal(worker_full.table.schema, ["place", "naics", "ownership"])
    cell_index = marginal.cell_index(worker_full.table)
    stats = benchmark(
        per_establishment_counts,
        cell_index,
        worker_full.establishment,
        marginal.n_cells,
    )
    assert stats.totals.sum() == worker_full.n_jobs


def test_sdl_answer_throughput(benchmark, context):
    marginal = Marginal(
        context.worker_full.table.schema, ["place", "naics", "ownership"]
    )
    answer = benchmark(context.sdl.answer_marginal, context.worker_full, marginal)
    assert answer.noisy.shape == (marginal.n_cells,)
