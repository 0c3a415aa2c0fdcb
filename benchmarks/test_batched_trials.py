"""EXP-B1 — Batched trial engine throughput.

The figures' Monte Carlo grids draw (mechanism × α × ε × trials) noisy
releases and reduce them to L1 ratios / Spearman correlations per grid
point.  This suite records the batched engine's cost per grid point and
pins its speedup over the historical per-trial engine — the
``release_trials_looped`` draw loop plus per-trial metric list
comprehensions, reconstructed verbatim below — at n_trials = 100.
"""

import math
import time

import numpy as np

from benchmarks.conftest import write_report
from repro.core import EREEParams
from repro.engine.evaluate import (
    _point_values,
    release_trials,
    release_trials_looped,
    spearman_point,
)
from repro.engine.points import N_STRATA
from repro.experiments.workloads import WORKLOAD_1
from repro.metrics.error import l1_error, l1_error_batch
from repro.metrics.ranking import spearman_correlation
from repro.util import format_table

PARAMS = EREEParams(alpha=0.05, epsilon=2.0, delta=0.05)
N_TRIALS = 100
MIN_SPEEDUP = 5.0
MECHANISMS = ("log-laplace", "smooth-laplace", "smooth-gamma")

REDUCTION_N_TRIALS = 400
MIN_REDUCTION_SPEEDUP = 1.3


def _legacy_spearman_point(stats, mechanism_name, params, n_trials, seed):
    """The pre-batching engine: per-trial draw loop + per-trial Spearman
    list comprehensions with the scalar tie-averaging ranker."""
    trials = release_trials_looped(stats, mechanism_name, params, n_trials, seed)
    sdl = stats.sdl_noisy[stats.mask]
    strata = stats.strata[stats.mask]

    def mean_spearman(cells):
        if int(cells.sum()) < 2:
            return float("nan")
        return float(
            np.nanmean(
                [spearman_correlation(t[cells], sdl[cells]) for t in trials]
            )
        )

    overall = mean_spearman(np.ones(len(sdl), dtype=bool))
    by_stratum = tuple(
        mean_spearman(strata == s) for s in range(N_STRATA)
    )
    return overall, by_stratum


def _best_of_pair(first, second, repeats=3):
    """Best-of-``repeats`` seconds of two functions, timed interleaved.

    Every repeat times both sides, alternating which one goes first, so
    a slow stretch of the host lands on both sides of a ratio gate
    instead of deciding it.
    """
    fns = (first, second)
    best = [math.inf, math.inf]
    for repeat in range(repeats):
        for side in (0, 1) if repeat % 2 == 0 else (1, 0):
            start = time.perf_counter()
            fns[side]()
            best[side] = min(best[side], time.perf_counter() - start)
    return best[0], best[1]


def test_batched_draw_log_laplace(benchmark, context):
    stats = context.statistics(WORKLOAD_1)
    out = benchmark(release_trials, stats, "log-laplace", PARAMS, N_TRIALS, 11)
    assert out.shape[0] == N_TRIALS


def test_batched_draw_smooth_laplace(benchmark, context):
    stats = context.statistics(WORKLOAD_1)
    out = benchmark(
        release_trials, stats, "smooth-laplace", PARAMS, N_TRIALS, 12
    )
    assert out.shape[0] == N_TRIALS


def test_batched_draw_smooth_gamma(benchmark, context):
    stats = context.statistics(WORKLOAD_1)
    out = benchmark(release_trials, stats, "smooth-gamma", PARAMS, N_TRIALS, 13)
    assert out.shape[0] == N_TRIALS


def test_batched_grid_point_spearman(benchmark, context):
    stats = context.statistics(WORKLOAD_1)
    point = benchmark(
        spearman_point, stats, "smooth-laplace", PARAMS, N_TRIALS, 14
    )
    assert -1.0 <= point.overall <= 1.0


def _sliced_point_values(chunks, true, sdl, strata, n_trials):
    """The pre-one-pass L1 reducer, reconstructed verbatim: one boolean
    slice (and one subtract + abs over the sliced copy) per cell set per
    chunk — N_STRATA+1 passes over every chunk."""
    cell_sets = [np.ones(len(sdl), dtype=bool)] + [
        strata == stratum for stratum in range(N_STRATA)
    ]
    sums = np.zeros(len(cell_sets))
    for chunk in chunks:
        for j, cells in enumerate(cell_sets):
            if cells.any():
                sums[j] += l1_error_batch(true[cells], chunk[:, cells]).sum()
    results = []
    for j, cells in enumerate(cell_sets):
        sdl_l1 = l1_error(true[cells], sdl[cells])
        results.append((float(sums[j]) / n_trials) / sdl_l1)
    return results[0], tuple(results[1:])


def test_one_pass_reduction_speedup(benchmark, context):
    """One-pass gate: |error| computed once per chunk and gathered into
    the overall + stratum sums beats the sliced reducer >=1.3x — with
    bit-identical values (the gather reproduces the slices' summation
    order)."""
    stats = context.statistics(WORKLOAD_1)
    matrix = release_trials(
        stats, "smooth-laplace", PARAMS, REDUCTION_N_TRIALS, 7
    )
    true, strata = stats.eval_true, stats.eval_strata
    sdl = stats.sdl_noisy[stats.mask]

    def one_pass():
        return _point_values(matrix, true, "l1-ratio", stats.evaluation)

    def sliced():
        return _sliced_point_values(
            (matrix,), true, sdl, strata, REDUCTION_N_TRIALS
        )

    assert one_pass() == sliced()

    result = benchmark(one_pass)
    assert result == sliced()

    one_pass_s, sliced_s = _best_of_pair(one_pass, sliced, repeats=7)
    speedup = sliced_s / one_pass_s
    assert speedup >= MIN_REDUCTION_SPEEDUP, (
        f"one-pass reduction only {speedup:.2f}x faster than the sliced "
        f"reducer (need >= {MIN_REDUCTION_SPEEDUP}x)"
    )


def test_batched_speedup_over_loop(context, out_dir):
    """The acceptance gate: >=5x grid-point throughput at n_trials=100."""
    stats = context.statistics(WORKLOAD_1)
    rows = []
    speedups = {}
    for mechanism in MECHANISMS:
        batched_s, looped_s = _best_of_pair(
            lambda m=mechanism: spearman_point(stats, m, PARAMS, N_TRIALS, 7),
            lambda m=mechanism: _legacy_spearman_point(
                stats, m, PARAMS, N_TRIALS, 7
            ),
        )
        draw_batched_s, draw_looped_s = _best_of_pair(
            lambda m=mechanism: release_trials(stats, m, PARAMS, N_TRIALS, 7),
            lambda m=mechanism: release_trials_looped(
                stats, m, PARAMS, N_TRIALS, 7
            ),
        )
        speedups[mechanism] = looped_s / batched_s
        rows.append(
            [
                mechanism,
                f"{looped_s * 1e3:.1f}",
                f"{batched_s * 1e3:.1f}",
                f"{speedups[mechanism]:.1f}x",
                f"{draw_looped_s * 1e3:.2f}",
                f"{draw_batched_s * 1e3:.2f}",
                f"{draw_looped_s / draw_batched_s:.1f}x",
            ]
        )
    report = format_table(
        headers=[
            "mechanism",
            "point loop ms",
            "point batched ms",
            "point speedup",
            "draw loop ms",
            "draw batched ms",
            "draw speedup",
        ],
        rows=rows,
        title=f"Grid-point engine at n_trials={N_TRIALS} on Workload 1 "
        f"({int(stats.mask.sum())} cells): batched matrix vs per-trial loop",
    )
    write_report(out_dir, "batched-trials", report)

    for mechanism, speedup in speedups.items():
        assert speedup >= MIN_SPEEDUP, (
            f"{mechanism}: batched grid point only {speedup:.1f}x faster "
            f"than the per-trial engine (need >= {MIN_SPEEDUP}x)"
        )

    # And the two engines still agree on the Laplace stream.
    batched = release_trials(stats, "smooth-laplace", PARAMS, 5, 7)
    looped = np.stack(
        release_trials_looped(stats, "smooth-laplace", PARAMS, 5, 7)
    )
    np.testing.assert_array_equal(batched, looped)
