"""EXP-B4 — Fused-grid kernels: one noise draw per mechanism family.

The sweep engine's fused path factors every smooth mechanism's release
into ``counts + S(x,α)/a(ε) · Z`` and serves a mechanism's whole α×ε
grid from one unit ``(n_trials, n_cells)`` draw — a figure costs one
RNG draw per mechanism instead of one per point.  The linear mechanisms
reduce their L1 ratios analytically from unit |Z| column sums without
materializing a single noisy matrix, and Spearman members rank through
the sorted-key kernel against SDL rank statistics cached per workload.

This suite pins the acceptance gate on both reducers: the fused
Figure-1 (L1) and Figure-2 (Spearman) grids must each run
≥``MIN_FUSED_SPEEDUP``× faster than the per-point serial path at
n_trials=100.  The gate is per core: both sides run under
``REPRO_MAX_WORKERS=1``, so a family drain does not rank its members on
a core the per-point side leaves unused.  The measured values land in
``BENCH_grid.json`` next to the executor/replay timings.
"""

from dataclasses import replace

import pytest

from benchmarks.conftest import record_bench, write_report
from benchmarks.test_batched_trials import _best_of_pair
from repro.engine.plan import figure_plan
from repro.engine.sweep import run_plan
from repro.runtime import MAX_WORKERS_ENV, SerialDriver
from repro.util import format_table

N_TRIALS = 100
MIN_FUSED_SPEEDUP = 3.0


@pytest.mark.parametrize("name", ["figure-1", "figure-2"])
def test_fused_grid_speedup(bench_config, context, out_dir, name, monkeypatch):
    """The acceptance gate: a fused figure grid ≥3x over per-point serial,
    both on one core."""
    monkeypatch.setenv(MAX_WORKERS_ENV, "1")
    config = replace(bench_config, n_trials=N_TRIALS)
    plan = figure_plan(name, config)

    # Warm the workload-statistics caches (statistics, envelopes, SDL
    # rank stats) so both timings compare grid execution, not one-off
    # prologue work.
    serial = run_plan(plan, context, executor=SerialDriver(), merge_spend=False)
    fused = run_plan(plan, context, merge_spend=False, fused=True)

    serial_s, fused_s = _best_of_pair(
        lambda: run_plan(
            plan, context, executor=SerialDriver(), merge_spend=False
        ),
        lambda: run_plan(plan, context, merge_spend=False, fused=True),
        repeats=5,
    )
    speedup = serial_s / fused_s

    # The fused stream is different noise, not a different experiment:
    # same grid, same feasibility frontier.
    assert len(fused.points) == len(serial.points)
    for a, b in zip(serial.points, fused.points):
        assert (b.mechanism, b.alpha, b.epsilon) == (
            a.mechanism,
            a.alpha,
            a.epsilon,
        )
        assert b.feasible == a.feasible

    report = format_table(
        headers=["path", "wall ms", "vs serial"],
        rows=[
            ["per-point serial", f"{serial_s * 1e3:.1f}", "1.0x"],
            ["fused families", f"{fused_s * 1e3:.1f}", f"{speedup:.1f}x"],
        ],
        title=(
            f"Fused {name} grid ({len(plan.points)} points, {plan.metric}, "
            f"n_trials={N_TRIALS}, {context.dataset.n_jobs} jobs): "
            "one unit draw per mechanism family"
        ),
    )
    write_report(out_dir, f"fused-grid-{name}", report)

    record_bench(
        "BENCH_grid.json",
        f"fused_grid_{name}",
        {
            "points": len(plan.points),
            "metric": plan.metric,
            "n_trials": N_TRIALS,
            "serial_s": serial_s,
            "fused_s": fused_s,
            "speedup": speedup,
            "min_speedup_gate": MIN_FUSED_SPEEDUP,
        },
    )

    assert speedup >= MIN_FUSED_SPEEDUP, (
        f"fused {name} grid only {speedup:.1f}x faster than per-point "
        f"serial (need >= {MIN_FUSED_SPEEDUP}x)"
    )
