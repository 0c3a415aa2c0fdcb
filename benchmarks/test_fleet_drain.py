"""EXP-B6 — Fleet drain: two claim-coordinated processes split one grid.

PR 10's claim-based scheduler lets N drains of the same plan partition
the missing points through lease files on the shared result store
instead of each computing the whole grid.  This benchmark drains one
Workload-1 (Figure 1) grid twice on a paper-scale snapshot:

- **solo**: one process drains the full plan (``claim=True`` against an
  empty store — the claim overhead is *included*, so the comparison is
  honest);
- **fleet**: two forked processes drain the same plan against one
  shared store, concurrently.

The zero-duplicate acceptance gate is asserted unconditionally: the two
drains' computed counts and store write counters must sum to exactly
the grid size.  The ≥``MIN_FLEET_DRAIN_SPEEDUP``× wall-clock gate needs
real parallelism, so it is cpu-gated (recorded, then skipped on
single-core machines); timings land in ``BENCH_grid.json`` beside the
other sweep-engine numbers.
"""

import multiprocessing
import os
import time

import pytest

from benchmarks.conftest import record_bench, write_report
from repro.engine.plan import grid_plan, snapshot_fingerprint
from repro.engine.store import ResultStore
from repro.engine.sweep import run_plan
from repro.util import format_table

MECHANISMS = ("log-laplace", "smooth-laplace", "smooth-gamma")
ALPHAS = (0.05, 0.2)
EPSILONS = (0.5, 1.0, 2.0)
N_TRIALS = 400
WARM_TRIALS = 2
# Two drains of an even grid should approach 2x; 1.6x leaves headroom
# for claim/poll overhead and an uneven point-cost split.
MIN_FLEET_DRAIN_SPEEDUP = 1.6


def _fleet_plan(context, n_trials: int = N_TRIALS):
    return grid_plan(
        "workload-1",
        "l1-ratio",
        MECHANISMS,
        ALPHAS,
        EPSILONS,
        fingerprint=snapshot_fingerprint(context.config),
        delta=0.05,
        n_trials=n_trials,
        seed=context.config.seed,
        tag="bench-fleet",
    )


def _drain(plan, context, root, queue):
    """One fleet member: claim-coordinated drain against the shared store."""
    store = ResultStore(root)
    outcome = run_plan(
        plan,
        context,
        store=store,
        claim=True,
        claim_poll_s=0.05,
        merge_spend=False,
    )
    queue.put((outcome.computed, store.writes))


def test_two_process_fleet_drain(context, out_dir, tmp_path):
    plan = _fleet_plan(context)
    # Warm the session's trial-invariant statistics (true marginals,
    # sensitivity envelopes) with a cheap low-trial pass, so both timed
    # drains measure grid compute, not one-off prologue work — and so
    # the forked fleet members inherit the warm caches for free.
    run_plan(_fleet_plan(context, n_trials=WARM_TRIALS), context, merge_spend=False)

    start = time.perf_counter()
    solo = run_plan(
        plan,
        context,
        store=ResultStore(tmp_path / "solo"),
        claim=True,
        merge_spend=False,
    )
    solo_s = time.perf_counter() - start
    assert solo.computed == len(plan)

    shared_root = tmp_path / "shared"
    mp = multiprocessing.get_context("fork")
    queue = mp.Queue()
    drains = [
        mp.Process(target=_drain, args=(plan, context, shared_root, queue))
        for _ in range(2)
    ]
    start = time.perf_counter()
    for drain in drains:
        drain.start()
    results = [queue.get(timeout=600) for _ in drains]
    for drain in drains:
        drain.join(timeout=60)
    fleet_s = time.perf_counter() - start
    assert all(drain.exitcode == 0 for drain in drains)

    # The zero-duplicate gate holds on any machine: the two drains
    # partitioned the grid exactly — every point computed once, stored
    # once, nowhere twice.
    computed = sum(count for count, _ in results)
    writes = sum(count for _, count in results)
    assert computed == len(plan), (results, len(plan))
    assert writes == len(plan), (results, len(plan))
    shared = ResultStore(shared_root)
    assert len(shared) == len(plan)

    speedup = solo_s / fleet_s
    cpus = os.cpu_count() or 1
    report = format_table(
        headers=["drain", "seconds", "note"],
        rows=[
            ["solo (1 process)", f"{solo_s:.3f}", f"{len(plan)} points"],
            [
                "fleet (2 processes)",
                f"{fleet_s:.3f}",
                f"{speedup:.2f}x, split "
                f"{results[0][0]}+{results[1][0]}, zero duplicates",
            ],
        ],
        title=f"claim-coordinated fleet drain ({cpus} core(s))",
    )
    write_report(out_dir, "bench-fleet-drain", report)
    record_bench(
        "BENCH_grid.json",
        "fleet_drain",
        {
            "n_points": len(plan),
            "n_trials": N_TRIALS,
            "solo_s": solo_s,
            "two_process_s": fleet_s,
            "speedup": speedup,
            "split": [count for count, _ in results],
            "cpu_count": cpus,
            "min_speedup_gate": MIN_FLEET_DRAIN_SPEEDUP,
        },
    )

    if cpus < 2:
        pytest.skip(
            f"{cpus} core(s): the {MIN_FLEET_DRAIN_SPEEDUP}x gate needs "
            f"real parallelism (measured {speedup:.2f}x, recorded in "
            f"BENCH_grid.json)"
        )
    assert speedup >= MIN_FLEET_DRAIN_SPEEDUP, (
        f"fleet drain speedup {speedup:.2f}x below the "
        f"{MIN_FLEET_DRAIN_SPEEDUP}x gate (solo {solo_s:.3f}s, "
        f"two-process {fleet_s:.3f}s)"
    )
