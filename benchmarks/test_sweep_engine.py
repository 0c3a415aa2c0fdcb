"""EXP-B2 — Sweep-engine wall clock: executors and cache replay.

The figures are (mechanism × α × ε) grids of Monte Carlo points; PR 1
batched the *inner* trial loop, and the sweep engine parallelizes the
*outer* grid and caches computed points in the content-addressed result
store.  This suite records, on a paper-scale snapshot:

- serial vs thread-pool vs process-pool wall clock for one grid
  (bit-identical results, pinned here);
- cache-replay time for the same grid (a resumed sweep reads JSON
  payloads instead of drawing noise), with a ≥``MIN_REPLAY_SPEEDUP``×
  gate — the acceptance criterion that a second ``--resume`` run
  recomputes zero points is asserted via the store's hit counter.

Timings land in ``benchmarks/out/BENCH_grid.json`` (the sweep-engine
companion of ``BENCH_trials.json``) so successive changes can diff
them.
"""

import time

from benchmarks.conftest import record_bench, write_report
from repro.api.session import ReleaseSession
from repro.engine.plan import grid_plan, snapshot_fingerprint
from repro.engine.points import points_identical
from repro.engine.store import ResultStore
from repro.engine.sweep import run_plan
from repro.runtime import ProcessDriver, SerialDriver, ThreadDriver
from repro.scenarios import SnapshotStore
from repro.storage import FilesystemObjectStore, RemoteObjectBackend
from repro.util import format_table


MECHANISMS = ("log-laplace", "smooth-laplace", "smooth-gamma")
ALPHAS = (0.05, 0.2)
EPSILONS = (0.5, 1.0, 2.0)
N_TRIALS = 400
WORKERS = 2
MIN_REPLAY_SPEEDUP = 10.0

FLEET_N_TRIALS = 200
# A cross-machine replay pays remote downloads instead of Monte Carlo
# draws; it must still beat recomputing by a wide margin.
MIN_FLEET_REPLAY_SPEEDUP = 3.0


def _bench_plan(context):
    return grid_plan(
        "workload-1",
        "l1-ratio",
        MECHANISMS,
        ALPHAS,
        EPSILONS,
        fingerprint=snapshot_fingerprint(context.config),
        delta=0.05,
        n_trials=N_TRIALS,
        seed=context.config.seed,
        tag="bench-grid",
    )


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_sweep_engine_wall_clock(context, out_dir, tmp_path):
    plan = _bench_plan(context)
    # Warm the session's workload-statistics cache so the timings compare
    # grid execution, not one-off prologue work.
    serial_warm = run_plan(
        plan, context, executor=SerialDriver(), merge_spend=False
    )

    serial, serial_s = _timed(
        lambda: run_plan(
            plan, context, executor=SerialDriver(), merge_spend=False
        )
    )
    thread, thread_s = _timed(
        lambda: run_plan(
            plan,
            context,
            executor=ThreadDriver(workers=WORKERS),
            merge_spend=False,
        )
    )
    process, process_s = _timed(
        lambda: run_plan(
            plan,
            context,
            executor=ProcessDriver(workers=WORKERS),
            merge_spend=False,
        )
    )

    # Populate the store once, then time a pure cache replay.
    store_root = tmp_path / "cache"
    run_plan(
        plan,
        context,
        store=ResultStore(store_root),
        resume=True,
        merge_spend=False,
    )
    replay_store = ResultStore(store_root)
    replay, replay_s = _timed(
        lambda: run_plan(
            plan,
            context,
            store=replay_store,
            resume=True,
            merge_spend=False,
        )
    )

    for label, outcome in (
        ("warm", serial_warm),
        ("thread", thread),
        ("process", process),
        ("replay", replay),
    ):
        for a, b in zip(serial.points, outcome.points):
            assert points_identical(a, b), f"{label} diverged: {a} != {b}"

    # The acceptance criterion: a resumed sweep recomputes zero points.
    assert replay.computed == 0
    assert replay.cache_hits == len(plan)
    assert replay_store.hits == len(plan)

    replay_speedup = serial_s / replay_s
    rows = [
        ["serial", f"{serial_s * 1e3:.1f}", "1.0x"],
        [f"thread x{WORKERS}", f"{thread_s * 1e3:.1f}", f"{serial_s / thread_s:.1f}x"],
        [f"process x{WORKERS}", f"{process_s * 1e3:.1f}", f"{serial_s / process_s:.1f}x"],
        ["cache replay", f"{replay_s * 1e3:.1f}", f"{replay_speedup:.1f}x"],
    ]
    report = format_table(
        headers=["executor", "wall ms", "vs serial"],
        rows=rows,
        title=f"Sweep engine on a {len(plan)}-point Workload-1 grid "
        f"(n_trials={N_TRIALS}, {context.dataset.n_jobs} jobs)",
    )
    write_report(out_dir, "sweep-engine", report)

    record_bench(
        "BENCH_grid.json",
        "sweep_engine",
        {
            "points": len(plan),
            "n_trials": N_TRIALS,
            "workload": "workload-1",
            "workers": WORKERS,
            "serial_s": serial_s,
            "thread_s": thread_s,
            "process_s": process_s,
            "replay_s": replay_s,
            "replay_speedup": replay_speedup,
            "cache_hits": replay.cache_hits,
        },
    )

    assert replay_speedup >= MIN_REPLAY_SPEEDUP, (
        f"cache replay only {replay_speedup:.1f}x faster than serial "
        f"recompute (need >= {MIN_REPLAY_SPEEDUP}x)"
    )


def test_fleet_replay_wall_clock(bench_config, out_dir, tmp_path, monkeypatch):
    """Cross-machine sweep replay: two cache roots, one shared remote.

    Machine A computes a Workload-1 grid with both stores remote-backed
    (``file://`` bucket): the snapshot uploads once, every computed
    point writes through.  Machine B — fresh cache roots, generation
    hard-disabled via ``REPRO_FORBID_GENERATE`` — opens the snapshot
    and replays the whole grid from the remote with **zero
    recomputation**, and the replay must beat machine A's compute by
    ``MIN_FLEET_REPLAY_SPEEDUP``× even paying every download cold.
    """
    bucket = FilesystemObjectStore(tmp_path / "bucket")

    def machine(name):
        snapshots = SnapshotStore(
            backend=RemoteObjectBackend(
                bucket, tmp_path / name / "snapshots", prefix="snapshots"
            )
        )
        results = ResultStore(
            backend=RemoteObjectBackend(
                bucket, tmp_path / name / "results", prefix="results"
            )
        )
        return snapshots, results

    snapshots_a, results_a = machine("machine-a")
    session_a = ReleaseSession(bench_config, snapshot_store=snapshots_a)
    plan = grid_plan(
        "workload-1",
        "l1-ratio",
        MECHANISMS,
        ALPHAS,
        EPSILONS,
        fingerprint=session_a.snapshot_fingerprint,
        delta=0.05,
        n_trials=FLEET_N_TRIALS,
        seed=bench_config.seed,
        tag="bench-fleet",
    )
    first, compute_s = _timed(
        lambda: run_plan(
            plan, session_a, store=results_a, resume=True, merge_spend=False
        )
    )
    assert first.computed == len(plan)

    monkeypatch.setenv("REPRO_FORBID_GENERATE", "1")
    snapshots_b, results_b = machine("machine-b")
    session_b, open_s = _timed(
        lambda: ReleaseSession(bench_config, snapshot_store=snapshots_b)
    )
    second, replay_s = _timed(
        lambda: run_plan(
            plan, session_b, store=results_b, resume=True, merge_spend=False
        )
    )
    assert second.computed == 0
    assert second.cache_hits == len(plan)
    assert results_b.hits == len(plan)
    for a, b in zip(first.points, second.points):
        assert points_identical(a, b), f"fleet replay diverged: {a} != {b}"

    fleet_speedup = compute_s / replay_s
    rows = [
        ["machine A: compute + publish", f"{compute_s * 1e3:.1f}", "1.0x"],
        [
            "machine B: snapshot open",
            f"{open_s * 1e3:.1f}",
            "cold download, zero generation",
        ],
        [
            "machine B: grid replay",
            f"{replay_s * 1e3:.1f}",
            f"{fleet_speedup:.1f}x, zero recomputation",
        ],
    ]
    report = format_table(
        headers=["step", "wall ms", "vs compute"],
        rows=rows,
        title=(
            f"fleet replay of a {len(plan)}-point Workload-1 grid "
            f"(n_trials={FLEET_N_TRIALS}, shared file:// bucket)"
        ),
    )
    write_report(out_dir, "sweep-fleet-replay", report)

    record_bench(
        "BENCH_grid.json",
        "fleet_replay",
        {
            "points": len(plan),
            "n_trials": FLEET_N_TRIALS,
            "workload": "workload-1",
            "compute_s": compute_s,
            "snapshot_open_s": open_s,
            "replay_s": replay_s,
            "replay_speedup": fleet_speedup,
            "cache_hits": second.cache_hits,
            "min_replay_speedup_gate": MIN_FLEET_REPLAY_SPEEDUP,
        },
    )

    assert fleet_speedup >= MIN_FLEET_REPLAY_SPEEDUP, (
        f"cross-machine replay only {fleet_speedup:.1f}x faster than "
        f"compute (need >= {MIN_FLEET_REPLAY_SPEEDUP}x)"
    )
