"""EXP-B3 — Snapshot store wall clock: generate vs persist vs mmap-open.

The PR 4 data layer makes snapshots persistent, memory-mapped artifacts
(:mod:`repro.scenarios.store`).  This suite measures, at the largest
registered scenario (``national-1m``, a million-plus-job economy built
through the chunked generator):

- one-shot generation wall clock (what every run used to pay, and what
  every *process worker* used to pay again);
- build wall clock (``SnapshotStore.build``, the one writer: paid once
  per economy, ever);
- store-open wall clock (what runs and workers pay now), with a
  ≥``MIN_LOAD_SPEEDUP``× gate over regeneration — the acceptance
  criterion that opening a snapshot beats rebuilding it by a wide
  margin even for the fastest generator configs;
- **sharded build** wall clock (``SnapshotStore.build`` fanning the
  workforce chunks out to ``SHARD_WORKERS`` processes that write the
  store files directly) vs the same build run inline, with a
  byte-identity check of the two snapshot directories and a
  ≥``MIN_SHARDED_SPEEDUP``× gate — enforced only on machines with at
  least ``SHARD_WORKERS`` cores, since the speedup is a physical
  impossibility below that (the measurement is still taken and
  recorded).

Timings land in ``benchmarks/out/BENCH_snapshot.json`` (companion of
``BENCH_trials.json`` and ``BENCH_grid.json``) so successive changes
can diff them.
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.conftest import record_bench, write_report
from repro.data.generator import generate
from repro.scenarios import SnapshotStore, dataset_fingerprint, scenario_config
from repro.storage import FilesystemObjectStore, RemoteObjectBackend
from repro.util import format_table


SCENARIO = "national-1m"
MIN_LOAD_SPEEDUP = 5.0
LOAD_TRIALS = 3

SHARD_WORKERS = 4
MIN_SHARDED_SPEEDUP = 3.0

REMOTE_SCENARIO = "metro-heavy"
# A warm local cache must beat a cold-remote open by a wide margin even
# with the remote emulated on local disk (a real network only widens it).
MIN_WARM_OPEN_SPEEDUP = 2.0


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_snapshot_store_wall_clock(out_dir, tmp_path):
    config = scenario_config(SCENARIO)
    fingerprint = dataset_fingerprint(config)
    store = SnapshotStore(tmp_path / "snapshots")

    dataset, generate_s = _timed(lambda: generate(config))
    _, build_s = _timed(lambda: store.build(config))

    load_timings = []
    for _ in range(LOAD_TRIALS):
        loaded, load_s = _timed(lambda: store.load(fingerprint))
        assert loaded is not None
        load_timings.append(load_s)
    load_s = min(load_timings)
    assert loaded.n_jobs == dataset.n_jobs

    speedup = generate_s / load_s
    rows = [
        ["generate", f"{generate_s:.3f}", "per run / per worker, historically"],
        ["build", f"{build_s:.3f}", "once per economy"],
        ["mmap open", f"{load_s:.4f}", f"{speedup:.1f}x faster than generate"],
    ]
    report = format_table(
        headers=["step", "seconds", "note"],
        rows=rows,
        title=(
            f"snapshot store @ {SCENARIO} "
            f"({dataset.n_jobs:,} jobs, "
            f"{store.size_bytes(fingerprint):,} bytes)"
        ),
    )
    write_report(out_dir, "bench-snapshot-store", report)

    record_bench(
        "BENCH_snapshot.json",
        "store_load",
        {
            "scenario": SCENARIO,
            "fingerprint": fingerprint,
            "n_jobs": int(dataset.n_jobs),
            "n_establishments": int(dataset.n_establishments),
            "size_bytes": store.size_bytes(fingerprint),
            "generate_s": generate_s,
            "build_s": build_s,
            "load_s": load_s,
            "load_speedup": speedup,
            "min_load_speedup_gate": MIN_LOAD_SPEEDUP,
        },
    )

    assert speedup >= MIN_LOAD_SPEEDUP, (
        f"store-load speedup {speedup:.1f}x below the "
        f"{MIN_LOAD_SPEEDUP}x gate (generate {generate_s:.3f}s, "
        f"load {load_s:.3f}s)"
    )


def test_remote_open_wall_clock(out_dir, tmp_path):
    """Cold-remote download-and-open vs warm-local-cache mmap open.

    Machine A builds ``metro-heavy`` into an emulated object store
    (``file://`` bucket); machine B — a different cache root — opens it
    cold (every member object downloads into B's cache) and then warm
    (pure local mmap).  The gate asserts the cache is doing its job:
    the warm open must beat the cold one by ``MIN_WARM_OPEN_SPEEDUP``×
    even with the "network" being local disk.
    """
    config = scenario_config(REMOTE_SCENARIO)
    fingerprint = dataset_fingerprint(config)
    bucket = FilesystemObjectStore(tmp_path / "bucket")
    builder = SnapshotStore(
        backend=RemoteObjectBackend(
            bucket, tmp_path / "cache-a", prefix="snapshots"
        )
    )
    dataset, generate_s = _timed(lambda: generate(config))
    _, publish_s = _timed(lambda: builder.build(config))

    reader = SnapshotStore(
        backend=RemoteObjectBackend(
            bucket, tmp_path / "cache-b", prefix="snapshots"
        )
    )
    cold, cold_open_s = _timed(lambda: reader.load(fingerprint))
    assert cold is not None and cold.n_jobs == dataset.n_jobs
    bytes_downloaded = reader.statistics.bytes_read

    warm_timings = []
    for _ in range(LOAD_TRIALS):
        warm, warm_s = _timed(lambda: reader.load(fingerprint))
        assert warm is not None
        warm_timings.append(warm_s)
    warm_open_s = min(warm_timings)

    warm_speedup = cold_open_s / warm_open_s
    rows = [
        ["generate", f"{generate_s:.3f}", "what machine B never pays"],
        ["publish (build + upload)", f"{publish_s:.3f}", "once, machine A"],
        [
            "cold-remote open",
            f"{cold_open_s:.3f}",
            f"{bytes_downloaded:,} bytes downloaded",
        ],
        [
            "warm-cache open",
            f"{warm_open_s:.4f}",
            f"{warm_speedup:.1f}x faster than cold",
        ],
    ]
    report = format_table(
        headers=["step", "seconds", "note"],
        rows=rows,
        title=(
            f"remote snapshot store @ {REMOTE_SCENARIO} "
            f"({dataset.n_jobs:,} jobs, file:// emulated bucket)"
        ),
    )
    write_report(out_dir, "bench-snapshot-remote", report)

    record_bench(
        "BENCH_snapshot.json",
        "remote_open",
        {
            "scenario": REMOTE_SCENARIO,
            "fingerprint": fingerprint,
            "publish_s": publish_s,
            "cold_open_s": cold_open_s,
            "cold_bytes_read": int(bytes_downloaded),
            "warm_open_s": warm_open_s,
            "warm_open_speedup": warm_speedup,
            "min_warm_open_speedup_gate": MIN_WARM_OPEN_SPEEDUP,
        },
    )

    assert warm_speedup >= MIN_WARM_OPEN_SPEEDUP, (
        f"warm-cache open only {warm_speedup:.1f}x faster than "
        f"cold-remote (cold {cold_open_s:.3f}s, warm {warm_open_s:.4f}s; "
        f"need >= {MIN_WARM_OPEN_SPEEDUP}x)"
    )


def _assert_snapshot_dirs_identical(a: Path, b: Path) -> int:
    """Byte-compare two snapshot dirs (meta modulo created_at); file count."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    assert names_a == names_b, (names_a, names_b)
    for name in names_a:
        bytes_a = (a / name).read_bytes()
        bytes_b = (b / name).read_bytes()
        if name == "meta.json":
            meta_a, meta_b = json.loads(bytes_a), json.loads(bytes_b)
            meta_a.pop("created_at")
            meta_b.pop("created_at")
            assert meta_a == meta_b, "meta payload differs"
        else:
            assert bytes_a == bytes_b, f"{name} differs"
    return len(names_a)


def test_sharded_build_wall_clock(out_dir, tmp_path):
    """Sharded store-build vs the same build inline, at national scale.

    The sharded config is the ``national-1m`` economy scaled to ~3.7M
    realized jobs and chunked at 150k (~25 chunks), so
    ``SHARD_WORKERS`` round-robin shards stay balanced and the serial
    prologue (geography + establishment planning) plus pool start-up
    amortize to a few percent of the build.  Chunks are independently
    seeded, so both builds write the *same* snapshot and the
    directories must match byte for byte.
    """
    config = replace(
        scenario_config(SCENARIO), target_jobs=3_000_000, chunk_jobs=150_000
    )
    fingerprint = dataset_fingerprint(config)

    sequential = SnapshotStore(tmp_path / "sequential")
    _, sequential_s = _timed(lambda: sequential.build(config, workers=1))
    n_jobs = int(sequential.info(fingerprint)["n_jobs"])

    sharded = SnapshotStore(tmp_path / "sharded")
    built, sharded_s = _timed(
        lambda: sharded.build(config, workers=SHARD_WORKERS)
    )
    n_files = _assert_snapshot_dirs_identical(
        sequential.path_for(fingerprint), built
    )

    speedup = sequential_s / sharded_s
    cpus = os.cpu_count() or 1
    rows = [
        ["build (x1)", f"{sequential_s:.3f}", "the inline build"],
        [
            f"build (x{SHARD_WORKERS})",
            f"{sharded_s:.3f}",
            f"{speedup:.2f}x, byte-identical across {n_files} files",
        ],
    ]
    report = format_table(
        headers=["path", "seconds", "note"],
        rows=rows,
        title=(
            f"sharded snapshot build @ {SCENARIO} "
            f"({n_jobs:,} jobs, {cpus} core(s))"
        ),
    )
    write_report(out_dir, "bench-snapshot-sharded", report)

    record_bench(
        "BENCH_snapshot.json",
        "sharded_build",
        {
            "fingerprint": fingerprint,
            "n_jobs": n_jobs,
            "chunk_jobs": config.chunk_jobs,
            "sequential_build_s": sequential_s,
            "sharded_build_s": sharded_s,
            "speedup": speedup,
            "shard_workers": SHARD_WORKERS,
            "cpu_count": cpus,
            "min_sharded_speedup_gate": MIN_SHARDED_SPEEDUP,
        },
    )

    if cpus < SHARD_WORKERS:
        pytest.skip(
            f"{cpus} core(s) < {SHARD_WORKERS} workers: the "
            f"{MIN_SHARDED_SPEEDUP}x gate needs real parallelism "
            f"(measured {speedup:.2f}x, recorded in BENCH_snapshot.json)"
        )
    assert speedup >= MIN_SHARDED_SPEEDUP, (
        f"sharded build speedup {speedup:.2f}x below the "
        f"{MIN_SHARDED_SPEEDUP}x gate (sequential {sequential_s:.3f}s, "
        f"sharded {sharded_s:.3f}s with {SHARD_WORKERS} workers)"
    )
