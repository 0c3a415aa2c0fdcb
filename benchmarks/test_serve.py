"""Release-service throughput under concurrent multi-tenant load.

A real :class:`~repro.serve.ReleaseService` on an ephemeral port serves
a warm ``national-1m`` economy while 16 threaded clients issue 1000+
requests over its actual socket path — a small set of distinct
releases, then sustained duplicate traffic.  The run reports request
latency quantiles and throughput, and enforces the two properties the
service exists for:

* a duplicate replay is served from the content-addressed store at
  least ``MIN_REPLAY_SPEEDUP``x faster than its first compute, and
* duplicate traffic costs **zero** additional privacy budget — the
  ledger after the hammering equals the ledger after the first pass
  entry-for-entry.

Timings land in ``benchmarks/out/BENCH_serve.json`` (companion of
``BENCH_trials.json`` / ``BENCH_snapshot.json`` / ``BENCH_grid.json``)
so successive changes can diff serving performance.
"""

from __future__ import annotations

import statistics
import threading
import time

from benchmarks.conftest import record_bench, write_report
from repro.api import ReleaseRequest
from repro.engine.store import ResultStore
from repro.serve import (
    ReleaseCache,
    ReleaseService,
    ServeClient,
    SessionPool,
    TenantPolicy,
    TenantRegistry,
)
from repro.util import format_table
from tests.serve.conftest import ServiceRunner


SCENARIO = "national-1m"
N_CLIENTS = 16
REQUESTS_PER_CLIENT = 63  # 16 x 63 = 1008 total requests
UNIQUE_RELEASES = 16
N_TRIALS = 128  # a realistic released product averages many trials
REPLAY_ROUNDS = 3
MIN_REPLAY_SPEEDUP = 5.0


def _request(seed: int) -> ReleaseRequest:
    return ReleaseRequest(
        attrs=("place", "naics"),
        mechanism="smooth-laplace",
        alpha=0.1,
        epsilon=1.0,
        delta=0.05,
        seed=seed,
        n_trials=N_TRIALS,
    )


def _quantile_ms(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index] * 1000.0


def test_release_service_under_concurrent_load(out_dir, tmp_path):
    pool = SessionPool.from_scenarios([SCENARIO], n_trials=N_TRIALS)
    tenants = TenantRegistry(
        root=tmp_path / "ledgers", default_policy=TenantPolicy()
    )
    cache = ReleaseCache(ResultStore(tmp_path / "cache"))
    service = ReleaseService(pool, tenants, cache, port=0)
    runner = ServiceRunner(service).start()
    try:
        warm_start = time.perf_counter()
        with ServeClient(runner.url, timeout=600.0) as client:
            scenarios = client.scenarios()
            warm_s = time.perf_counter() - warm_start
            assert scenarios["scenarios"][0]["name"] == SCENARIO

            # Phase 1 — first compute of every distinct release, timed
            # one at a time so the replay comparison is clean.
            first_compute_s = []
            spent_after_first = None
            for index in range(UNIQUE_RELEASES):
                start = time.perf_counter()
                response = client.release("bench", _request(seed=index))
                first_compute_s.append(time.perf_counter() - start)
                assert response["charged"] is True
                spent_after_first = response["ledger"]["spent_epsilon"]

            # Phase 2 — sequential replays of the same releases, timed
            # under identical conditions as phase 1: this is the
            # like-for-like pair behind the speedup gate.
            sequential_replay_s = []
            for _ in range(REPLAY_ROUNDS):
                for index in range(UNIQUE_RELEASES):
                    start = time.perf_counter()
                    response = client.release("bench", _request(seed=index))
                    sequential_replay_s.append(time.perf_counter() - start)
                    assert response["cached"] is True

            # Phase 3 — the concurrent hammering: every request repeats
            # one of the already-paid releases, so all of it must be
            # served from the store with zero fresh budget.
            latencies_by_client: list[list[float]] = [
                [] for _ in range(N_CLIENTS)
            ]
            failures: list[Exception] = []
            gate = threading.Barrier(N_CLIENTS + 1)

            def hammer(slot: int) -> None:
                try:
                    with ServeClient(runner.url, timeout=600.0) as mine:
                        gate.wait()
                        for turn in range(REQUESTS_PER_CLIENT):
                            seed = (slot + turn) % UNIQUE_RELEASES
                            start = time.perf_counter()
                            reply = mine.release("bench", _request(seed=seed))
                            latencies_by_client[slot].append(
                                time.perf_counter() - start
                            )
                            assert reply["cached"] is True
                            assert reply["charged"] is False
                except Exception as error:  # noqa: BLE001
                    failures.append(error)

            threads = [
                threading.Thread(target=hammer, args=(slot,))
                for slot in range(N_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            gate.wait()
            wall_start = time.perf_counter()
            for thread in threads:
                thread.join()
            wall_s = time.perf_counter() - wall_start
            assert failures == [], failures[:3]

            ledger = client.ledger("bench")
            metrics = client.metrics()
    finally:
        runner.stop()

    latencies = [s for bucket in latencies_by_client for s in bucket]
    n_requests = len(latencies)
    assert n_requests == N_CLIENTS * REQUESTS_PER_CLIENT >= 1000

    # Zero additional budget: the hammering changed nothing.
    assert ledger["n_entries"] == UNIQUE_RELEASES
    assert ledger["spent_epsilon"] == spent_after_first
    assert metrics["releases"]["deduped"] >= n_requests
    assert metrics["releases"]["computed"] == UNIQUE_RELEASES

    first_s = statistics.median(first_compute_s)
    replay_s = statistics.median(sequential_replay_s)
    speedup = first_s / replay_s
    throughput = n_requests / wall_s
    p50, p95, p99 = (_quantile_ms(latencies, q) for q in (0.50, 0.95, 0.99))

    rows = [
        ["warm session", f"{warm_s * 1000:.1f} ms", "build + first open"],
        ["first compute (median)", f"{first_s * 1000:.1f} ms",
         f"{UNIQUE_RELEASES} distinct releases, {N_TRIALS} trials each"],
        ["replay (median)", f"{replay_s * 1000:.2f} ms",
         f"{speedup:.1f}x faster than compute"],
        ["replay p50 under load", f"{p50:.2f} ms",
         f"{N_CLIENTS} concurrent clients"],
        ["replay p95 under load", f"{p95:.2f} ms", ""],
        ["replay p99 under load", f"{p99:.2f} ms", ""],
        ["throughput", f"{throughput:,.0f} req/s",
         f"{N_CLIENTS} clients, {n_requests} requests in {wall_s:.2f}s"],
    ]
    report = format_table(
        headers=["measure", "value", "note"],
        rows=rows,
        title=f"release service @ {SCENARIO} (duplicate-heavy load)",
    )
    write_report(out_dir, "bench-serve", report)

    record_bench(
        "BENCH_serve.json",
        "serve",
        {
            "scenario": SCENARIO,
            "n_clients": N_CLIENTS,
            "n_requests": n_requests,
            "unique_releases": UNIQUE_RELEASES,
            "n_trials": N_TRIALS,
            "warm_s": warm_s,
            "first_compute_median_s": first_s,
            "replay_median_s": replay_s,
            "replay_p50_ms": p50,
            "replay_p95_ms": p95,
            "replay_p99_ms": p99,
            "throughput_rps": throughput,
            "replay_speedup": speedup,
            "min_replay_speedup_gate": MIN_REPLAY_SPEEDUP,
            "spent_epsilon": ledger["spent_epsilon"],
            "ledger_entries": ledger["n_entries"],
        },
    )

    assert speedup >= MIN_REPLAY_SPEEDUP, (
        f"duplicate replay speedup {speedup:.1f}x below the "
        f"{MIN_REPLAY_SPEEDUP}x gate (compute {first_s * 1000:.1f} ms, "
        f"replay {replay_s * 1000:.2f} ms)"
    )
