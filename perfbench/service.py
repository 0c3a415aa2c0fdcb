"""The ``serve`` workload: the release service under a closed loop.

Set-up builds the ``national-1m`` snapshot (``repro scenarios build``)
and starts ``repro serve --scenario national-1m --warm --port 0`` on
fresh stores; set-up time runs from the build's spawn to the server's
"listening" line.  Two blocking :class:`~repro.serve.ServeClient`
clients — one tenant each, one thread each, never more threads than the
host has cores — then run rounds until the time is up:

- **compute**: each client sends ``COMPUTE_PER_CLIENT`` distinct releases
  (a few (attrs, mechanism) pairs with fresh seeds); every one computes,
  fsyncs the tenant journal and writes the dedupe cache;
- **replay**: each client sends ``REPLAY_PER_CLIENT`` duplicates of the
  releases it paid for in that round; none computes or spends.

Output checks: every compute reply has ``charged`` true and ``cached``
false and every replay reply the reverse; each replay payload equals its
compute payload; each tenant's ledger after replay equals its ledger
after compute, entry for entry; the server exits 0 on SIGTERM.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from common import (
    HostSpeed,
    Server,
    Tally,
    across,
    child_argv,
    derived_seed,
    median,
    quantile,
    remove,
    repro_argv,
    run_child,
    scratch_dir,
)
from tracer import layer_of, load_spans, now, self_times

SCENARIO = "national-1m"
CLIENTS = 2
# Per round: 2 x 50 computes and 2 x 250 replays leave at least ten
# samples beyond each round's p90.
COMPUTE_PER_CLIENT = 50
REPLAY_PER_CLIENT = 250
N_TRIALS = 32
SETUP_REPEATS = 3
MIN_ROUNDS = 2
TRACE_ROUNDS = 2
PAIRS = (
    (("place", "naics"), "smooth-laplace"),
    (("place", "naics", "ownership"), "log-laplace"),
    (("place", "ownership"), "smooth-gamma"),
    (("place", "sex", "education"), "log-laplace"),
)
PHASES = ("compute", "replay")
LAYERS = ("serve", "runtime", "api", "engine", "storage")
READY = "release service listening on "


def release_request(index: int, seed: int) -> dict:
    attrs, mechanism = PAIRS[index % len(PAIRS)]
    return {
        "attrs": list(attrs),
        "mechanism": mechanism,
        "alpha": 0.1,
        "epsilon": 1.0,
        "delta": 0.05,
        "n_trials": N_TRIALS,
        "seed": seed,
    }


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class Load:
    """Closed-loop clients against one running server."""

    def __init__(self, url: str, seed: int, tally: Tally):
        from repro.serve import ServeClient

        self.tally = tally
        self.tenants = [f"bench-{seed}-c{slot}" for slot in range(CLIENTS)]
        self.clients = [ServeClient(url, timeout=120.0) for _ in range(CLIENTS)]
        self.control = ServeClient(url, timeout=120.0)
        self.pool = ThreadPoolExecutor(max_workers=CLIENTS)
        self.next_seed = derived_seed(seed, "serve-requests")
        self.next_index = 0

    def close(self) -> None:
        self.pool.shutdown(wait=True)
        for client in (*self.clients, self.control):
            client.close()

    def _fresh(self, count: int) -> list[dict]:
        """``count`` distinct requests (called from the driving thread only)."""
        requests = [
            release_request(self.next_index + k, self.next_seed + k)
            for k in range(count)
        ]
        self.next_index += count
        self.next_seed += count
        return requests

    def _send(self, slot: int, requests, expect_cached: bool, expected=None):
        """One client's sequential requests; (latencies, digests, failures)."""
        from repro.serve import ServeError

        client, tenant = self.clients[slot], self.tenants[slot]
        latencies, digests, problems = [], [], []
        for index, request in enumerate(requests):
            started = now()
            try:
                reply = client.release(tenant, request)
            except (ServeError, OSError) as error:
                latencies.append(now() - started)
                digests.append(None)
                problems.append(f"{tenant}: {error}")
                continue
            latencies.append(now() - started)
            result = digest(reply.get("result"))
            digests.append(result)
            if (reply.get("cached"), reply.get("charged")) != (expect_cached, not expect_cached):
                problems.append(
                    f"{tenant}: cached={reply.get('cached')} charged={reply.get('charged')}"
                )
            elif expected is not None and result != expected[index]:
                problems.append(f"{tenant}: replay payload differs from compute")
        return latencies, digests, problems

    def _phase(self, per_client, expect_cached, expected=None):
        started = now()
        futures = [
            self.pool.submit(
                self._send, slot, per_client[slot], expect_cached,
                None if expected is None else expected[slot],
            )
            for slot in range(CLIENTS)
        ]
        results = [future.result() for future in futures]
        wall = now() - started
        latencies = []
        for slot_latencies, _, problems in results:
            latencies += slot_latencies
            self.tally.ops(len(slot_latencies), problems)
        return wall, latencies, [r[1] for r in results]

    def _observed(self, windows, phase, *args):
        if windows is None:
            return self._phase(*args)
        window = {"phase": phase, "before": self.control.metrics(), "start": now()}
        outcome = self._phase(*args)
        window["end"] = now()
        window["after"] = self.control.metrics()
        windows.append(window)
        return outcome

    def ledgers(self) -> list:
        return [self.control.ledger(tenant) for tenant in self.tenants]

    def warm_up(self) -> None:
        """One release per (attrs, mechanism) pair, untimed: the lazy
        per-marginal statistics build once per server, not per request."""
        from repro.serve import ServeError

        requests = self._fresh(len(PAIRS))
        for request in requests:
            try:
                reply = self.control.release(f"{self.tenants[0]}-warm", request)
                self.tally.op(reply.get("charged") is True, "warm-up release not charged")
            except (ServeError, OSError) as error:
                self.tally.op(False, f"warm-up release failed: {error}")

    def round(self, windows: list | None = None) -> dict:
        """One compute phase then one replay phase; checks in the tally.

        With ``windows``, each phase appends its time window and the
        service's /metrics snapshots from just before and after it.
        """
        fresh = [self._fresh(COMPUTE_PER_CLIENT) for _ in range(CLIENTS)]
        compute_wall, compute_lat, digests = self._observed(
            windows, "compute", fresh, False
        )
        after_compute = self.ledgers()
        replay = [
            [fresh[slot][k % COMPUTE_PER_CLIENT] for k in range(REPLAY_PER_CLIENT)]
            for slot in range(CLIENTS)
        ]
        expected = [
            [digests[slot][k % COMPUTE_PER_CLIENT] for k in range(REPLAY_PER_CLIENT)]
            for slot in range(CLIENTS)
        ]
        replay_wall, replay_lat, _ = self._observed(
            windows, "replay", replay, True, expected
        )
        after_replay = self.ledgers()
        for tenant, before, after in zip(self.tenants, after_compute, after_replay):
            self.tally.op(
                before == after, f"{tenant}: ledger changed during replay"
            )
        return {
            "compute_wall": compute_wall,
            "compute": compute_lat,
            "replay_wall": replay_wall,
            "replay": replay_lat,
        }


def _setup(work: Path, k: int, tally: Tally, *, trace: Path | None = None):
    """Build the snapshot, start a warm server; (seconds, server, build trace)."""
    snapshots = work / f"snapshots-{k}"
    args = ("scenarios", "build", SCENARIO, "--snapshot-dir", snapshots)
    build_trace = None if trace is None else work / f"trace-build-{k}.json"
    argv = (
        repro_argv(*args)
        if build_trace is None
        else child_argv({"trace": build_trace}, *args)
    )
    build = run_child(argv)
    tally.op(build.returncode == 0, f"snapshot build failed: {build.output[-300:]}")
    serve_args = (
        "--scenario", SCENARIO, "--warm", "--port", "0",
        "--snapshot-dir", snapshots,
        "--cache-dir", work / f"cache-{k}",
        "--ledger-dir", work / f"ledgers-{k}",
    )
    if trace is None:
        server = Server(repro_argv("serve", *serve_args), READY)
    else:
        server = Server(child_argv({"trace": trace}, "serve", *serve_args), READY)
    tally.op(server.ready, f"server never listened: {''.join(server.lines)[-300:]}")
    return build.wall_s + server.ready_s, server, build_trace


def _url(server: Server) -> str:
    return server.ready_line.split(READY, 1)[1].split()[0]


def _stop(server: Server, tally: Tally) -> None:
    code = server.stop()
    tally.op(code == 0, f"server exited {code}: {''.join(server.lines)[-300:]}")


def timed(workload: str, seed: int, seconds: float, tally: Tally, host: HostSpeed) -> tuple[dict, dict]:
    """End-to-end metrics, as measured, plus sample counts; ``host`` is
    sampled between set-ups and between rounds."""
    work = scratch_dir(workload)
    servers = []
    rounds = []
    try:
        setups = []
        for k in range(SETUP_REPEATS):
            host.maybe_sample()
            seconds_k, server, _ = _setup(work, k, tally)
            servers.append(server)
            setups.append(seconds_k)
            if k < SETUP_REPEATS - 1:
                _stop(server, tally)
        server = servers[-1]
        if server.ready:
            load = Load(_url(server), seed, tally)
            try:
                load.warm_up()
                started = now()
                while len(rounds) < MIN_ROUNDS or now() - started < seconds:
                    host.maybe_sample()
                    rounds.append(load.round())
            finally:
                load.close()
    finally:
        for server in servers:
            if server.returncode is None:
                _stop(server, tally)
        remove(work)
    if not rounds:
        raise RuntimeError("the release service never served a round")
    # Each metric is per round, then summarised over the rounds by
    # common.across.  The replay tail is p90, not p99: with the host's
    # speed dipping for seconds at a time, p99 doubled between runs.
    per_round = [
        {
            "compute_wall_s": r["compute_wall"],
            "replay_wall_s": r["replay_wall"],
            "compute_p50_ms": 1000 * median(r["compute"]),
            "compute_p90_ms": 1000 * quantile(r["compute"], 0.9),
            "compute_rps": len(r["compute"]) / r["compute_wall"],
            "replay_p50_ms": 1000 * median(r["replay"]),
            "replay_p90_ms": 1000 * quantile(r["replay"], 0.9),
            "replay_rps": len(r["replay"]) / r["replay_wall"],
        }
        for r in rounds
    ]
    metrics = {"setup_s": (median(setups), "s"), **across(per_round)}
    metrics["peak_rss_mb"] = (servers[-1].rss_mb, "MB")
    samples = {
        "setup_runs": len(setups),
        "rounds": len(rounds),
        "compute_requests": sum(len(r["compute"]) for r in rounds),
        "replay_requests": sum(len(r["replay"]) for r in rounds),
        "clients": CLIENTS,
        "trials_per_request": N_TRIALS,
    }
    return metrics, samples


# -- traced run -------------------------------------------------------------


def _serve_once(work, label, seed, tally, trace):
    """One server (traced or not): warm-up and ``TRACE_ROUNDS`` rounds.

    Returns the stopped server, its set-up children, the rounds, and one
    window per phase with the /metrics snapshots taken around it.
    """
    _, server, build_trace = _setup(work, label, tally, trace=trace)
    rounds, windows = [], []
    try:
        if server.ready:
            load = Load(_url(server), seed, tally)
            try:
                load.warm_up()
                for _ in range(TRACE_ROUNDS):
                    rounds.append(load.round(windows))
            finally:
                load.close()
    finally:
        _stop(server, tally)
    return {"server": server, "build_trace": build_trace, "rounds": rounds, "windows": windows}


def traced(workload: str, seed: int, tally: Tally, trace_log: dict) -> dict:
    """The per-layer metrics of the serve workload, ``serve.<metric>``."""
    work = scratch_dir(f"{workload}-trace")
    try:
        plain = _serve_once(work, 0, seed, tally, None)
        run = _serve_once(work, 1, seed, tally, work / "trace-serve.json")
        meta, spans = load_spans(work / "trace-serve.json")
        _, build_spans = load_spans(run["build_trace"])
    finally:
        remove(work)
    trace_log[workload] = {
        "build": build_spans,
        "server": spans,
        "windows": [
            {key: window[key] for key in ("phase", "start", "end")}
            for window in run["windows"]
        ],
    }
    own = self_times(spans)

    def total(span_list, name):
        return sum(s["end"] - s["start"] for s in span_list if s["name"] == name)

    metrics = {
        "cli.interp_s": (meta["started"] - run["server"].spawned, "s"),
        "cli.import_s": (total(spans, "cli.import"), "s"),
        "data.build_s": (total(build_spans, "data.build"), "s"),
        "scenarios.open_s": (total(spans, "scenarios.open"), "s"),
        "api.session_init_s": (
            sum(own[s["id"]] for s in spans if s["name"] == "api.session_init"),
            "s",
        ),
    }
    by_request: dict = {}
    for span in spans:
        if span["request"] is not None:
            by_request.setdefault(span["request"], []).append(span)
    handlers = [
        s for s in spans
        if s["name"] == "serve.handler"
        and s.get("attrs", {}).get("path") == "/v1/release"
    ]
    for phase in PHASES:
        windows = [w for w in run["windows"] if w["phase"] == phase]
        requests = [
            h["request"] for h in handlers
            if any(w["start"] <= h["start"] <= w["end"] for w in windows)
        ]
        phase_spans = [s for r in requests for s in by_request.get(r, ())]
        count = max(len(requests), 1)

        def each_ms(name):
            return 1000 * median(
                s["end"] - s["start"] for s in phase_spans if s["name"] == name
            ) if any(s["name"] == name for s in phase_spans) else 0.0

        before = {key: sum(w["before"]["releases"][key] for w in windows) for key in ("computed", "deduped")}
        after = {key: sum(w["after"]["releases"][key] for w in windows) for key in ("computed", "deduped")}
        computed = after["computed"] - before["computed"]
        deduped = after["deduped"] - before["deduped"]
        handler_p50 = _histogram_p50_windows(windows)
        client_p50 = 1000 * median(x for r in run["rounds"] for x in r[phase])
        plain_p50 = 1000 * median(x for r in plain["rounds"] for x in r[phase])
        layers = {layer: 0.0 for layer in LAYERS}
        for span in phase_spans:
            layer = layer_of(span["name"])
            layers[layer] = layers.get(layer, 0.0) + own[span["id"]]
        phase_metrics = {
            "runtime.pool_wait_ms": (each_ms("runtime.pool_wait"), "ms"),
            "runtime.pool_hops": (
                sum(s["name"] == "runtime.pool_wait" for s in phase_spans) / count,
                "count",
            ),
            "serve.tenants.account_ms": (each_ms("serve.tenants.account"), "ms"),
            "api.validate_ms": (each_ms("api.validate"), "ms"),
            "serve.handler_p50_ms": (handler_p50, "ms"),
            "serve.transport_ms": (client_p50 - handler_p50, "ms"),
            "serve.computed": (computed, "count"),
            "serve.deduped": (deduped, "count"),
            "trace.overhead_ms": (client_p50 - plain_p50, "ms"),
        }
        if phase == "compute":
            draw = [
                sum(s["end"] - s["start"] for s in by_request.get(r, ()) if s["name"] == "engine.draw")
                for r in requests
            ]
            phase_metrics.update({
                "api.execute_ms": (each_ms("api.execute"), "ms"),
                "api.result_ms": (each_ms("api.result"), "ms"),
                "engine.draw_ms": (1000 * median(draw) if draw else 0.0, "ms"),
                "serve.tenants.charge_ms": (each_ms("serve.tenants.charge"), "ms"),
                "serve.dedupe.put_ms": (each_ms("serve.dedupe.put"), "ms"),
                "serve.journal_bytes": (
                    sum(s.get("attrs", {}).get("bytes", 0) for s in phase_spans if s["name"] == "storage.append"),
                    "bytes",
                ),
            })
        else:
            phase_metrics.update({
                "serve.dedupe.get_ms": (each_ms("serve.dedupe.get"), "ms"),
                "serve.dedupe_hit_ratio": (
                    deduped / (computed + deduped) if computed + deduped else 0.0,
                    "ratio",
                ),
            })
        for layer in LAYERS:
            if phase == "replay" and layer == "engine":
                continue  # a deduped request draws no noise
            phase_metrics[f"layer.{layer}_ms"] = (1000 * layers[layer] / count, "ms")
        for name, value in phase_metrics.items():
            metrics[f"{name}.{phase}"] = value
    return {f"{workload}.{name}": value for name, value in metrics.items()}


def _histogram_p50_windows(windows) -> float:
    """Interpolated p50 (ms) of the /metrics histogram over the windows."""
    counts: dict[str, int] = {}
    for window in windows:
        for key, count in window["after"]["latency_ms"]["buckets"].items():
            counts[key] = counts.get(key, 0) + count - window["before"]["latency_ms"]["buckets"].get(key, 0)
    buckets = sorted(
        (float("inf") if key == "le_inf" else float(key[3:-2]), count)
        for key, count in counts.items()
    )
    total = sum(count for _, count in buckets)
    seen, lower = 0, 0.0
    for upper, count in buckets:
        if count and seen + count >= total / 2:
            if upper == float("inf"):
                return lower
            return lower + (upper - lower) * (total / 2 - seen) / count
        seen += count
        lower = upper
    return lower
