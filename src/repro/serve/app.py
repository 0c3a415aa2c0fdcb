"""The DP release service: a long-lived, multi-tenant HTTP query server.

Stdlib-asyncio HTTP/1.1 front end (no framework, no new dependency)
over the library's release machinery:

- ``POST /v1/release`` — execute one declarative
  :class:`~repro.api.request.ReleaseRequest` for a tenant.  The flow is
  validate → dedupe lookup → budget preflight → compute → durable
  charge → cache → respond.  Overdrafts return **402** for
  ``raise``-policy tenants and **200 with a warning** for ``warn``-policy
  ones; an identical repeat request is served straight from the
  content-addressed store with zero compute and zero new debit.
- ``GET /v1/ledger/<tenant>`` — the tenant's full ledger state.
- ``GET /v1/scenarios`` — the hosted economies and their warm state.
- ``GET /healthz`` — liveness (and draining state).
- ``GET /metrics`` — request counts by route/status, a latency
  histogram with p50/p95/p99, release compute/dedupe counts, and the
  unified store telemetry (:class:`~repro.storage.StoreStats`).

**One pool hop per request**: the event loop only parses requests and
writes replies.  The rest of a release (tenant, validation, dedupe,
preflight, compute, result metrics, fsync'd charge, cache write) is one
synchronous call on the pool's bounded executor, so the loop never
blocks on NumPy or disk.  **Shutdown is graceful**: SIGINT/SIGTERM stop
the listener, in-flight requests finish (journals are fsync'd per entry,
so there is nothing else to flush), and the process exits 0.  Binding
``port=0`` picks an ephemeral port which is reported on stdout — the
hook the tests and the load generator use.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import signal
import threading
import time

from repro.api.request import ReleaseRequest
from repro.dp.composition import PrivacyBudgetExceeded
from repro.serve.dedupe import ReleaseCache, release_key
from repro.serve.pool import SessionPool
from repro.serve.tenants import TenantAccount, TenantRegistry, UnknownTenant

__all__ = ["ReleaseService", "ServiceMetrics"]

_MAX_BODY_BYTES = 4 * 1024 * 1024
_MAX_HEADER_LINES = 100

# Latency histogram bucket upper bounds, in milliseconds.
_LATENCY_BUCKETS_MS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)


class _HTTPError(Exception):
    """An error response with a status and a JSON-safe message."""

    def __init__(self, status: int, message: str, **extra):
        super().__init__(message)
        self.status = status
        self.payload = {"error": message, **extra}


class ServiceMetrics:
    """Thread-safe request/latency/release counters for ``/metrics``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.time()
        self.by_route: dict[str, int] = {}
        self.by_status: dict[int, int] = {}
        self.releases_computed = 0
        self.releases_deduped = 0
        self.releases_denied = 0
        self._bucket_counts = [0] * (len(_LATENCY_BUCKETS_MS) + 1)
        self._latency_sum_ms = 0.0
        self._latency_count = 0

    def observe(self, route: str, status: int, seconds: float) -> None:
        ms = seconds * 1000.0
        with self._lock:
            self.by_route[route] = self.by_route.get(route, 0) + 1
            self.by_status[status] = self.by_status.get(status, 0) + 1
            self._bucket_counts[bisect.bisect_left(_LATENCY_BUCKETS_MS, ms)] += 1
            self._latency_sum_ms += ms
            self._latency_count += 1

    def release_outcome(self, outcome: str) -> None:
        with self._lock:
            if outcome == "computed":
                self.releases_computed += 1
            elif outcome == "deduped":
                self.releases_deduped += 1
            elif outcome == "denied":
                self.releases_denied += 1

    def _quantile_ms(self, q: float) -> float | None:
        """The bucket upper bound covering quantile ``q`` (histogram
        estimate: correct to bucket resolution, cheap at any volume)."""
        if self._latency_count == 0:
            return None
        rank = q * self._latency_count
        seen = 0
        for index, count in enumerate(self._bucket_counts):
            seen += count
            if seen >= rank:
                if index < len(_LATENCY_BUCKETS_MS):
                    return _LATENCY_BUCKETS_MS[index]
                return float("inf")
        return _LATENCY_BUCKETS_MS[-1]

    def snapshot(self) -> dict:
        with self._lock:
            buckets = {
                f"le_{bound:g}ms": count
                for bound, count in zip(
                    _LATENCY_BUCKETS_MS, self._bucket_counts
                )
            }
            buckets["le_inf"] = self._bucket_counts[-1]
            p99 = self._quantile_ms(0.99)
            return {
                "uptime_s": time.time() - self.started_at,
                "requests": {
                    "total": self._latency_count,
                    "by_route": dict(self.by_route),
                    "by_status": {
                        str(code): count
                        for code, count in sorted(self.by_status.items())
                    },
                },
                "releases": {
                    "computed": self.releases_computed,
                    "deduped": self.releases_deduped,
                    "denied": self.releases_denied,
                },
                "latency_ms": {
                    "count": self._latency_count,
                    "sum": self._latency_sum_ms,
                    "p50": self._quantile_ms(0.50),
                    "p95": self._quantile_ms(0.95),
                    "p99": None if p99 == float("inf") else p99,
                    "buckets": buckets,
                },
            }


class ReleaseService:
    """The asyncio HTTP server wiring pool + tenants + dedupe together."""

    DRAIN_TIMEOUT_S = 30.0

    def __init__(
        self,
        pool: SessionPool,
        tenants: TenantRegistry,
        cache: ReleaseCache | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.pool = pool
        self.tenants = tenants
        self.cache = cache if cache is not None else ReleaseCache(None)
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self.metrics = ServiceMetrics()
        self._server: asyncio.AbstractServer | None = None
        self._stopping = False
        self._in_flight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._connections: set[asyncio.Task] = set()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "ReleaseService":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight requests, release resources.

        Journals need no flush — every charge was fsync'd before its
        response went out — so draining the request counter *is* the
        durability barrier.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.DRAIN_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            pass
        # In-flight work is done (or timed out); what remains are idle
        # keep-alive connections parked on readline — hang up on them.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await asyncio.get_running_loop().run_in_executor(None, self.pool.close)

    async def run_until_signalled(self, *, announce=print) -> None:
        """Serve until SIGINT/SIGTERM, then drain and return (exit 0).

        ``announce`` gets the one-line ``listening on ...`` report —
        stdout by default, which is how tests and the load generator
        discover an ephemeral ``--port 0`` binding.
        """
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                signal.signal(signum, lambda *_: stop.set())
        await self.start()
        announce(
            f"release service listening on {self.url} "
            f"(scenarios: {', '.join(self.pool.names)}; "
            f"default: {self.pool.default})",
        )
        await stop.wait()
        announce("release service draining...")
        await self.shutdown()
        announce("release service stopped cleanly")

    # -- HTTP plumbing --------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._connections.add(asyncio.current_task())
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, body, keep_alive = request
                if self._stopping:
                    await self._write_response(
                        writer, 503, {"error": "server is draining"},
                        keep_alive=False,
                    )
                    break
                self._in_flight += 1
                self._idle.clear()
                started = time.perf_counter()
                try:
                    status, payload = await self._dispatch(method, path, body)
                finally:
                    self._in_flight -= 1
                    if self._in_flight == 0:
                        self._idle.set()
                self.metrics.observe(
                    self._route_of(method, path),
                    status,
                    time.perf_counter() - started,
                )
                await self._write_response(
                    writer, status, payload, keep_alive=keep_alive
                )
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
            ConnectionError,
            asyncio.LimitOverrunError,
        ):
            pass
        finally:
            self._connections.discard(asyncio.current_task())
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_request(self, reader):
        """Parse one HTTP/1.1 request; None on a cleanly closed socket."""
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise ConnectionError("malformed request line") from None
        headers = {}
        for _ in range(_MAX_HEADER_LINES):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ConnectionError("too many header lines")
        length = int(headers.get("content-length") or 0)
        if length > _MAX_BODY_BYTES:
            raise ConnectionError("request body too large")
        body = await reader.readexactly(length) if length else b""
        keep_alive = headers.get("connection", "").lower() != "close"
        return method.upper(), target.split("?", 1)[0], body, keep_alive

    async def _write_response(
        self, writer, status: int, payload: dict, *, keep_alive: bool
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 402: "Payment Required",
                  404: "Not Found", 405: "Method Not Allowed",
                  500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    @staticmethod
    def _route_of(method: str, path: str) -> str:
        if path.startswith("/v1/ledger/"):
            return f"{method} /v1/ledger/<tenant>"
        return f"{method} {path}"

    # -- routing --------------------------------------------------------

    async def _dispatch(self, method: str, path: str, body: bytes):
        try:
            if path == "/healthz" and method == "GET":
                return 200, {"status": "ok", "draining": self._stopping}
            if path == "/metrics" and method == "GET":
                return 200, self._metrics_payload()
            if path == "/v1/scenarios" and method == "GET":
                return 200, {
                    "scenarios": self.pool.describe(),
                    "default": self.pool.default,
                }
            if path.startswith("/v1/ledger/") and method == "GET":
                return await self._handle_ledger(path[len("/v1/ledger/"):])
            if path == "/v1/release" and method == "POST":
                return await self._handle_release(body)
            if path in ("/healthz", "/metrics", "/v1/scenarios", "/v1/release"):
                return 405, {"error": f"method {method} not allowed on {path}"}
            return 404, {"error": f"no route for {method} {path}"}
        except _HTTPError as error:
            if error.status == 402:
                self.metrics.release_outcome("denied")
            return error.status, error.payload
        except Exception as error:  # a bug must not kill the connection loop
            return 500, {"error": f"internal error: {error!r}"}

    def _metrics_payload(self) -> dict:
        payload = self.metrics.snapshot()
        stores = {}
        if self.cache.enabled:
            stores["results"] = self.cache.stats()
        snapshot_store = self.pool.snapshot_store
        if snapshot_store is not None:
            stores["snapshots"] = snapshot_store.statistics.as_dict()
        payload["stores"] = stores
        payload["tenants"] = {"materialized": len(self.tenants.accounts())}
        return payload

    def _account(self, name: str) -> TenantAccount:
        try:
            return self.tenants.account(name)
        except UnknownTenant as error:
            raise _HTTPError(404, str(error)) from None
        except ValueError as error:
            raise _HTTPError(400, str(error)) from None

    async def _handle_ledger(self, name: str):
        return 200, await self.pool.run(lambda: self._account(name).state())

    # -- the release flow ----------------------------------------------

    async def _handle_release(self, body: bytes):
        try:
            envelope = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise _HTTPError(400, "request body is not valid JSON") from None
        if not isinstance(envelope, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        unknown = sorted(set(envelope) - {"tenant", "scenario", "request"})
        if unknown:
            raise _HTTPError(
                400,
                f"unknown field(s) {unknown}; valid fields are "
                "['request', 'scenario', 'tenant']",
            )
        tenant_name = envelope.get("tenant")
        if not isinstance(tenant_name, str) or not tenant_name:
            raise _HTTPError(
                400, f"field 'tenant' must be a tenant name, got {tenant_name!r}"
            )
        scenario = envelope.get("scenario")
        if scenario is not None and not isinstance(scenario, str):
            raise _HTTPError(
                400, f"field 'scenario' must be a scenario name, got {scenario!r}"
            )
        try:
            request = ReleaseRequest.from_dict(envelope.get("request"))
        except ValueError as error:
            raise _HTTPError(400, str(error)) from None
        return await self.pool.run(self._release, tenant_name, scenario, request)

    def _release(self, tenant: str, scenario: str | None, request: ReleaseRequest):
        """The release flow after parsing, on one compute-pool thread."""
        account = self._account(tenant)
        try:
            session = self.pool.session(scenario)
        except ValueError as error:
            raise _HTTPError(404, str(error)) from None
        try:
            request.validate(
                schema=session.schema, worker_attrs=session.worker_attrs
            )
        except ValueError as error:
            raise _HTTPError(400, str(error)) from None

        key = release_key(session.snapshot_fingerprint, request)
        already_paid = account.has_paid(key)

        if already_paid:
            cached = self.cache.get(key)
            if cached is not None:
                self.metrics.release_outcome("deduped")
                return 200, {
                    "result": cached["result"],
                    "request_key": key,
                    "cached": True,
                    "charged": False,
                    "warning": None,
                    "ledger": account.summary(),
                }
            # Paid but evicted from the cache: recompute below, but the
            # tenant is never charged twice for one request key.
        else:
            epsilon, delta = session.spend_of(request)
            try:
                account.preflight(epsilon, delta, label=request.ledger_label)
            except PrivacyBudgetExceeded as error:
                raise _HTTPError(
                    402, str(error), ledger=account.summary()
                ) from None

        result, spend = session.execute(request)
        result_payload = result.to_dict()
        warning = None
        if not already_paid:
            try:
                # Journal fsync before the in-memory debit, both before
                # the cache write and the response: an acknowledged (or
                # cached) release is always a journaled one.
                warning = account.charge(spend, key)
            except PrivacyBudgetExceeded as error:
                # A concurrent debit for the same tenant won the race
                # between preflight and charge.
                raise _HTTPError(
                    402, str(error), ledger=account.summary()
                ) from None
        self.cache.put(key, result_payload, spend)
        self.metrics.release_outcome("computed")
        return 200, {
            "result": result_payload,
            "request_key": key,
            "cached": False,
            "charged": not already_paid,
            "warning": warning,
            "ledger": account.summary(),
        }
