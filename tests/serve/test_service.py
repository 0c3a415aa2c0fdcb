"""HTTP behavior of the release service, over a real socket.

One module-shared server (see ``conftest.served``) hosts a tiny warm
economy with three tenant policies; each test drives it through the
blocking :class:`~repro.serve.ServeClient` exactly as an external
caller would.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import ReleaseRequest
from repro.serve import ServeClient, ServeError


def request(seed: int = 7, **overrides) -> ReleaseRequest:
    base = dict(
        attrs=("place", "naics"),
        mechanism="smooth-laplace",
        alpha=0.1,
        epsilon=2.0,
        delta=0.05,
        seed=seed,
    )
    base.update(overrides)
    return ReleaseRequest(**base)


@pytest.fixture()
def client(served):
    with ServeClient(served.url) as c:
        yield c


class TestPlumbing:
    def test_healthz(self, client):
        assert client.healthz() == {"status": "ok", "draining": False}

    def test_scenarios_inventory(self, client):
        payload = client.scenarios()
        assert payload["default"] == "tiny"
        (row,) = payload["scenarios"]
        assert row["name"] == "tiny" and row["fingerprint"]

    def test_unknown_route_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v2/nothing")
        assert excinfo.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/healthz", {})
        assert excinfo.value.status == 405

    def test_keep_alive_across_requests(self, client):
        # Several calls through one client reuse one connection; the
        # server must frame each response exactly.
        for _ in range(3):
            assert client.healthz()["status"] == "ok"


class TestReleaseFlow:
    def test_release_and_dedupe_zero_repeat_debit(self, client):
        first = client.release("carol", request(seed=11))
        assert first["cached"] is False and first["charged"] is True
        entries_after_first = first["ledger"]["n_entries"]
        spent_after_first = first["ledger"]["spent_epsilon"]

        second = client.release("carol", request(seed=11))
        assert second["cached"] is True and second["charged"] is False
        assert second["ledger"]["n_entries"] == entries_after_first
        assert second["ledger"]["spent_epsilon"] == spent_after_first
        # Byte-identical released numbers, straight from the store.
        assert second["result"] == first["result"]

    def test_label_does_not_defeat_dedupe(self, client):
        first = client.release("dave", request(seed=21))
        relabeled = client.release(
            "dave", request(seed=21, label="same release, new name")
        )
        assert relabeled["cached"] is True
        assert relabeled["ledger"]["n_entries"] == first["ledger"]["n_entries"]

    def test_dedupe_is_per_tenant(self, client):
        client.release("erin", request(seed=31))
        other = client.release("frank", request(seed=31))
        # frank never paid for this key, so frank is charged even though
        # the release itself comes back from the shared cache path.
        assert other["charged"] is True
        assert other["ledger"]["n_entries"] == 1

    def test_result_payload_shape(self, client):
        payload = client.release("grace", request(seed=41))["result"]
        assert payload["request"] == request(seed=41).to_dict()
        assert payload["n_released"] <= payload["n_cells"]
        assert payload["spend"]["epsilon"] == pytest.approx(2.0)
        assert payload["top_cells"]

    def test_overdraft_raise_policy_402(self, client):
        # alice has epsilon_budget=5; two eps-2 releases fit, the third
        # is refused before any compute and nothing is debited for it.
        client.release("alice", request(seed=51))
        client.release("alice", request(seed=52))
        with pytest.raises(ServeError) as excinfo:
            client.release("alice", request(seed=53))
        assert excinfo.value.status == 402
        assert "overdraws" in excinfo.value.payload["error"]
        ledger = client.ledger("alice")
        assert ledger["n_entries"] == 2
        assert ledger["spent_epsilon"] == pytest.approx(4.0)

    def test_overdraft_warn_policy_200_with_warning(self, client):
        # bob has epsilon_budget=3 with on_overdraft=warn.
        first = client.release("bob", request(seed=61))
        assert first["warning"] is None
        second = client.release("bob", request(seed=62))
        assert second["warning"] is not None and "overdraws" in second["warning"]
        assert second["ledger"]["spent_epsilon"] == pytest.approx(4.0)

    def test_validation_errors_name_the_field(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request(
                "POST",
                "/v1/release",
                {
                    "tenant": "carol",
                    "request": {
                        "attrs": ["place"],
                        "mechanism": "smooth-laplace",
                        "alpha": 0.1,
                        "epsilon": 1,
                        "bogus": True,
                    },
                },
            )
        assert excinfo.value.status == 400
        assert "'bogus'" in excinfo.value.payload["error"]

    def test_trials_batch_field_400(self, client):
        body = {"tenant": "carol", "request": request(seed=74).to_dict()}
        body["request"]["trials_batch"] = 2
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/release", body)
        assert excinfo.value.status == 400
        assert "'trials_batch'" in excinfo.value.payload["error"]

    def test_bad_body_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/release", ["not", "an", "object"])
        assert excinfo.value.status == 400

    def test_unknown_scenario_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.release("carol", request(seed=71), scenario="nope")
        assert excinfo.value.status == 404
        assert "'nope'" in excinfo.value.payload["error"]

    def test_unknown_mechanism_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.release("carol", request(seed=72, mechanism="nonsense"))
        assert excinfo.value.status == 400

    def test_path_unsafe_tenant_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.release("../escape", request(seed=73))
        assert excinfo.value.status == 400

    def test_concurrent_clients_stay_exact(self, served):
        # 8 distinct releases for one tenant from 8 threads: the account
        # serializes charges, so the ledger ends exact.
        errors = []

        def worker(index: int) -> None:
            try:
                with ServeClient(served.url) as c:
                    c.release("heidi", request(seed=100 + index))
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        with ServeClient(served.url) as c:
            ledger = c.ledger("heidi")
        assert ledger["n_entries"] == 8
        assert ledger["spent_epsilon"] == pytest.approx(16.0)


class TestLedgerEndpoint:
    def test_ledger_state(self, client):
        client.release("ivan", request(seed=81))
        state = client.ledger("ivan")
        assert state["tenant"] == "ivan"
        assert state["n_entries"] == 1
        assert state["entries"][0]["epsilon"] == pytest.approx(2.0)
        assert state["paid_requests"] == 1
        assert state["journal"].endswith("ivan.journal.jsonl")


class TestMetrics:
    def test_metrics_counts_and_latency(self, client):
        before = client.metrics()
        client.release("judy", request(seed=91))
        client.release("judy", request(seed=91))  # dedupe hit
        after = client.metrics()
        assert (
            after["requests"]["total"] >= before["requests"]["total"] + 3
        )
        assert (
            after["releases"]["deduped"] >= before["releases"]["deduped"] + 1
        )
        assert (
            after["releases"]["computed"] >= before["releases"]["computed"] + 1
        )
        assert after["latency_ms"]["count"] == after["requests"]["total"]
        assert after["latency_ms"]["p50"] is not None
        assert "POST /v1/release" in after["requests"]["by_route"]
        assert after["stores"]["results"]["hits"] >= 1
        assert after["tenants"]["materialized"] >= 1


class TestGracefulShutdown:
    def test_drain_and_stop(self, tmp_path):
        # A dedicated server (the shared one must stay up for the other
        # tests): start, serve one request, stop — the runner asserts
        # the loop thread actually exits.
        from repro.engine.store import ResultStore
        from repro.serve import (
            ReleaseCache,
            ReleaseService,
            SessionPool,
            TenantPolicy,
            TenantRegistry,
        )

        from .conftest import ServiceRunner, tiny_config

        pool = SessionPool({"tiny": tiny_config()}, compute_workers=2)
        service = ReleaseService(
            pool,
            TenantRegistry(
                root=tmp_path / "ledgers", default_policy=TenantPolicy()
            ),
            ReleaseCache(ResultStore(tmp_path / "cache")),
            port=0,
        )
        runner = ServiceRunner(service).start()
        with ServeClient(runner.url) as c:
            assert c.release("t", request(seed=5))["charged"] is True
        runner.stop()
        # The port is released and new connections are refused.
        with pytest.raises((ServeError, OSError)):
            with ServeClient(runner.url, timeout=2.0) as c:
                c.healthz()


class TestOnePoolHop:
    def test_release_work_runs_off_the_loop_in_one_hop(
        self, tmp_path, monkeypatch
    ):
        # A dedicated server, so the spies see only this test's requests.
        from repro.api import ReleaseSession
        from repro.api.result import ReleaseResult
        from repro.engine.store import ResultStore
        from repro.serve import (
            ReleaseCache,
            ReleaseService,
            SessionPool,
            TenantPolicy,
            TenantRegistry,
        )
        from repro.serve.tenants import TenantAccount

        from .conftest import ServiceRunner, tiny_config

        threads: dict[str, set[int]] = {}
        hops = []

        def spy(cls, name):
            original = getattr(cls, name)

            def recorded(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.get_ident())
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, recorded)

        for cls, name in (
            (ReleaseSession, "execute"),
            (ReleaseResult, "to_dict"),
            (TenantAccount, "charge"),
            (ReleaseCache, "get"),
            (ReleaseCache, "put"),
        ):
            spy(cls, name)
        pool_run = SessionPool.run

        async def counted_run(self, fn, /, *args):
            hops.append(fn)
            return await pool_run(self, fn, *args)

        monkeypatch.setattr(SessionPool, "run", counted_run)

        pool = SessionPool({"tiny": tiny_config()}, compute_workers=2)
        service = ReleaseService(
            pool,
            TenantRegistry(
                root=tmp_path / "ledgers", default_policy=TenantPolicy()
            ),
            ReleaseCache(ResultStore(tmp_path / "cache")),
            port=0,
        )
        runner = ServiceRunner(service).start()
        try:
            with ServeClient(runner.url) as c:
                assert c.release("t", request(seed=5))["charged"] is True
                computed = len(hops)
                assert c.release("t", request(seed=5))["cached"] is True
                replayed = len(hops) - computed
                c.ledger("t")
                ledger = len(hops) - computed - replayed
        finally:
            runner.stop()

        assert set(threads) == {"execute", "to_dict", "charge", "get", "put"}
        loop = runner._thread.ident
        for name, idents in threads.items():
            assert loop not in idents, f"{name} ran on the event loop"
        assert (computed, replayed, ledger) == (1, 1, 1)
