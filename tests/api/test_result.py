"""Tests for ReleaseResult: golden payloads, the shared evaluation record,
and top-cell selection."""

import hashlib
import json
import math
import sys
import threading

import pytest

from repro.api import ReleaseRequest, ReleaseSession
from repro.data import SyntheticConfig
from repro.engine.points import N_STRATA
from repro.experiments import WORKLOAD_1, ExperimentConfig

CASES = {
    "log-laplace": (("place", "naics", "ownership"), "log-laplace", None, 0.1, 2.0),
    "smooth-laplace": (
        ("place", "naics", "ownership"), "smooth-laplace", None, 0.1, 2.0,
    ),
    "smooth-gamma": (("place", "ownership"), "smooth-gamma", None, 0.1, 2.0),
    "truncated-laplace": (
        ("place", "naics", "ownership"), "truncated-laplace", {"theta": 50},
        0.1, 2.0,
    ),
    "weighted-split": (("place", "sex"), "weighted-split", None, 0.05, 8.0),
    # No place attribute: the result has no strata at all.
    "no-place": (("naics", "ownership"), "smooth-laplace", None, 0.1, 2.0),
}

# sha256 of json.dumps(result.to_dict(), sort_keys=True) on the conftest
# session, request seed 21.
GOLDEN = {
    ("log-laplace", None): "d7d9861b302ea466bd58ccca69649a697ade900531cb18469249f99f3c263d27",
    ("log-laplace", 32): "f254aea8fb0d37c6aa0d5a32b4c2d8f601349ffabacf16456b479f43aa749e01",
    ("smooth-laplace", None): "2fcd0a215b06b3c1e15602fd71b3bd46181941266b7d82d35f90d62efea12170",
    ("smooth-laplace", 32): "56a8b1e66bea08fd7d6c84c8dc5e7b628f82f35601699ca76f8358f6b00965bc",
    ("smooth-gamma", None): "4efaa6bc6d3636bf8e9d694241c551c078a22b5f7e48cc147c1a111d08673327",
    ("smooth-gamma", 32): "ee2b5c459109f36dd3ca23ebc5b182d0f1bd410b6683a893afd4c3cd032ae155",
    ("truncated-laplace", None): "46a11be9b1e15120a45d494662be2c92c6e568b0c1496560b6d4ae6f04ab0d85",
    ("truncated-laplace", 32): "ba61e677d2e7e813439d97f10cd6e50ea87c497c16ad1abd591d19528d2b2704",
    ("weighted-split", None): "079740b1db63f0fa749f44b40f632b36542416b19236fba88a1e4a7a65721f32",
    ("weighted-split", 32): "acfe023f22e1b3165834fb010f3fefcf9fb198039b0b6c01d88eb948f3589c42",
    ("no-place", None): "437a126eb10c79f43cdb9cbdfc3d8888bd38b7db7b6bfca46347634cdda6760f",
    ("no-place", 32): "b13a175528142a5deee00247844a3159b7877f04c38cf85dad10b0482ae25203",
}


def _case_request(name: str, n_trials: int | None, seed: int = 21):
    attrs, mechanism, options, alpha, epsilon = CASES[name]
    return ReleaseRequest(
        attrs=attrs,
        mechanism=mechanism,
        alpha=alpha,
        epsilon=epsilon,
        delta=0.05,
        n_trials=n_trials,
        seed=seed,
        mechanism_options=options,
    )


def _digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _fresh_session() -> ReleaseSession:
    return ReleaseSession(
        ExperimentConfig(
            data=SyntheticConfig(target_jobs=8_000, seed=123), n_trials=3, seed=7
        )
    )


def _same(payload_value, value: float) -> bool:
    """Bit equality, reading the payload's None as the nan/inf it encodes."""
    if payload_value is None:
        return not math.isfinite(value)
    return float(payload_value).hex() == float(value).hex()


class TestGoldenPayloads:
    @pytest.mark.parametrize("name,n_trials", sorted(GOLDEN, key=str))
    def test_payload_digest(self, session, name, n_trials):
        result = session.run(_case_request(name, n_trials))
        assert _digest(result.to_dict()) == GOLDEN[(name, n_trials)]

    @pytest.mark.parametrize("name,n_trials", sorted(GOLDEN, key=str))
    def test_payload_metrics_match_methods(self, session, name, n_trials):
        result = session.run(_case_request(name, n_trials))
        metrics = result.to_dict()["metrics"]
        assert _same(metrics["mean_l1"], result.mean_l1())
        assert _same(metrics["l1_ratio"], result.l1_ratio())
        assert _same(metrics["spearman"], result.spearman())
        for key, values in (
            ("l1_ratio_by_stratum", result.l1_ratio_by_stratum()),
            ("spearman_by_stratum", result.spearman_by_stratum()),
        ):
            assert len(metrics[key]) == len(values) == N_STRATA
            assert all(map(_same, metrics[key], values))

    def test_no_place_marginal_has_nan_strata(self, session):
        result = session.run(_case_request("no-place", 32))
        assert result.strata is None
        assert all(math.isnan(v) for v in result.l1_ratio_by_stratum())
        assert all(math.isnan(v) for v in result.spearman_by_stratum())
        assert math.isfinite(result.l1_ratio())


def _spy_rank_stats(monkeypatch) -> list[int]:
    """Count every ranking of an SDL baseline, wherever it is imported."""
    from repro.metrics import ranking

    real = ranking.centered_rank_stats
    calls: list[int] = []

    def spy(values):
        calls.append(len(values))
        return real(values)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            if getattr(module, "centered_rank_stats", None) is real:
                monkeypatch.setattr(module, "centered_rank_stats", spy)
    return calls


def _read_only_arrays(evaluation):
    yield evaluation.cells
    yield from evaluation.index_sets
    for ranks, _ in evaluation.rank_stats:
        yield ranks


class TestEvaluationRecord:
    def test_baseline_ranked_once_per_marginal(self, monkeypatch):
        session = _fresh_session()
        calls = _spy_rank_stats(monkeypatch)
        first = session.run(_case_request("smooth-laplace", 8, seed=1))
        first.to_dict()
        assert 1 <= len(calls) <= N_STRATA + 1
        calls.clear()

        later = [
            _case_request("smooth-laplace", 8, seed=2),
            _case_request("smooth-laplace", None, seed=3),
            _case_request("log-laplace", 8, seed=4),
            _case_request("truncated-laplace", 8, seed=5),
        ]
        results = [session.run(request) for request in later]
        for result in results:
            result.to_dict()
        assert calls == []
        for result in results:
            assert result.evaluation is first.evaluation, result.mechanism

    def test_record_arrays_are_read_only(self, session):
        evaluation = session.run(_case_request("log-laplace", 4, seed=6)).evaluation
        arrays = list(_read_only_arrays(evaluation))
        assert len(arrays) == 1 + 2 * (N_STRATA + 1)
        arrays += list(_read_only_arrays(session.statistics(WORKLOAD_1).evaluation))
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_threads_share_one_record_per_key(self):
        names = ("smooth-laplace", "log-laplace", "smooth-gamma", "no-place")
        requests = [
            _case_request(names[i % len(names)], 4, seed=100 + i)
            for i in range(8 * 25)
        ]
        shared = _fresh_session()
        outcomes: list = [None] * len(requests)
        errors: list = []

        def worker(offset: int) -> None:
            try:
                for i in range(offset, len(requests), 8):
                    result = shared.run(requests[i])
                    payload = json.dumps(result.to_dict(), sort_keys=True)
                    outcomes[i] = (result, payload)
            except BaseException as error:  # surfaced by the assert below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

        records: dict = {}
        for result, _ in outcomes:
            key = (result.request.attrs, result.mask.tobytes())
            assert result.evaluation is records.setdefault(key, result.evaluation)
        assert len(records) == len({request.attrs for request in requests})

        serial = _fresh_session()
        for request, (_, payload) in zip(requests, outcomes):
            expected = json.dumps(serial.run(request).to_dict(), sort_keys=True)
            assert payload == expected


class TestTopCells:
    def test_k_rows(self, session):
        result = session.run(_case_request("smooth-laplace", None, seed=30))
        rows = result.top_cells(3)
        assert len(rows) == 3
        noisy = [row[2] for row in rows]
        assert noisy == sorted(noisy, reverse=True)

    def test_zero_gives_no_rows(self, session):
        result = session.run(_case_request("smooth-laplace", None, seed=31))
        assert result.top_cells(0) == []
        assert result.to_dict(top=0)["top_cells"] == []

    def test_negative_rejected(self, session):
        result = session.run(_case_request("smooth-laplace", None, seed=32))
        with pytest.raises(ValueError, match="k >= 0"):
            result.top_cells(-2)
