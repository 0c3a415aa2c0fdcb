"""Tests for the content-addressed on-disk result store."""

import json
import math

import pytest

from repro.engine.points import SeriesPoint, points_identical
from repro.engine.store import ResultStore
from repro.engine.sweep import decode_point, decode_spend, encode_point, encode_spend

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


@pytest.fixture()
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "cache")


class TestRoundTrip:
    def test_put_get(self, store):
        store.put(KEY, {"value": 1.5, "tags": ["a", "b"]})
        payload = store.get(KEY)
        assert payload["value"] == 1.5
        assert payload["tags"] == ["a", "b"]
        assert payload["key"] == KEY
        assert payload["schema"] == 1

    def test_missing_key_is_none(self, store):
        assert store.get(KEY) is None

    def test_contains(self, store):
        assert not store.contains(KEY)
        store.put(KEY, {})
        assert store.contains(KEY)

    def test_two_level_fanout_layout(self, store):
        path = store.put(KEY, {})
        assert path.parent.name == KEY[:2]
        assert path.name == f"{KEY}.json"

    def test_nan_and_inf_survive(self, store):
        store.put(KEY, {"nan": float("nan"), "inf": float("inf")})
        payload = store.get(KEY)
        assert math.isnan(payload["nan"])
        assert math.isinf(payload["inf"])

    def test_len_and_clear(self, store):
        store.put(KEY, {})
        store.put(OTHER, {})
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0
        assert store.get(OTHER) is None

    def test_point_payload_round_trip(self, store):
        point = SeriesPoint(
            mechanism="smooth-gamma",
            alpha=0.2,
            epsilon=0.5,
            overall=float("nan"),
            by_stratum=(float("nan"),) * 4,
            feasible=False,
        )
        store.put(KEY, {"point": encode_point(point)})
        decoded = decode_point(store.get(KEY)["point"])
        assert points_identical(point, decoded)
        assert isinstance(decoded.by_stratum, tuple)

    def test_spend_payload_round_trip(self, store):
        from repro.api.ledger import LedgerEntry

        spend = LedgerEntry(
            label="w1:smooth-laplace",
            epsilon=2.0,
            delta=0.05,
            mechanism="smooth-laplace",
            attrs=("place", "naics"),
            mode="strong",
        )
        store.put(KEY, {"spend": encode_spend(spend)})
        assert decode_spend(store.get(KEY)["spend"]) == spend
        assert encode_spend(None) is None
        assert decode_spend(None) is None


class TestRobustness:
    def test_corrupt_payload_is_a_miss(self, store):
        path = store.put(KEY, {"value": 1})
        path.write_text("{not json", encoding="utf-8")
        assert store.get(KEY) is None

    def test_non_dict_payload_is_a_miss(self, store):
        path = store.put(KEY, {"value": 1})
        path.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
        assert store.get(KEY) is None

    def test_no_temp_files_left_behind(self, store):
        for index in range(5):
            store.put(KEY, {"value": index})
        leftovers = list(store.root.rglob("*.tmp"))
        assert leftovers == []

    def test_short_key_rejected(self, store):
        with pytest.raises(ValueError, match="content hash"):
            store.path_for("ab")

    def test_counters(self, store):
        store.get(KEY)
        store.put(KEY, {})
        store.get(KEY)
        assert store.stats == {"hits": 1, "misses": 1, "writes": 1}


class TestQuarantine:
    """Corrupt payloads are evicted, so a bad artifact is never re-read."""

    def test_quarantine_of_payload_only_entry(self, store):
        path = store.put(KEY, {"value": 1})
        path.write_text("junk", encoding="utf-8")
        assert store.get(KEY) is None
        assert not store.path_for(KEY).exists()
        assert store.statistics.evictions == 1
        # recomputation repopulates cleanly after the quarantine:
        store.put(KEY, {"value": 2})
        assert store.get(KEY)["value"] == 2
