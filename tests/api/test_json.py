"""JSON round-trips for requests, results and ledger state.

These are the wire formats of the release service and the CLI's
``--json`` paths: :meth:`ReleaseRequest.to_dict`/``from_dict`` must be
exact inverses, ``from_dict`` must *name the offending field* on every
rejection, and :meth:`ReleaseResult.to_dict` /
:meth:`PrivacyLedger.as_dict` must be ``json.dumps``-clean.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.api import LedgerEntry, PrivacyLedger, ReleaseRequest
from repro.api.ledger import WARN


def _request(**overrides) -> ReleaseRequest:
    base = dict(
        attrs=("place", "naics"),
        mechanism="smooth-laplace",
        alpha=0.1,
        epsilon=2.0,
        delta=0.05,
        seed=7,
    )
    base.update(overrides)
    return ReleaseRequest(**base)


class TestRequestRoundTrip:
    def test_exact_round_trip(self):
        request = _request(
            n_trials=5,
            label="custom",
            mode="weak",
            mechanism_options={"theta": 3},
        )
        payload = request.to_dict()
        json.dumps(payload)  # must be JSON-clean
        assert ReleaseRequest.from_dict(payload) == request

    def test_minimal_round_trip_drops_none_fields(self):
        request = ReleaseRequest(
            attrs=("place",), mechanism="smooth-laplace", alpha=0.1, epsilon=1.0
        )
        payload = request.to_dict()
        assert "seed" not in payload and "mode" not in payload
        assert ReleaseRequest.from_dict(payload) == request

    def test_canonical_payloads_for_equal_requests(self):
        # The dedupe key relies on equal requests serializing identically.
        one = _request().to_dict()
        two = _request().to_dict()
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)

    def test_trials_batch_is_an_unknown_field(self):
        payload = _request(n_trials=5).to_dict()
        payload["trials_batch"] = 2
        with pytest.raises(ValueError, match="'trials_batch'"):
            ReleaseRequest.from_dict(payload)

    def test_round_trip_through_json_text(self):
        request = _request(n_trials=3)
        text = json.dumps(request.to_dict())
        assert ReleaseRequest.from_dict(json.loads(text)) == request

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ("not-a-dict", "must be a JSON object"),
            ({"attrs": ["place"], "mechanism": "m", "alpha": 0.1,
              "epsilon": 1, "bogus": 1}, "'bogus'"),
            ({"mechanism": "m", "alpha": 0.1, "epsilon": 1}, "'attrs'"),
            ({"attrs": "place", "mechanism": "m", "alpha": 0.1,
              "epsilon": 1}, "'attrs'"),
            ({"attrs": [], "mechanism": "m", "alpha": 0.1, "epsilon": 1},
             "'attrs'"),
            ({"attrs": ["place"], "alpha": 0.1, "epsilon": 1},
             "'mechanism'"),
            ({"attrs": ["place"], "mechanism": "m", "epsilon": 1},
             "'alpha'"),
            ({"attrs": ["place"], "mechanism": "m", "alpha": "x",
              "epsilon": 1}, "'alpha'"),
            ({"attrs": ["place"], "mechanism": "m", "alpha": 0.1,
              "epsilon": True}, "'epsilon'"),
            ({"attrs": ["place"], "mechanism": "m", "alpha": 0.1,
              "epsilon": 1, "n_trials": 2.5}, "'n_trials'"),
            ({"attrs": ["place"], "mechanism": "m", "alpha": 0.1,
              "epsilon": 1, "mode": 7}, "'mode'"),
            ({"attrs": ["place"], "mechanism": "m", "alpha": 0.1,
              "epsilon": 1, "mechanism_options": [1]},
             "'mechanism_options'"),
        ],
    )
    def test_rejections_name_the_offending_field(self, payload, fragment):
        with pytest.raises(ValueError) as excinfo:
            ReleaseRequest.from_dict(payload)
        assert fragment in str(excinfo.value)


class TestLedgerJSON:
    def test_entry_round_trip(self):
        entry = LedgerEntry(
            label="r1", epsilon=2.0, delta=0.05, mechanism="smooth-laplace",
            attrs=("place", "naics"), mode="weak", worker_domain=4,
        )
        assert LedgerEntry.from_dict(entry.to_dict()) == entry
        json.dumps(entry.to_dict())

    def test_entry_from_dict_tolerates_missing_optionals(self):
        entry = LedgerEntry.from_dict({"label": "x", "epsilon": 1, "delta": 0})
        assert entry.mechanism == "" and entry.worker_domain == 1

    def test_as_dict_is_json_clean_with_unlimited_budget(self):
        ledger = PrivacyLedger()
        ledger.debit_amount(1.5, 0.01, label="a")
        state = ledger.as_dict()
        text = json.dumps(state)
        assert "Infinity" not in text
        assert state["remaining_epsilon"] is None
        assert state["spent_epsilon"] == 1.5
        assert state["entries"][0]["label"] == "a"

    def test_restore_bypasses_overdraft(self):
        ledger = PrivacyLedger(epsilon_budget=1.0)
        ledger.restore(LedgerEntry(label="old", epsilon=5.0, delta=0.0))
        assert ledger.spent_epsilon == 5.0
        assert ledger.remaining_epsilon == -4.0

    def test_would_overdraw_reports_without_recording(self):
        ledger = PrivacyLedger(epsilon_budget=1.0, on_overdraft=WARN)
        message = ledger.would_overdraw(
            LedgerEntry(label="big", epsilon=2.0, delta=0.0)
        )
        assert message is not None and "overdraws" in message
        assert ledger.entries == []
        assert ledger.would_overdraw(
            LedgerEntry(label="ok", epsilon=0.5, delta=0.0)
        ) is None


class TestResultJSON:
    def test_result_to_dict_round_trips_through_json(self, session):
        result = session.run(_request(n_trials=2))
        payload = result.to_dict(top=3)
        decoded = json.loads(json.dumps(payload))
        assert decoded["request"] == _request(n_trials=2).to_dict()
        assert decoded["n_trials"] == 2
        assert len(decoded["top_cells"]) == 3
        assert decoded["budget"]["mode"] in ("strong", "weak")
        assert decoded["spend"]["epsilon"] == pytest.approx(
            result.ledger_entry.epsilon
        )
        for value in decoded["metrics"].values():
            if isinstance(value, float):
                assert math.isfinite(value)
