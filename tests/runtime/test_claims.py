"""ClaimBoard semantics: one winner, TTL takeover, fail-open safety net.

Pure coordination-layer tests over a local backend (the cross-backend
conformance of ``put_if_absent``/``peek`` lives in the storage suite).
The contract: exactly one board wins a contested claim, an expired or
unreadable lease is taken over, release makes a key claimable again,
and nothing here is ever allowed to wedge a drain forever.
"""

from __future__ import annotations

import time

import pytest

from repro.runtime import (
    CLAIMS_PREFIX,
    DEFAULT_LEASE_TTL_S,
    ClaimBoard,
    Lease,
    default_owner,
)
from repro.storage import LocalFSBackend


@pytest.fixture()
def backend(tmp_path):
    return LocalFSBackend(tmp_path / "store")


def board(backend, owner, **kwargs):
    return ClaimBoard(backend, owner=owner, **kwargs)


class TestLease:
    def test_json_round_trip(self):
        lease = Lease(owner="me", acquired_at=123.5, ttl_s=60.0)
        assert Lease.from_json(lease.to_json()) == lease

    def test_garbage_parses_to_none(self):
        assert Lease.from_json(b"not json") is None
        assert Lease.from_json(b"[1, 2]") is None
        assert Lease.from_json(b'{"owner": "x"}') is None

    @pytest.mark.parametrize(
        "raw",
        [
            b'{"owner": "x", "acquired_at": 1000.0, "ttl_s": NaN}',
            b'{"owner": "x", "acquired_at": 1000.0, "ttl_s": Infinity}',
            b'{"owner": "x", "acquired_at": NaN, "ttl_s": 60.0}',
        ],
    )
    def test_never_expiring_lease_parses_to_none(self, raw):
        """A non-finite stamp or TTL would never expire, so it reads as
        garbage (taken over) instead of stalling rivals forever."""
        assert Lease.from_json(raw) is None

    def test_expiry(self):
        lease = Lease(owner="me", acquired_at=1000.0, ttl_s=10.0)
        assert not lease.expired(now=1009.0)
        assert lease.expired(now=1011.0)

    def test_default_owner_is_fleet_unique(self):
        assert default_owner() != default_owner()


class TestClaimBoard:
    def test_first_claim_wins_second_defers(self, backend):
        a, b = board(backend, "a"), board(backend, "b")
        assert a.try_claim("k" * 8)
        assert not b.try_claim("k" * 8)
        assert a.held == frozenset({"k" * 8}) and b.held == frozenset()

    def test_claim_is_reentrant_for_the_owner(self, backend):
        a = board(backend, "a")
        assert a.try_claim("key-1") and a.try_claim("key-1")

    def test_release_makes_the_key_claimable(self, backend):
        a, b = board(backend, "a"), board(backend, "b")
        assert a.try_claim("key-1")
        assert a.release("key-1")
        assert a.held == frozenset()
        assert b.try_claim("key-1")

    def test_release_all(self, backend):
        a = board(backend, "a")
        for key in ("k1", "k2", "k3"):
            assert a.try_claim(key)
        assert a.release_all() == 3
        assert a.held == frozenset()
        b = board(backend, "b")
        assert all(b.try_claim(key) for key in ("k1", "k2", "k3"))

    def test_expired_lease_is_taken_over(self, backend):
        crashed = board(backend, "crashed", ttl_s=0.02)
        assert crashed.try_claim("key-1")
        time.sleep(0.05)
        taker = board(backend, "taker")
        assert taker.try_claim("key-1")
        holder = taker.holder("key-1")
        assert holder is not None and holder.owner == "taker"

    def test_unreadable_lease_is_taken_over(self, backend):
        a = board(backend, "a")
        backend.put_file(a.lease_key("key-1"), b"corrupted garbage")
        assert a.try_claim("key-1")
        holder = a.holder("key-1")
        assert holder is not None and holder.owner == "a"

    def test_unexpired_foreign_lease_refused(self, backend):
        a = board(backend, "a", ttl_s=60.0)
        assert a.try_claim("key-1")
        b = board(backend, "b")
        assert not b.try_claim("key-1")
        holder = b.holder("key-1")
        assert holder is not None and holder.owner == "a"

    @pytest.mark.parametrize(
        "ttl", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0]
    )
    def test_ttl_must_be_finite_and_positive(self, backend, ttl):
        """NaN/inf leases never expire (a crashed owner stalls every
        rival forever); zero/negative ones always have (every rival
        takes over at once and duplicates the work)."""
        with pytest.raises(ValueError, match="ttl_s"):
            board(backend, "a", ttl_s=ttl)

    def test_never_expiring_lease_file_is_taken_over(self, backend):
        a = board(backend, "a")
        backend.put_file(
            a.lease_key("key-1"),
            b'{"owner": "ghost", "acquired_at": 1000.0, "ttl_s": NaN}',
        )
        assert a.try_claim("key-1")
        holder = a.holder("key-1")
        assert holder is not None and holder.owner == "a"

    def test_holder_of_unclaimed_key_is_none(self, backend):
        assert board(backend, "a").holder("nope") is None

    def test_lease_keys_fan_out_like_payloads(self, backend):
        a = board(backend, "a")
        assert a.lease_key("abcdef") == f"{CLAIMS_PREFIX}/ab/abcdef.lease"
        assert a.lease_key("ab") == f"{CLAIMS_PREFIX}/_/ab.lease"

    def test_lease_files_invisible_to_result_listings(self, backend):
        """Claims live under their own prefix with a .lease suffix, so
        result stores (which filter on .json/.npz) never count them."""
        a = board(backend, "a")
        assert a.try_claim("abcdef")
        keys = list(backend.list_keys())
        assert any(key.endswith(".lease") for key in keys)
        assert not any(key.endswith((".json", ".npz")) for key in keys)

    def test_defaults(self, backend):
        anonymous = ClaimBoard(backend)
        assert anonymous.ttl_s == DEFAULT_LEASE_TTL_S
        assert anonymous.owner  # generated, fleet-unique
        assert anonymous.prefix == CLAIMS_PREFIX
