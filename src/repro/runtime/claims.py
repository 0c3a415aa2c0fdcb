"""Optimistic claim markers: N drains of one plan partition the grid.

Before claims, two processes (or machines) draining the same sweep plan
against one shared result store both computed every missing point and
raced last-writer-wins on the puts — correct (same key ⇒ same bytes)
but wasteful: the fleet did N× the work.  A :class:`ClaimBoard` adds
the missing coordination primitive on top of any
:class:`~repro.storage.StorageBackend`:

- **claim-before-compute**: a drain that is about to compute a unit of
  work first tries to create its *lease file* (``claims/<k>.lease``)
  with an atomic conditional put
  (:meth:`~repro.storage.StorageBackend.put_if_absent`).  Exactly one
  drain wins; the others defer and poll the store for the winner's
  result instead of recomputing it.
- **TTL + owner id**: a lease records who took it and when.  A holder
  that crashes mid-compute never releases, so leases *expire*: once a
  lease is older than its TTL, any waiting drain may take it over
  (overwrite the lease and compute).
- **last-writer-wins stays the safety net**: claims are an
  optimization, never a correctness mechanism.  Two drains that both
  believe they hold a lease (an expiry race, a partitioned network, an
  unreadable lease file) both compute and both write — bit-identical
  bytes, exactly the pre-claim behavior.  Nothing ever *waits
  forever* on a lease: expiry bounds every stall.

Clock caveat: expiry compares the lease's ``acquired_at`` wall-clock
stamp against the *reader's* clock, so cross-machine takeover tolerates
clock skew up to the TTL.  Keep TTLs comfortably above both the unit
compute time and the fleet's clock skew.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import socket
import time
from dataclasses import dataclass

__all__ = [
    "DEFAULT_LEASE_TTL_S",
    "CLAIMS_PREFIX",
    "Lease",
    "ClaimBoard",
    "default_owner",
]

# Long enough that no healthy drain loses a lease mid-compute (grid
# units take seconds, not minutes), short enough that a crashed owner's
# work is reclaimed promptly.
DEFAULT_LEASE_TTL_S = 300.0

# Lease files live beside the payloads they guard, under their own
# prefix, so result listings (which filter on .json) never see
# them and `clear()` never deletes them out from under a live drain.
CLAIMS_PREFIX = "claims"

LEASE_SCHEMA_VERSION = 1


def default_owner() -> str:
    """A fleet-unique owner id: host, pid, and a random tail.

    The random tail disambiguates two boards in one process (each
    concurrent drain owns its own board) and pid reuse across restarts.
    """
    return f"{socket.gethostname()}:{os.getpid()}:{secrets.token_hex(4)}"


@dataclass(frozen=True)
class Lease:
    """One claim: who took it, when, and for how long."""

    owner: str
    acquired_at: float
    ttl_s: float

    def expired(self, now: float | None = None) -> bool:
        now = time.time() if now is None else now
        return now - self.acquired_at > self.ttl_s

    def to_json(self) -> bytes:
        return json.dumps(
            {
                "schema": LEASE_SCHEMA_VERSION,
                "owner": self.owner,
                "acquired_at": self.acquired_at,
                "ttl_s": self.ttl_s,
            },
            sort_keys=True,
        ).encode("utf-8")

    @classmethod
    def from_json(cls, raw: bytes) -> "Lease | None":
        """Parse a lease file; ``None`` for garbage (treated as expired).

        An unreadable lease means a writer died mid-put or the file was
        corrupted; either way the safe reading is "stale" — a waiting
        drain takes over and, at worst, duplicates work the safety net
        already tolerates.  A lease with a non-finite stamp or TTL could
        never expire, so it reads as garbage too.
        """
        try:
            payload = json.loads(raw.decode("utf-8"))
            lease = cls(
                owner=str(payload["owner"]),
                acquired_at=float(payload["acquired_at"]),
                ttl_s=float(payload["ttl_s"]),
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            return None
        if not (math.isfinite(lease.acquired_at) and math.isfinite(lease.ttl_s)):
            return None
        return lease


class ClaimBoard:
    """Lease files over a storage backend: try-claim, inspect, release.

    One board per drain: the board's ``owner`` id is what lease files
    record, and :meth:`try_claim` is re-entrant for the same owner (a
    takeover round may re-claim keys this drain already holds).
    """

    def __init__(
        self,
        backend,
        *,
        owner: str | None = None,
        ttl_s: float | None = None,
        prefix: str = CLAIMS_PREFIX,
    ):
        self.backend = backend
        self.owner = owner if owner is not None else default_owner()
        self.ttl_s = DEFAULT_LEASE_TTL_S if ttl_s is None else float(ttl_s)
        # A NaN or infinite TTL never expires (a crashed owner would
        # stall every rival forever); zero or negative always has (every
        # rival takes over at once and duplicates the work).
        if not (math.isfinite(self.ttl_s) and self.ttl_s > 0):
            raise ValueError(
                f"lease ttl_s must be a finite number > 0, got {ttl_s!r}"
            )
        self.prefix = prefix.strip("/")
        self._held: set[str] = set()

    def __repr__(self) -> str:
        return (
            f"ClaimBoard(owner={self.owner!r}, ttl_s={self.ttl_s}, "
            f"held={len(self._held)})"
        )

    def lease_key(self, key: str) -> str:
        """Where ``key``'s lease lives (two-level fan-out like payloads)."""
        fanout = key[:2] if len(key) > 2 else "_"
        return f"{self.prefix}/{fanout}/{key}.lease"

    def _fresh_lease(self) -> Lease:
        return Lease(
            owner=self.owner, acquired_at=time.time(), ttl_s=self.ttl_s
        )

    def holder(self, key: str) -> Lease | None:
        """The current lease on ``key``, or ``None`` (absent/unreadable).

        Reads are authoritative (:meth:`~repro.storage.StorageBackend.peek`
        bypasses any local cache): a stale cached lease would make a
        drain wait on an owner that already released.
        """
        raw = self.backend.peek(self.lease_key(key))
        return None if raw is None else Lease.from_json(raw)

    def try_claim(self, key: str) -> bool:
        """Claim ``key`` if unclaimed, expired, or already ours.

        The happy path is one atomic conditional create.  On conflict,
        an expired (or unreadable) lease is taken over by overwriting it
        and *reading back*: the read-back narrows — but cannot close —
        the window in which two drains take over simultaneously; the
        store's last-writer-wins semantics absorb whatever slips
        through.
        """
        lease_key = self.lease_key(key)
        mine = self._fresh_lease()
        if self.backend.put_if_absent(lease_key, mine.to_json()):
            self._held.add(key)
            return True
        current = self.holder(key)
        if current is not None and current.owner == self.owner:
            self._held.add(key)
            return True
        if current is not None and not current.expired():
            return False
        # Absent (released between our put and read), unreadable, or
        # expired: take over, then confirm the takeover stuck.
        self.backend.put_file(lease_key, mine.to_json())
        confirmed = self.holder(key)
        if confirmed is not None and confirmed.owner == self.owner:
            self._held.add(key)
            return True
        return False

    def release(self, key: str) -> bool:
        """Drop ``key``'s lease (done computing, or abandoning it)."""
        self._held.discard(key)
        return self.backend.delete(self.lease_key(key))

    def release_all(self) -> int:
        """Release every lease this board still holds; returns the count."""
        released = 0
        for key in sorted(self._held):
            released += bool(self.release(key))
        return released

    @property
    def held(self) -> frozenset[str]:
        """The keys this board currently believes it holds."""
        return frozenset(self._held)
