"""Content-addressed on-disk result store — sweeps become resumable.

The store maps a content hash (from :meth:`repro.engine.plan.PointSpec.key`,
which covers the snapshot fingerprint and every value-determining
parameter) to a small JSON payload.  Because the key *is* the content,
the store needs no invalidation logic: a changed seed, grid, trial count
or snapshot config simply hashes to a different key, and a re-run of a
figure recomputes only the points it has never seen.

Layout (two-level fan-out keeps directories small)::

    reports/cache/
        ab/abc123....json        # point payload (JSON, NaN-tolerant)

All I/O goes through a :class:`repro.storage.StorageBackend` — the
default :class:`~repro.storage.local.LocalFSBackend` reproduces the
historical layout byte for byte (atomic temp-file + ``os.replace``
writes), and a :class:`~repro.storage.remote.RemoteObjectBackend`
makes the same cache fleet-shareable (write-through puts, read-through
local cache) so N workers drain one shared plan without recomputing
each other's points.  Unreadable or corrupt payloads are treated as
misses, *quarantined* (evicted so a bad artifact is never read twice),
and recomputed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.storage import BackendStore

DEFAULT_CACHE_DIR = Path("reports") / "cache"

SCHEMA_VERSION = 1


def content_key(payload: dict, length: int | None = None) -> str:
    """The canonical content hash used for every store key.

    One shared idiom — sorted-key JSON through SHA-256 — so point specs
    (:meth:`repro.engine.plan.PointSpec.key`), snapshot fingerprints and
    ad-hoc row caches (Table 3) cannot drift onto incompatible hashing
    conventions.  ``length`` truncates the hex digest (fingerprints use
    16 chars; full keys use all 64).
    """
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return digest if length is None else digest[:length]


class ResultStore(BackendStore):
    """A content-addressed JSON store over a storage backend.

    ``hits``/``misses``/``writes`` count this instance's traffic — the
    resume tests (and the CLI's cache summary) read them to prove that a
    second run recomputed nothing; :attr:`statistics` adds evictions
    and the backend's byte traffic (:class:`~repro.storage.StoreStats`).
    """

    default_root = DEFAULT_CACHE_DIR
    kind = "result"

    def claim_board(self, *, owner: str | None = None, ttl_s: float | None = None):
        """A :class:`~repro.runtime.ClaimBoard` over this store's backend.

        Lease files land under ``claims/`` beside the payloads (same
        backend, same fleet visibility) with a ``.lease`` suffix, so
        :meth:`__len__` and :meth:`clear` — which look only at
        ``.json`` — never count or delete live coordination state.
        """
        from repro.runtime.claims import ClaimBoard

        return ClaimBoard(self.backend, owner=owner, ttl_s=ttl_s)

    def _key_for(self, key: str) -> str:
        if len(key) < 3:
            raise ValueError(f"store keys must be content hashes, got {key!r}")
        return f"{key[:2]}/{key}.json"

    def path_for(self, key: str) -> Path:
        """Where a key's payload lives (two-level hex fan-out)."""
        return self.root / self._key_for(key)

    def contains(self, key: str) -> bool:
        """Whether a payload exists for ``key`` (does not touch counters)."""
        return self.backend.contains(self._key_for(key))

    def _quarantine(self, key: str) -> None:
        """Evict a corrupt payload so it is never re-read.

        Under a local backend this deletes the file; under a remote
        one it drops only the cached copy — the authoritative remote
        object may be fine (the corruption local), and if it is not,
        the re-download-then-reparse will miss again without this
        worker destroying shared state.
        """
        self.backend.stats.evictions += self.backend.evict(self._key_for(key))

    # -- payloads -------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """Load the JSON payload for ``key``; ``None`` (a miss) otherwise.

        A corrupt or unreadable payload counts as a miss and is
        quarantined: resumability must never be worse than recomputing,
        and a bad artifact must never be parsed twice.
        """
        raw = self.backend.read_bytes(self._key_for(key))
        if raw is None:
            self.misses += 1
            return None
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._quarantine(key)
            self.misses += 1
            return None
        if not isinstance(payload, dict):
            self._quarantine(key)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> Path:
        """Atomically persist ``payload`` under ``key``."""
        payload = dict(payload)
        payload.setdefault("schema", SCHEMA_VERSION)
        payload["key"] = key
        path = self.backend.put_file(
            self._key_for(key),
            json.dumps(payload, sort_keys=True).encode("utf-8"),
        )
        self.writes += 1
        return path

    # -- maintenance ----------------------------------------------------

    def __len__(self) -> int:
        """Number of stored payloads (walks the tree; for tests/tools)."""
        return sum(
            1 for key in self.backend.list_keys() if key.endswith(".json")
        )

    def clear(self) -> int:
        """Delete every stored payload; returns the count."""
        removed = 0
        for key in self.backend.list_keys():
            if key.endswith(".json"):
                self.backend.delete(key)
                removed += 1
        return removed
