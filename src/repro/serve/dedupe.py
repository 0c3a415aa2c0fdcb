"""Idempotent release serving: content-addressed dedupe, zero repeat spend.

A release request is identified the same way the sweep engine identifies
a grid point (:meth:`repro.engine.plan.PointSpec.key`): the snapshot
fingerprint plus every *value-determining* request field, hashed through
the shared :func:`repro.engine.store.content_key` idiom.  The one field
that cannot change the released numbers — the ledger label — is
excluded, so two requests that would produce byte-identical releases
hash identically even when their labels differ.

The cache itself is the PR-6 :class:`~repro.engine.store.ResultStore`:
payloads live next to sweep points (same backend, same fan-out, same
corrupt-as-miss semantics) and are fleet-shareable through
``--store-url``.  Serving a cached release costs *zero compute and zero
repeat privacy budget*: the noise was drawn, and paid for, when the
release was first computed — re-publishing the same noisy numbers leaks
nothing new (DP post-processing).  Per-tenant idempotency is enforced
one level up: the service only serves tenant T from the cache when T's
own ledger already paid for that key, so tenant A's spend never
subsidizes tenant B.
"""

from __future__ import annotations

from repro.api.request import ReleaseRequest
from repro.engine.store import ResultStore, content_key

__all__ = ["RELEASE_KIND", "ReleaseCache", "release_key"]

RELEASE_KIND = "serve-release"

# Request fields with no influence on the released values: the label
# only names the ledger entry.  Every other field is in the key.
_KEY_EXCLUDED_FIELDS = ("label",)


def release_key(fingerprint: str, request: ReleaseRequest) -> str:
    """The content hash identifying one release against one snapshot.

    Note that a request without a ``seed`` draws fresh entropy on every
    compute, so deduping it pins the *first* draw — exactly the
    idempotent-retry semantics a client wants (and the only
    budget-sound one: re-drawing noise for free would be a new release).
    """
    payload = request.to_dict()
    for name in _KEY_EXCLUDED_FIELDS:
        payload.pop(name, None)
    return content_key(
        {"kind": RELEASE_KIND, "snapshot": fingerprint, "request": payload}
    )


class ReleaseCache:
    """Served releases in the content-addressed result store.

    ``store=None`` disables caching (every request computes); corrupt or
    foreign payloads under a key are misses, mirroring the store's own
    resumability contract.
    """

    def __init__(self, store: ResultStore | None):
        self.store = store

    @property
    def enabled(self) -> bool:
        return self.store is not None

    def get(self, key: str) -> dict | None:
        """The cached ``{"result": ..., "spend": ...}`` payload, or None."""
        if self.store is None:
            return None
        payload = self.store.get(key)
        if (
            not isinstance(payload, dict)
            or payload.get("kind") != RELEASE_KIND
            or "result" not in payload
        ):
            return None
        return payload

    def put(self, key: str, result_payload: dict, spend) -> None:
        """Persist one computed release (atomic install via the backend)."""
        if self.store is None:
            return
        self.store.put(
            key,
            {
                "kind": RELEASE_KIND,
                "result": result_payload,
                "spend": None if spend is None else spend.to_dict(),
            },
        )

    def stats(self) -> dict | None:
        """The underlying store's unified telemetry (None when disabled)."""
        if self.store is None:
            return None
        return self.store.statistics.as_dict()
