"""The shell every store over a :class:`StorageBackend` shares.

:class:`~repro.engine.store.ResultStore` and
:class:`~repro.scenarios.store.SnapshotStore` differ only in what a key
addresses and how an artifact is (de)serialized; the construction from
a root *or* a backend, the shared :class:`StoreStats` counters and the
picklable spec a worker process rebuilds from live here once.
"""

from __future__ import annotations

from pathlib import Path

from repro.storage.backend import StorageBackend, StoreStats
from repro.storage.local import LocalFSBackend
from repro.storage.url import backend_from_spec

__all__ = ["BackendStore"]


def _counter(name: str) -> property:
    """A read/write view of one of the backend's shared counters."""
    return property(
        lambda self: getattr(self.backend.stats, name),
        lambda self, value: setattr(self.backend.stats, name, value),
        doc=f"This store's ``{name}`` count (kept in the backend's stats).",
    )


class BackendStore:
    """A store over one backend: local ``root`` by default, or ``backend``.

    ``hits``/``misses``/``writes`` count the store's semantic traffic;
    :attr:`statistics` is the full ledger they share with the backend's
    byte traffic and eviction counts.  Subclasses set
    ``default_root`` and ``kind`` (the spec's ``"store"`` tag).
    """

    default_root: Path
    kind: str

    def __init__(
        self,
        root: Path | str | None = None,
        *,
        backend: StorageBackend | None = None,
    ):
        if backend is None:
            backend = LocalFSBackend(
                self.default_root if root is None else root
            )
        elif root is not None and Path(root) != backend.root:
            raise ValueError(
                f"pass either root or backend, not both "
                f"(root={str(root)!r}, backend root={str(backend.root)!r})"
            )
        self.backend = backend

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, writes={self.writes})"
        )

    @property
    def root(self) -> Path:
        return self.backend.root

    @property
    def statistics(self) -> StoreStats:
        """The full shared ledger (store counters + backend byte traffic)."""
        return self.backend.stats

    @property
    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "writes": self.writes}

    hits = _counter("hits")
    misses = _counter("misses")
    writes = _counter("writes")

    def spec(self) -> dict:
        """A picklable description a worker process rebuilds from."""
        return {"store": self.kind, "backend": self.backend.spec()}

    @classmethod
    def from_spec(cls, spec: dict):
        return cls(backend=backend_from_spec(spec["backend"]))
