"""Storage backends: one I/O protocol under every store.

See :mod:`repro.storage.backend` for the protocol and the design
rationale; :mod:`repro.storage.local` and :mod:`repro.storage.remote`
for the two shipped backends; :mod:`repro.storage.url` for
``--store-url`` resolution; :mod:`repro.storage.httpd` for the
test/CI HTTP object server; :mod:`repro.storage.store` for the shell
both stores share.
"""

from repro.storage.backend import (
    STALE_STAGING_AGE_S,
    StorageBackend,
    StoreStats,
    current_umask,
    honor_umask,
)
from repro.storage.local import LocalFSBackend
from repro.storage.remote import (
    FilesystemObjectStore,
    HTTPObjectStore,
    ObjectStore,
    RemoteObjectBackend,
)
from repro.storage.store import BackendStore
from repro.storage.url import backend_from_spec, backend_from_url

__all__ = [
    "STALE_STAGING_AGE_S",
    "StorageBackend",
    "StoreStats",
    "current_umask",
    "honor_umask",
    "LocalFSBackend",
    "RemoteObjectBackend",
    "ObjectStore",
    "FilesystemObjectStore",
    "HTTPObjectStore",
    "backend_from_spec",
    "backend_from_url",
    "BackendStore",
]
