"""Backend resolution: one URL (or one picklable spec) → one backend.

The CLI's ``--store-url`` and the process driver's worker bootstrap
both need to turn a short description into a live backend; this module
is the single place that mapping lives.

URL schemes::

    /some/dir  or  relative/dir   LocalFSBackend on that directory
    file:///shared/bucket         RemoteObjectBackend over a shared
                                  filesystem "bucket" (NFS, CI cache)
    http://host:port              RemoteObjectBackend over an HTTP
    https://host:port             object server (see repro.storage.httpd)
    s3://bucket / gs://bucket     recognized but not bundled — the key
                                  layout is already S3/GCS-shaped, but
                                  this repo ships no cloud SDK, so these
                                  raise with instructions instead of
                                  half-working.

Remote backends need a *local cache root* (where downloads land and
mmaps point); callers pass the same directory they would have used as
the plain local store root, so ``--store-url`` composes with
``--snapshot-dir``/``--cache-dir`` instead of replacing them.
"""

from __future__ import annotations

from pathlib import Path
from urllib.parse import urlsplit

from repro.storage.backend import StoreStats
from repro.storage.local import LocalFSBackend
from repro.storage.remote import (
    FilesystemObjectStore,
    HTTPObjectStore,
    RemoteObjectBackend,
)

__all__ = ["backend_from_url", "backend_from_spec"]


def backend_from_url(
    url: str | Path,
    *,
    cache_root: Path | str | None = None,
    prefix: str = "",
    stats: StoreStats | None = None,
):
    """Resolve ``url`` to a live backend.

    A bare path (no scheme) is a local backend rooted there and
    ``cache_root`` is ignored; every remote scheme requires
    ``cache_root`` for the download cache.  ``prefix`` namespaces keys
    inside a shared remote (the stores use ``snapshots``/``results`` so
    one bucket serves both).
    """
    text = str(url)
    scheme = urlsplit(text).scheme if "://" in text else ""
    if scheme in ("", "local"):
        root = text.split("://", 1)[1] if scheme else text
        return LocalFSBackend(root, stats=stats)
    if scheme in ("s3", "gs"):
        raise NotImplementedError(
            f"{scheme}:// URLs need a cloud SDK this repo does not bundle; "
            "point --store-url at a file:// or http(s):// object store, or "
            f"construct RemoteObjectBackend with your own {scheme} client"
        )
    if scheme == "file":
        parts = urlsplit(text)
        objects = FilesystemObjectStore(Path(parts.netloc + parts.path))
    elif scheme in ("http", "https"):
        objects = HTTPObjectStore(text)
    else:
        raise ValueError(
            f"unrecognized store URL {text!r} "
            "(expected a path, file://, or http(s)://)"
        )
    if cache_root is None:
        raise ValueError(
            f"remote store URL {text!r} needs a local cache root "
            "(where downloads land and memory-maps point)"
        )
    return RemoteObjectBackend(
        objects, cache_root, prefix=prefix, stats=stats
    )


def backend_from_spec(spec: dict, *, stats: StoreStats | None = None):
    """Rebuild a backend from :meth:`StorageBackend.spec` output.

    This is how a store description crosses a process-pool boundary:
    the parent pickles ``store.backend.spec()`` (a plain dict), the
    worker rebuilds an equivalent backend here — local roots reattach,
    remote backends reconnect and share the same cache directory.
    """
    kind = spec.get("kind")
    if kind == "local":
        return LocalFSBackend(spec["root"], stats=stats)
    if kind == "remote":
        return backend_from_url(
            spec["url"],
            cache_root=spec["cache_root"],
            prefix=spec.get("prefix", ""),
            stats=stats,
        )
    raise ValueError(f"unrecognized backend spec {spec!r}")
