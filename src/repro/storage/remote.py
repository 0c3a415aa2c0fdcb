"""Remote object-store backend — one snapshot store shared by a fleet.

The cost model the paper's sweeps live under only pays off when built
economies and computed grid points are shared across machines: one
worker builds the ``metro-heavy`` snapshot, every other worker mmaps
it.  :class:`RemoteObjectBackend` makes that sharing a backend choice
rather than an architecture change — it keeps a full
:class:`~repro.storage.local.LocalFSBackend` as its *cache root* (so
every read still ends in a local, memory-mappable path) and mirrors
artifacts through a minimal :class:`ObjectStore` interface with
S3/GCS-shaped keys:

- **writes are write-through**: the artifact installs into the local
  cache first (atomically, exactly as the local backend would), then
  uploads; an upload failure degrades to a warning — persistence must
  never be worse than keeping the artifact locally;
- **reads are download-to-cache-then-mmap**: a cache miss fetches the
  object (or, for directory artifacts, every member file) and installs
  it into the cache atomically, so the caller always memory-maps local
  pages and a crashed download never leaves a partial directory a later
  read would trust.

Directory artifacts are committed remotely by a ``.complete`` manifest
object uploaded *last* — member objects without a manifest are
invisible, the remote analogue of ``meta.json``-written-last under the
local layout.

Two :class:`ObjectStore` implementations ship here: a filesystem one
(``file://`` URLs — a shared NFS/ci-cache directory standing in for a
bucket) and an HTTP one (``http(s)://`` — any server speaking plain
GET/PUT/DELETE, e.g. :mod:`repro.storage.httpd`).  Real ``s3://`` /
``gs://`` clients are deliberately not bundled (no extra dependencies);
the key shapes are already theirs, so wiring a client in is a
constructor, not a refactor.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import urllib.parse
import warnings
from collections.abc import Callable
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.storage.backend import STALE_STAGING_AGE_S, StoreStats
from repro.storage.local import LocalFSBackend

__all__ = [
    "ObjectStore",
    "FilesystemObjectStore",
    "HTTPObjectStore",
    "RemoteObjectBackend",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA_VERSION",
]

# The commit-point object for directory artifacts: uploaded last, so a
# directory "exists" remotely only once every member object does.
MANIFEST_NAME = ".complete"

MANIFEST_SCHEMA_VERSION = 1


@runtime_checkable
class ObjectStore(Protocol):
    """The minimal flat key → bytes interface a remote must speak."""

    url: str

    def get(self, key: str) -> bytes | None:
        """The object's bytes, or ``None`` if absent/unreadable."""
        ...

    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key`` (last write wins)."""
        ...

    # Stores MAY additionally provide
    #     put_if_absent(key, data) -> bool
    # (atomic conditional create; True iff this call created the
    # object).  It is not part of the required protocol so that thin
    # adapters over dumb blob stores still qualify;
    # RemoteObjectBackend falls back to a non-atomic exists-then-put
    # when it is missing, which claim coordination tolerates (last
    # writer wins stays the safety net).

    def exists(self, key: str) -> bool:
        ...

    def list(self, prefix: str = "") -> list[str]:
        """Sorted keys starting with ``prefix``."""
        ...

    def delete(self, key: str) -> bool:
        ...


class FilesystemObjectStore:
    """An object store on a plain directory (``file://`` URLs).

    Stands in for a bucket wherever machines already share a
    filesystem — NFS, a CI cache volume, a container bind mount — and
    serves as the reference implementation for tests.  Objects are
    files under the root; puts are atomic (temp + rename) so a
    concurrently-reading worker never sees a torn object.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.url = f"file://{self.root.resolve()}" if self.root.is_absolute() else f"file://{self.root}"

    def __repr__(self) -> str:
        return f"FilesystemObjectStore({str(self.root)!r})"

    def _path(self, key: str) -> Path:
        return self.root / key

    def get(self, key: str) -> bytes | None:
        try:
            return self._path(key).read_bytes()
        except OSError:
            return None

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with open(descriptor, "wb") as handle:
                handle.write(data)
            Path(tmp_name).replace(path)
        except BaseException:
            Path(tmp_name).unlink(missing_ok=True)
            raise

    def put_if_absent(self, key: str, data: bytes) -> bool:
        """Atomic conditional create; True iff created here.

        On a shared filesystem this is exactly the arbitration lease
        files need: of N machines racing, the one whose ``os.link``
        publish succeeds holds the claim.  Staging the bytes first
        keeps the create content-atomic — a rival must never observe a
        half-written (hence "garbage, take it over") lease.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with open(descriptor, "wb") as handle:
                handle.write(data)
            try:
                os.link(tmp_name, path)
            except FileExistsError:
                return False
        finally:
            Path(tmp_name).unlink(missing_ok=True)
        return True

    def exists(self, key: str) -> bool:
        return self._path(key).is_file()

    def list(self, prefix: str = "") -> list[str]:
        if not self.root.is_dir():
            return []
        keys = []
        for path in self.root.rglob("*"):
            if not path.is_file() or path.name.startswith(".tmp"):
                continue
            key = path.relative_to(self.root).as_posix()
            if any(
                part.startswith(".") and part != MANIFEST_NAME
                for part in key.split("/")
            ):
                continue
            if key.startswith(prefix):
                keys.append(key)
        return sorted(keys)

    def delete(self, key: str) -> bool:
        path = self._path(key)
        try:
            path.unlink()
        except OSError:
            return False
        return True


class HTTPObjectStore:
    """An object store over plain HTTP GET/PUT/DELETE (stdlib only).

    Speaks to any server that stores request bodies by path —
    :class:`repro.storage.httpd.ObjectServer` in tests and CI, or a
    real blob gateway in a deployment.  Listing uses the ``/_list``
    endpoint (query ``prefix=``), which returns a JSON array of keys.
    :mod:`urllib.request` loads on the first request, so a process that
    never speaks HTTP never imports the network stack.
    """

    def __init__(self, url: str, *, timeout: float = 30.0):
        self.url = url.rstrip("/")
        self.timeout = timeout

    def __repr__(self) -> str:
        return f"HTTPObjectStore({self.url!r})"

    def _request(
        self, key: str, *, method: str, data: bytes | None = None
    ) -> bytes | None:
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{self.url}/{urllib.parse.quote(key)}", data=data, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as reply:
                return reply.read()
        except urllib.error.HTTPError as error:
            if error.code == 404:
                return None
            raise OSError(f"{method} {key} failed: HTTP {error.code}") from error
        except urllib.error.URLError as error:
            raise OSError(f"{method} {key} failed: {error.reason}") from error

    def get(self, key: str) -> bytes | None:
        try:
            return self._request(key, method="GET")
        except OSError:
            return None

    def put(self, key: str, data: bytes) -> None:
        self._request(key, method="PUT", data=data)

    def put_if_absent(self, key: str, data: bytes) -> bool:
        """Conditional PUT (``If-None-Match: *``); 412 means someone won.

        The server arbitrates atomically (``ObjectServer`` honors the
        precondition under its object-table lock), so this is a real
        fleet-wide conditional create, not exists-then-put.
        """
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{self.url}/{urllib.parse.quote(key)}",
            data=data,
            method="PUT",
            headers={"If-None-Match": "*"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout):
                return True
        except urllib.error.HTTPError as error:
            if error.code == 412:
                return False
            raise OSError(
                f"PUT {key} failed: HTTP {error.code}"
            ) from error
        except urllib.error.URLError as error:
            raise OSError(f"PUT {key} failed: {error.reason}") from error

    def exists(self, key: str) -> bool:
        try:
            return self._request(key, method="HEAD") is not None
        except OSError:
            return False

    def list(self, prefix: str = "") -> list[str]:
        import urllib.error
        import urllib.request

        query = urllib.parse.urlencode({"prefix": prefix})
        request = urllib.request.Request(
            f"{self.url}/_list?{query}", method="GET"
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as reply:
                body = reply.read()
        except (urllib.error.URLError, OSError):
            return []
        if body is None:
            return []
        try:
            keys = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return []
        return sorted(k for k in keys if isinstance(k, str))

    def delete(self, key: str) -> bool:
        try:
            return self._request(key, method="DELETE") is not None
        except OSError:
            return False


class RemoteObjectBackend:
    """Write-through, download-to-cache storage over an :class:`ObjectStore`.

    ``root`` is the *local cache root*: every path this backend hands
    out lives under it, so callers mmap local pages exactly as with
    :class:`LocalFSBackend` — the remote only ever feeds the cache.
    ``prefix`` namespaces this backend's keys inside a shared bucket
    (e.g. ``snapshots/`` vs ``results/``), and the shared
    :class:`~repro.storage.backend.StoreStats` instance is threaded
    into the cache backend so local and remote byte traffic land in one
    ledger.
    """

    def __init__(
        self,
        objects: ObjectStore,
        cache_root: Path | str,
        *,
        prefix: str = "",
        stats: StoreStats | None = None,
    ):
        self.objects = objects
        self.prefix = prefix.strip("/")
        self.stats = stats if stats is not None else StoreStats()
        self.cache = LocalFSBackend(cache_root, stats=self.stats)

    def __repr__(self) -> str:
        return (
            f"RemoteObjectBackend({self.objects!r}, "
            f"cache_root={str(self.cache.root)!r}, prefix={self.prefix!r})"
        )

    @property
    def root(self) -> Path:
        return self.cache.root

    def _okey(self, key: str) -> str:
        return f"{self.prefix}/{key}" if self.prefix else key

    def _warn_upload(self, key: str, error: Exception) -> None:
        warnings.warn(
            f"upload of {key!r} to {self.objects.url} failed ({error}); "
            "the artifact is kept in the local cache only",
            RuntimeWarning,
            stacklevel=3,
        )

    # -- writes ---------------------------------------------------------

    def put_file(self, key: str, data: bytes) -> Path:
        """Install into the cache, then mirror to the remote (write-through)."""
        final = self.cache.put_file(key, data)
        try:
            self.objects.put(self._okey(key), data)
            self.stats.bytes_written += len(data)
        except OSError as error:
            self._warn_upload(key, error)
        return final

    def put_if_absent(self, key: str, data: bytes) -> bool:
        """Conditional create *on the remote only* — never via the cache.

        Lease files coordinate the fleet, so the authoritative store
        must arbitrate; a locally-cached lease would only coordinate
        one machine with itself.  A remote that cannot answer fails
        *open* (claim granted, warning emitted): claims are an
        optimization, and a fleet that cannot coordinate degrades to
        the pre-claim behavior — everyone computes, last writer wins —
        rather than stalling on an unreachable lease.
        """
        okey = self._okey(key)
        conditional = getattr(self.objects, "put_if_absent", None)
        try:
            if conditional is not None:
                created = bool(conditional(okey, data))
            elif self.objects.exists(okey):
                created = False
            else:
                self.objects.put(okey, data)
                created = True
        except OSError as error:
            warnings.warn(
                f"conditional put of {key!r} to {self.objects.url} failed "
                f"({error}); claiming optimistically (fail-open)",
                RuntimeWarning,
                stacklevel=2,
            )
            return True
        if created:
            self.stats.bytes_written += len(data)
        return created

    def append_line(self, key: str, data: bytes, *, fsync: bool = True) -> Path:
        """Durably append to the cached journal, then mirror it whole.

        The local cache file is the durability anchor (``O_APPEND`` +
        ``fsync``, exactly as under :class:`LocalFSBackend`); the remote
        copy is a best-effort whole-object mirror, so a fleet-visible
        journal degrades to local-only with a warning rather than losing
        the append.
        """
        final = self.cache.append_line(key, data, fsync=fsync)
        try:
            body = final.read_bytes()
            self.objects.put(self._okey(key), body)
            self.stats.bytes_written += len(body)
        except OSError as error:
            self._warn_upload(key, error)
        return final

    def put_dir(
        self,
        key: str,
        fill: Callable[[Path], None],
        *,
        overwrite: bool = False,
        keep_existing: Callable[[Path], bool] | None = None,
    ) -> Path:
        """Stage/install locally (pool-friendly), then upload once.

        ``fill`` runs against ordinary local staging — a sharded build's
        process pool writes its chunks there exactly as under the local
        backend — and only the parent process uploads the installed
        files, member objects first, the ``.complete`` manifest last.
        """
        final = self.cache.put_dir(
            key, fill, overwrite=overwrite, keep_existing=keep_existing
        )
        self._upload_dir(key, final, overwrite)
        return final

    def _upload_dir(self, key: str, final: Path, overwrite: bool) -> None:
        okey = self._okey(key)
        try:
            if not overwrite and self.objects.exists(f"{okey}/{MANIFEST_NAME}"):
                return  # same key ⇒ same bytes: the remote copy stands
            manifest: dict[str, int] = {}
            for path in sorted(p for p in final.rglob("*") if p.is_file()):
                rel = path.relative_to(final).as_posix()
                data = path.read_bytes()
                self.objects.put(f"{okey}/{rel}", data)
                self.stats.bytes_written += len(data)
                manifest[rel] = len(data)
            self.objects.put(
                f"{okey}/{MANIFEST_NAME}",
                json.dumps(
                    {"schema": MANIFEST_SCHEMA_VERSION, "files": manifest},
                    sort_keys=True,
                ).encode("utf-8"),
            )
        except OSError as error:
            self._warn_upload(key, error)

    # -- reads ----------------------------------------------------------

    def _manifest(self, key: str) -> dict[str, int] | None:
        body = self.objects.get(f"{self._okey(key)}/{MANIFEST_NAME}")
        if body is None:
            return None
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != MANIFEST_SCHEMA_VERSION
            or not isinstance(payload.get("files"), dict)
        ):
            return None
        return payload["files"]

    def open_local(self, key: str) -> Path | None:
        """A cache path for ``key``, downloading on a cache miss.

        Directory artifacts download every manifest-listed member into
        staging and install atomically, so a cached directory's
        presence still implies its completeness.  Any remote failure is
        a miss, never an exception.
        """
        cached = self.cache.open_local(key)
        if cached is not None:
            return cached
        okey = self._okey(key)
        data = self.objects.get(okey)
        if data is not None:
            self.stats.bytes_read += len(data)
            return self.cache.put_file(key, data)
        files = self._manifest(key)
        if files is None:
            return None

        def download(staging: Path) -> None:
            for rel in files:
                body = self.objects.get(f"{okey}/{rel}")
                if body is None:
                    raise OSError(f"remote object {okey}/{rel} vanished")
                self.stats.bytes_read += len(body)
                target = staging / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(body)

        try:
            return self.cache.put_dir(
                key, download, keep_existing=lambda path: True
            )
        except OSError:
            return None  # torn download: stay a miss, the cache stays clean

    def read_bytes(self, key: str, *, cache: bool = True) -> bytes | None:
        """Read one object, via the cache unless ``cache=False``.

        ``cache=False`` exists for keys *inside* directory artifacts
        (``<fingerprint>/meta.json``): installing one member file into
        the cache would fake a partial directory into existence, so
        those reads go straight to the remote.
        """
        cached = self.cache.read_bytes(key)
        if cached is not None:
            return cached
        data = self.objects.get(self._okey(key))
        if data is None:
            return None
        self.stats.bytes_read += len(data)
        if cache:
            self.cache.put_file(key, data)
        return data

    def peek(self, key: str) -> bytes | None:
        """Read the *remote* object directly; never consult or fill the cache.

        :meth:`read_bytes` serves the cached copy first, which is right
        for immutable content-addressed payloads and wrong for lease
        files that another machine may have released or taken over.
        """
        try:
            data = self.objects.get(self._okey(key))
        except OSError:
            return None
        if data is None:
            return None
        self.stats.bytes_read += len(data)
        return data

    def contains(self, key: str) -> bool:
        if self.cache.contains(key):
            return True
        okey = self._okey(key)
        return self.objects.exists(okey) or self.objects.exists(
            f"{okey}/{MANIFEST_NAME}"
        )

    def list_keys(self, prefix: str = "") -> list[str]:
        keys = set(self.cache.list_keys(prefix))
        start = len(self.prefix) + 1 if self.prefix else 0
        for okey in self.objects.list(self._okey(prefix) if prefix else self.prefix):
            key = okey[start:]
            if key and not key.endswith(MANIFEST_NAME):
                keys.add(key)
        return sorted(keys)

    def size_bytes(self, key: str) -> int:
        local = self.cache.size_bytes(key)
        if local:
            return local
        files = self._manifest(key)
        if files is not None:
            return sum(int(size) for size in files.values())
        data = self.objects.get(self._okey(key))
        return 0 if data is None else len(data)

    # -- maintenance ----------------------------------------------------

    def delete(self, key: str) -> bool:
        """Remove ``key`` from the cache *and* the remote."""
        removed = False
        if self.cache.contains(key):
            removed = self.cache.delete(key)
        okey = self._okey(key)
        try:
            removed = self.objects.delete(okey) or removed
            for member in self.objects.list(f"{okey}/"):
                removed = self.objects.delete(member) or removed
        except OSError as error:
            warnings.warn(
                f"remote delete of {key!r} failed ({error}); "
                "the local cache entry was removed",
                RuntimeWarning,
                stacklevel=2,
            )
        return removed

    def evict(self, key: str) -> bool:
        """Drop only the cached copy; the remote object stays authoritative."""
        if not self.cache.contains(key):
            return False
        return self.cache.delete(key)

    def prune_staging(
        self, *, max_age_s: float = STALE_STAGING_AGE_S
    ) -> list[Path]:
        return self.cache.prune_staging(max_age_s=max_age_s)

    def spec(self) -> dict:
        return {
            "kind": "remote",
            "url": self.objects.url,
            "cache_root": str(self.cache.root),
            "prefix": self.prefix,
        }
