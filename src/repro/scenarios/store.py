"""Persistent, fingerprint-addressed snapshot store — memory-mapped data.

Every run of this repro used to regenerate its synthetic economy
in-process, and the parallel sweep engine's process workers regenerated
it once *per worker*.  The :class:`SnapshotStore` makes snapshots named,
persistent artifacts instead: a generated :class:`LODESDataset` is
persisted column-by-column as ``.npy`` files under a content
fingerprint, and loaded back with ``np.load(mmap_mode="r")`` so that

- repeated CLI runs, tests and benchmarks *open* the snapshot in
  milliseconds instead of regenerating it;
- process-pool workers map the same physical pages instead of each
  materializing a private copy of the economy.

Layout (one directory per snapshot)::

    reports/snapshots/
        <fingerprint>/
            meta.json              # config, counts, column manifest
            geography.json         # places/counties/blocks + populations
            worker__age.npy        # one mmap-able array per column
            ...
            workplace__naics.npy
            ...
            job_worker.npy
            job_establishment.npy

Panels persist under their own fingerprint as one registry plus one
directory per year, each installed atomically on its own — which is
what makes ``panel-5yr`` resumable: a killed build keeps every year it
finished::

    reports/snapshots/
        <panel-fingerprint>/
            registry/              # workplace columns, geography,
                                   # sizes_by_year.npy, meta.json
            year-0/ ... year-4/    # worker columns + job arrays + meta

The fingerprint hashes the full :class:`SyntheticConfig` (generation is
fully seeded, so config ⇒ bytes), giving the store the same
no-invalidation property as the engine's result store: a changed knob
hashes to a new directory, and the engine's content-addressed point
keys — which embed the snapshot fingerprint — compose with it for free.

All I/O goes through a :class:`repro.storage.StorageBackend`: the
default :class:`~repro.storage.local.LocalFSBackend` reproduces the
historical layout byte for byte (atomic temp-dir + ``os.replace``
installs, umask honoring, age-gated staging prune), while a
:class:`~repro.storage.remote.RemoteObjectBackend` makes the same store
fleet-shareable — writes mirror to an object store, reads download to a
local cache and mmap from there.  Any unreadable, partial or
version-skewed snapshot is treated as a miss and rebuilt: persistence
must never be worse than regenerating.  :meth:`SnapshotStore.build`
generates a snapshot *directly into* the staged layout — workforce
chunks drawn by a process pool, each writing its slice of the final
``.npy`` files — so national-scale economies persist without ever
materializing in the parent process.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.data.dataset import LODESDataset
from repro.data.generator import SyntheticConfig, generate, plan_economy
from repro.data.geography import geography_from_payload, geography_payload
from repro.data.panel import (
    LODESPanel,
    PanelConfig,
    PanelPlan,
    generate_panel,
    plan_panel,
)
from repro.data.schema import worker_schema, workplace_schema
from repro.data.workers import JOB_ARRAYS, WORKER_COLUMNS, build_workforce_sharded
from repro.db.table import Table
from repro.engine.store import content_key
from repro.storage import (
    STALE_STAGING_AGE_S,
    LocalFSBackend,
    StorageBackend,
    StoreStats,
    backend_from_spec,
)
from repro.storage.backend import current_umask as _current_umask
from repro.storage.backend import honor_umask as _honor_umask
from repro.util import as_generator

__all__ = [
    "SnapshotStore",
    "DEFAULT_SNAPSHOT_DIR",
    "STALE_STAGING_AGE_S",
    "dataset_fingerprint",
    "panel_fingerprint",
]

DEFAULT_SNAPSHOT_DIR = Path("reports") / "snapshots"

SNAPSHOT_SCHEMA_VERSION = 1
PANEL_SCHEMA_VERSION = 1

META_FILE = "meta.json"
GEOGRAPHY_FILE = "geography.json"
REGISTRY_DIR = "registry"
SIZES_FILE = "sizes_by_year.npy"

_JOB_ARRAYS = JOB_ARRAYS


def dataset_fingerprint(config: SyntheticConfig) -> str:
    """Content fingerprint of the snapshot ``config`` generates.

    Hashes every generation knob (including ``chunk_jobs``, which shapes
    the worker noise streams) through the engine's canonical
    :func:`~repro.engine.store.content_key` idiom.  This is the same
    value :func:`repro.engine.plan.snapshot_fingerprint` folds into
    result-store keys via ``asdict(config)``, so snapshot and point
    caches scope consistently.
    """
    return content_key({"data": asdict(config)}, length=16)


def panel_fingerprint(config: PanelConfig) -> str:
    """Content fingerprint of the panel ``config`` generates.

    Covers the full nested base config plus every evolution knob, so a
    panel and its own base snapshot never collide — they hash different
    payload shapes — and any changed knob addresses a fresh panel.
    """
    return content_key({"panel": asdict(config)}, length=16)


class SnapshotStore:
    """A fingerprint-addressed on-disk store of LODES snapshots.

    ``hits``/``misses``/``writes`` count this instance's traffic, so
    tests (and ``repro scenarios info``) can prove a load was served
    from disk rather than regenerated; :attr:`statistics` adds the
    backend's byte traffic and eviction counts
    (:class:`~repro.storage.StoreStats`).
    """

    def __init__(
        self,
        root: Path | str | None = None,
        *,
        backend: StorageBackend | None = None,
    ):
        if backend is None:
            backend = LocalFSBackend(
                DEFAULT_SNAPSHOT_DIR if root is None else root
            )
        elif root is not None and Path(root) != backend.root:
            raise ValueError(
                f"pass either root or backend, not both "
                f"(root={str(root)!r}, backend root={str(backend.root)!r})"
            )
        self.backend = backend

    def __repr__(self) -> str:
        return (
            f"SnapshotStore({str(self.root)!r}, hits={self.hits}, "
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

    @property
    def hits(self) -> int:
        return self.backend.stats.hits

    @hits.setter
    def hits(self, value: int) -> None:
        self.backend.stats.hits = value

    @property
    def misses(self) -> int:
        return self.backend.stats.misses

    @misses.setter
    def misses(self, value: int) -> None:
        self.backend.stats.misses = value

    @property
    def writes(self) -> int:
        return self.backend.stats.writes

    @writes.setter
    def writes(self, value: int) -> None:
        self.backend.stats.writes = value

    def spec(self) -> dict:
        """A picklable description a worker process rebuilds from."""
        return {"store": "snapshot", "backend": self.backend.spec()}

    @classmethod
    def from_spec(cls, spec: dict) -> "SnapshotStore":
        return cls(backend=backend_from_spec(spec["backend"]))

    def fingerprint(self, config: SyntheticConfig) -> str:
        return dataset_fingerprint(config)

    def path_for(self, fingerprint: str) -> Path:
        """The (cache-)local directory a snapshot with ``fingerprint`` lives in."""
        if not fingerprint or any(c in fingerprint for c in "/\\."):
            raise ValueError(
                f"snapshot fingerprints are hex digests, got {fingerprint!r}"
            )
        return self.root / fingerprint

    def contains(self, fingerprint: str) -> bool:
        """Whether a snapshot directory exists (does not touch counters)."""
        self.path_for(fingerprint)
        return self.backend.contains(f"{fingerprint}/{META_FILE}")

    # -- persistence ----------------------------------------------------

    def save(
        self,
        dataset: LODESDataset,
        config: SyntheticConfig,
        *,
        fingerprint: str | None = None,
        overwrite: bool = False,
    ) -> Path:
        """Atomically persist ``dataset`` under ``config``'s fingerprint.

        The snapshot is staged and renamed into place by the backend,
        so a crashed build never leaves a partial directory a later
        load would trust.  An existing *loadable* snapshot is kept
        (same fingerprint ⇒ same bytes) unless ``overwrite=True``; an
        existing unloadable one — corrupt or partial — is always
        replaced by the fresh build.
        """
        fingerprint = fingerprint or dataset_fingerprint(config)
        final = self.path_for(fingerprint)
        self.backend.put_dir(
            fingerprint,
            lambda staging: self._write_snapshot(
                staging, dataset, config, fingerprint
            ),
            overwrite=overwrite,
            keep_existing=self._keep_loadable(fingerprint),
        )
        self.writes += 1
        return final

    def build(
        self,
        config: SyntheticConfig,
        *,
        workers: int | None = None,
        fingerprint: str | None = None,
        overwrite: bool = False,
        start_method: str | None = None,
    ) -> Path:
        """Generate ``config``'s snapshot *directly into* the store, sharded.

        Unlike :meth:`save` (which persists an already-materialized
        dataset), ``build`` runs generation against the staged snapshot
        layout itself: the parent process plans the economy (geography,
        establishments, sizes — O(places + establishments)) and writes
        the small workplace columns, while the O(jobs) worker columns
        and job link arrays are preallocated with
        ``np.lib.format.open_memmap`` and filled chunk-by-chunk by a
        process pool (``workers`` of them; ``None``/1 runs the chunk
        tasks inline).  No full-economy array ever materializes in the
        parent, and because chunks are independently seeded the
        installed directory is **byte-identical** to a sequential
        ``save(generate(config), config)`` — same fingerprint, same
        file bytes — whatever the worker count.  Under a remote
        backend the pool still stages locally; only the parent uploads
        the installed directory, once.
        """
        workers = 1 if workers is None else int(workers)
        fingerprint = fingerprint or dataset_fingerprint(config)
        final = self.path_for(fingerprint)
        # Same fingerprint ⇒ same bytes: an existing *loadable* snapshot
        # makes the whole generation pointless, not just the install.
        if (
            not overwrite
            and self._load(fingerprint, mmap=True, count=False) is not None
        ):
            return final

        def fill(staging: Path) -> None:
            plan = plan_economy(config)
            workplace_columns = list(plan.workplace.schema.names)
            for name in workplace_columns:
                np.save(
                    staging / f"workplace__{name}.npy",
                    np.ascontiguousarray(plan.workplace.column(name)),
                )
            paths: dict[str, Path] = {
                name: staging / f"worker__{name}.npy" for name in WORKER_COLUMNS
            }
            for name in _JOB_ARRAYS:
                paths[name] = staging / f"{name}.npy"
            n_jobs = build_workforce_sharded(
                plan.sizes,
                plan.sector,
                plan.estab_place,
                plan.place_mixes,
                plan.worker_rng,
                base_seed=config.seed,
                chunk_jobs=config.chunk_jobs,
                paths=paths,
                workers=workers,
                start_method=start_method,
            )
            self._write_geography(staging, plan.geography)
            self._write_meta(
                staging,
                config,
                fingerprint,
                n_jobs=n_jobs,
                n_establishments=plan.n_establishments,
                n_places=plan.geography.n_places,
                worker_columns=list(WORKER_COLUMNS),
                workplace_columns=workplace_columns,
            )

        self.backend.put_dir(
            fingerprint,
            fill,
            overwrite=overwrite,
            keep_existing=self._keep_loadable(fingerprint),
        )
        self.writes += 1
        return final

    def _keep_loadable(self, fingerprint: str):
        """Install-collision arbiter: keep the incumbent only if it loads."""
        return lambda final: (
            self._load(fingerprint, mmap=True, count=False) is not None
        )

    def _write_snapshot(
        self,
        directory: Path,
        dataset: LODESDataset,
        config: SyntheticConfig,
        fingerprint: str,
    ) -> None:
        worker_columns = list(dataset.worker.schema.names)
        workplace_columns = list(dataset.workplace.schema.names)
        for name in worker_columns:
            np.save(
                directory / f"worker__{name}.npy",
                np.ascontiguousarray(dataset.worker.column(name)),
            )
        for name in workplace_columns:
            np.save(
                directory / f"workplace__{name}.npy",
                np.ascontiguousarray(dataset.workplace.column(name)),
            )
        np.save(
            directory / "job_worker.npy",
            np.ascontiguousarray(dataset.job_worker),
        )
        np.save(
            directory / "job_establishment.npy",
            np.ascontiguousarray(dataset.job_establishment),
        )
        self._write_geography(directory, dataset.geography)
        self._write_meta(
            directory,
            config,
            fingerprint,
            n_jobs=int(dataset.n_jobs),
            n_establishments=int(dataset.n_establishments),
            n_places=int(dataset.geography.n_places),
            worker_columns=worker_columns,
            workplace_columns=workplace_columns,
        )

    def _write_geography(self, directory: Path, geography) -> None:
        (directory / GEOGRAPHY_FILE).write_text(
            json.dumps(geography_payload(geography)),
            encoding="utf-8",
        )

    def _write_meta(
        self,
        directory: Path,
        config: SyntheticConfig,
        fingerprint: str,
        *,
        n_jobs: int,
        n_establishments: int,
        n_places: int,
        worker_columns: list[str],
        workplace_columns: list[str],
    ) -> None:
        meta = {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "config": asdict(config),
            "n_jobs": int(n_jobs),
            "n_establishments": int(n_establishments),
            "n_places": int(n_places),
            "worker_columns": list(worker_columns),
            "workplace_columns": list(workplace_columns),
            "created_at": time.time(),
        }
        # meta.json is written last inside the staging dir: its presence
        # is what contains() and load() treat as "snapshot exists".
        (directory / META_FILE).write_text(
            json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8"
        )

    # -- loading --------------------------------------------------------

    def info(self, fingerprint: str) -> dict | None:
        """The snapshot's ``meta.json`` payload, or ``None`` if unusable."""
        self.path_for(fingerprint)
        return self._read_meta(
            f"{fingerprint}/{META_FILE}", SNAPSHOT_SCHEMA_VERSION
        )

    def _read_meta(self, key: str, schema_version: int) -> dict | None:
        # cache=False: installing one member file of a directory
        # artifact into a remote backend's local cache would fake a
        # partial directory into existence.
        raw = self.backend.read_bytes(key, cache=False)
        if raw is None:
            return None
        try:
            meta = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(meta, dict) or meta.get("schema") != schema_version:
            return None
        return meta

    def size_bytes(self, fingerprint: str) -> int:
        """Total stored footprint of one snapshot (or panel) directory."""
        self.path_for(fingerprint)
        return self.backend.size_bytes(fingerprint)

    def entries(self) -> list[dict]:
        """Metadata of every loadable snapshot in the store."""
        fingerprints = sorted(
            {
                key.split("/", 1)[0]
                for key in self.backend.list_keys()
                if key.count("/") == 1 and key.endswith(f"/{META_FILE}")
            }
        )
        found = []
        for fingerprint in fingerprints:
            meta = self.info(fingerprint)
            if meta is not None:
                found.append(meta)
        return found

    def load(
        self, fingerprint: str, *, mmap: bool = True
    ) -> LODESDataset | None:
        """Open the snapshot with ``fingerprint``; ``None`` (a miss) otherwise.

        With ``mmap=True`` (the default) every column is a read-only
        ``np.memmap`` view: loading costs no array copies, and processes
        sharing one store share physical pages.  Any corrupt, partial or
        version-skewed snapshot counts as a miss — the caller falls back
        to regeneration, which can never be wrong, only slower.
        """
        return self._load(fingerprint, mmap=mmap, count=True)

    def _load(
        self, fingerprint: str, *, mmap: bool, count: bool
    ) -> LODESDataset | None:
        self.path_for(fingerprint)
        directory = self.backend.open_local(fingerprint)
        meta = None
        if directory is not None:
            meta = self._meta_from_dir(directory, SNAPSHOT_SCHEMA_VERSION)
        if meta is None:
            self.misses += count
            return None
        mmap_mode = "r" if mmap else None
        try:
            geography = geography_from_payload(
                json.loads(
                    (directory / GEOGRAPHY_FILE).read_text(encoding="utf-8")
                )
            )
            worker = Table(
                worker_schema(),
                {
                    name: np.load(
                        directory / f"worker__{name}.npy", mmap_mode=mmap_mode
                    )
                    for name in meta["worker_columns"]
                },
            )
            workplace = Table(
                workplace_schema(geography),
                {
                    name: np.load(
                        directory / f"workplace__{name}.npy",
                        mmap_mode=mmap_mode,
                    )
                    for name in meta["workplace_columns"]
                },
            )
            job_worker = np.load(
                directory / "job_worker.npy", mmap_mode=mmap_mode
            )
            job_establishment = np.load(
                directory / "job_establishment.npy", mmap_mode=mmap_mode
            )
        except (OSError, ValueError, KeyError, EOFError):
            self.misses += count
            return None
        self.hits += count
        return LODESDataset(
            worker=worker,
            workplace=workplace,
            job_worker=job_worker,
            job_establishment=job_establishment,
            geography=geography,
        )

    @staticmethod
    def _meta_from_dir(directory: Path, schema_version: int) -> dict | None:
        try:
            meta = json.loads(
                (directory / META_FILE).read_text(encoding="utf-8")
            )
        except (OSError, ValueError, UnicodeDecodeError):
            return None
        if not isinstance(meta, dict) or meta.get("schema") != schema_version:
            return None
        return meta

    def load_or_generate(
        self,
        config: SyntheticConfig,
        *,
        mmap: bool = True,
        build_workers: int | None = None,
    ) -> tuple[LODESDataset, bool]:
        """Open ``config``'s snapshot, building and persisting it on a miss.

        Returns ``(dataset, was_hit)``.  On a miss the snapshot is built,
        saved, and *re-opened through the store*, so the caller always
        holds the memory-mapped artifact every other session and worker
        will share — never a private in-process copy with different
        physical pages.  With ``build_workers > 1`` the miss is filled
        by the sharded :meth:`build` (workforce chunks drawn by a
        process pool straight into the staged files); otherwise the
        dataset is generated in-process and :meth:`save`\\ d.

        Persistence must never be worse than regenerating: if the store
        root is unwritable (read-only CI cache, permission skew), the
        failure is reported as a :class:`RuntimeWarning` and the
        in-memory dataset is returned instead of raising.
        """
        fingerprint = dataset_fingerprint(config)
        dataset = self.load(fingerprint, mmap=mmap)
        if dataset is not None:
            return dataset, True
        if build_workers is not None and build_workers > 1:
            try:
                self.build(
                    config, workers=build_workers, fingerprint=fingerprint
                )
            # OSError: unwritable root.  RuntimeError: a broken process
            # pool (worker OOM-killed — precisely the memory-pressure
            # regime sharded builds target).  Both have a correct, only
            # slower, answer: generate in-process.
            except (OSError, RuntimeError) as error:
                warnings.warn(
                    f"sharded snapshot build under {self.root} failed "
                    f"({error}); falling back to in-process generation",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                reopened = self._load(fingerprint, mmap=mmap, count=False)
                if reopened is not None:
                    return reopened, False
        generated = generate(config)
        try:
            self.save(generated, config, fingerprint=fingerprint)
        except OSError as error:
            warnings.warn(
                f"snapshot store root {self.root} is not writable "
                f"({error}); returning the un-persisted in-memory snapshot",
                RuntimeWarning,
                stacklevel=2,
            )
            return generated, False
        reopened = self._load(fingerprint, mmap=mmap, count=False)
        return (reopened if reopened is not None else generated), False

    # -- panels ---------------------------------------------------------

    def panel_info(self, fingerprint: str) -> dict | None:
        """The panel registry's ``meta.json`` payload, or ``None``."""
        self.path_for(fingerprint)
        return self._read_meta(
            f"{fingerprint}/{REGISTRY_DIR}/{META_FILE}", PANEL_SCHEMA_VERSION
        )

    def contains_panel(self, fingerprint: str) -> bool:
        """Whether every year of the panel exists (no counters touched)."""
        meta = self.panel_info(fingerprint)
        if meta is None:
            return False
        return all(
            self.backend.contains(f"{fingerprint}/year-{year}/{META_FILE}")
            for year in range(int(meta["n_years"]))
        )

    def panel_entries(self) -> list[dict]:
        """Registry metadata of every panel in the store."""
        fingerprints = sorted(
            {
                key.split("/", 1)[0]
                for key in self.backend.list_keys()
                if key.endswith(f"/{REGISTRY_DIR}/{META_FILE}")
                and key.count("/") == 2
            }
        )
        found = []
        for fingerprint in fingerprints:
            meta = self.panel_info(fingerprint)
            if meta is not None:
                found.append(meta)
        return found

    def save_panel(
        self,
        panel: LODESPanel,
        config: PanelConfig,
        *,
        fingerprint: str | None = None,
        overwrite: bool = False,
    ) -> Path:
        """Atomically persist a materialized panel, year by year.

        Each year (and the registry) installs independently, so the
        panel is resumable at year granularity — exactly what
        :meth:`build_panel` exploits when it fills only missing years.
        """
        fingerprint = fingerprint or panel_fingerprint(config)
        final = self.path_for(fingerprint)
        self._put_registry(
            fingerprint,
            config,
            panel.workplace,
            panel.geography,
            panel.sizes_by_year,
            overwrite=overwrite,
        )
        for year, dataset in enumerate(panel.years):
            worker_columns = list(dataset.worker.schema.names)

            def fill(staging: Path, dataset=dataset, year=year) -> None:
                for name in dataset.worker.schema.names:
                    np.save(
                        staging / f"worker__{name}.npy",
                        np.ascontiguousarray(dataset.worker.column(name)),
                    )
                np.save(
                    staging / "job_worker.npy",
                    np.ascontiguousarray(dataset.job_worker),
                )
                np.save(
                    staging / "job_establishment.npy",
                    np.ascontiguousarray(dataset.job_establishment),
                )
                self._write_year_meta(
                    staging,
                    fingerprint,
                    year,
                    n_jobs=int(dataset.n_jobs),
                    worker_columns=worker_columns,
                )

            self.backend.put_dir(
                f"{fingerprint}/year-{year}",
                fill,
                overwrite=overwrite,
                keep_existing=self._keep_year_loadable(
                    fingerprint, year, worker_columns
                ),
            )
            self.writes += 1
        return final

    def build_panel(
        self,
        config: PanelConfig,
        *,
        workers: int | None = None,
        fingerprint: str | None = None,
        overwrite: bool = False,
        start_method: str | None = None,
    ) -> Path:
        """Generate missing panel years *directly into* the store, sharded.

        The panel plan (registry, size evolution, mixes — no O(jobs)
        arrays) is recomputed cheaply, then each missing year's
        workforce is drawn straight into that year's staged directory,
        its chunks fanned out over the process pool.  Because the plan
        is deterministic and years' streams are independently seeded,
        re-running after a crash rebuilds only the years that are not
        yet installed — the (year × chunk) fan-out the sharded builder
        was designed for.
        """
        workers = 1 if workers is None else int(workers)
        fingerprint = fingerprint or panel_fingerprint(config)
        final = self.path_for(fingerprint)
        plan: PanelPlan | None = None
        worker_columns = list(WORKER_COLUMNS)
        if overwrite or self.panel_info(fingerprint) is None:
            plan = plan_panel(config)
            self._put_registry(
                fingerprint,
                config,
                plan.workplace,
                plan.geography,
                plan.sizes_by_year,
                overwrite=overwrite,
            )
        for year in range(config.n_years):
            if not overwrite and self._load_year(
                fingerprint, year, worker_columns, mmap=True
            ) is not None:
                continue
            if plan is None:
                plan = plan_panel(config)
            self._build_year(
                fingerprint,
                plan,
                year,
                workers=workers,
                overwrite=overwrite,
                start_method=start_method,
            )
        return final

    def _put_registry(
        self,
        fingerprint: str,
        config: PanelConfig,
        workplace: Table,
        geography,
        sizes_by_year: np.ndarray,
        *,
        overwrite: bool,
    ) -> None:
        workplace_columns = list(workplace.schema.names)

        def fill(staging: Path) -> None:
            for name in workplace_columns:
                np.save(
                    staging / f"workplace__{name}.npy",
                    np.ascontiguousarray(workplace.column(name)),
                )
            np.save(
                staging / SIZES_FILE, np.ascontiguousarray(sizes_by_year)
            )
            self._write_geography(staging, geography)
            meta = {
                "schema": PANEL_SCHEMA_VERSION,
                "fingerprint": fingerprint,
                "config": asdict(config),
                "n_years": int(sizes_by_year.shape[0]),
                "n_establishments": int(workplace.n_rows),
                "n_places": int(geography.n_places),
                "workplace_columns": workplace_columns,
                "created_at": time.time(),
            }
            (staging / META_FILE).write_text(
                json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8"
            )

        self.backend.put_dir(
            f"{fingerprint}/{REGISTRY_DIR}",
            fill,
            overwrite=overwrite,
            keep_existing=lambda path: self.panel_info(fingerprint)
            is not None,
        )
        self.writes += 1

    def _build_year(
        self,
        fingerprint: str,
        plan: PanelPlan,
        year: int,
        *,
        workers: int,
        overwrite: bool,
        start_method: str | None,
    ) -> None:
        worker_columns = list(WORKER_COLUMNS)

        def fill(staging: Path) -> None:
            paths: dict[str, Path] = {
                name: staging / f"worker__{name}.npy" for name in WORKER_COLUMNS
            }
            for name in _JOB_ARRAYS:
                paths[name] = staging / f"{name}.npy"
            year_seed = plan.year_seed(year)
            n_jobs = build_workforce_sharded(
                plan.sizes_by_year[year],
                plan.workplace.column("naics"),
                plan.workplace.column("place"),
                plan.place_mixes,
                as_generator(year_seed),
                base_seed=year_seed,
                chunk_jobs=plan.config.base.chunk_jobs,
                paths=paths,
                workers=workers,
                start_method=start_method,
            )
            self._write_year_meta(
                staging,
                fingerprint,
                year,
                n_jobs=n_jobs,
                worker_columns=worker_columns,
            )

        self.backend.put_dir(
            f"{fingerprint}/year-{year}",
            fill,
            overwrite=overwrite,
            keep_existing=self._keep_year_loadable(
                fingerprint, year, worker_columns
            ),
        )
        self.writes += 1

    def _write_year_meta(
        self,
        directory: Path,
        fingerprint: str,
        year: int,
        *,
        n_jobs: int,
        worker_columns: list[str],
    ) -> None:
        meta = {
            "schema": PANEL_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "year": int(year),
            "n_jobs": int(n_jobs),
            "worker_columns": list(worker_columns),
            "created_at": time.time(),
        }
        (directory / META_FILE).write_text(
            json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8"
        )

    def _keep_year_loadable(
        self, fingerprint: str, year: int, worker_columns: list[str]
    ):
        return lambda final: (
            self._load_year(fingerprint, year, worker_columns, mmap=True)
            is not None
        )

    def _load_year(
        self,
        fingerprint: str,
        year: int,
        worker_columns: list[str],
        *,
        mmap: bool,
    ) -> dict | None:
        """Open one year's arrays; ``None`` if missing/corrupt (no counters)."""
        directory = self.backend.open_local(f"{fingerprint}/year-{year}")
        if directory is None:
            return None
        meta = self._meta_from_dir(directory, PANEL_SCHEMA_VERSION)
        if meta is None or list(meta.get("worker_columns", [])) != list(
            worker_columns
        ):
            return None
        mmap_mode = "r" if mmap else None
        try:
            arrays = {
                name: np.load(
                    directory / f"worker__{name}.npy", mmap_mode=mmap_mode
                )
                for name in worker_columns
            }
            arrays["job_worker"] = np.load(
                directory / "job_worker.npy", mmap_mode=mmap_mode
            )
            arrays["job_establishment"] = np.load(
                directory / "job_establishment.npy", mmap_mode=mmap_mode
            )
        except (OSError, ValueError, EOFError):
            return None
        return arrays

    def load_panel(
        self, fingerprint: str, *, mmap: bool = True
    ) -> LODESPanel | None:
        """Open the panel with ``fingerprint``; ``None`` (a miss) otherwise."""
        return self._load_panel(fingerprint, mmap=mmap, count=True)

    def _load_panel(
        self, fingerprint: str, *, mmap: bool, count: bool
    ) -> LODESPanel | None:
        self.path_for(fingerprint)
        registry_dir = self.backend.open_local(
            f"{fingerprint}/{REGISTRY_DIR}"
        )
        meta = None
        if registry_dir is not None:
            meta = self._meta_from_dir(registry_dir, PANEL_SCHEMA_VERSION)
        if meta is None:
            self.misses += count
            return None
        mmap_mode = "r" if mmap else None
        try:
            geography = geography_from_payload(
                json.loads(
                    (registry_dir / GEOGRAPHY_FILE).read_text(encoding="utf-8")
                )
            )
            workplace = Table(
                workplace_schema(geography),
                {
                    name: np.load(
                        registry_dir / f"workplace__{name}.npy",
                        mmap_mode=mmap_mode,
                    )
                    for name in meta["workplace_columns"]
                },
            )
            sizes_by_year = np.load(
                registry_dir / SIZES_FILE, mmap_mode=mmap_mode
            )
        except (OSError, ValueError, KeyError, EOFError):
            self.misses += count
            return None
        schema = worker_schema()
        worker_columns = list(schema.names)
        years = []
        for year in range(int(meta["n_years"])):
            arrays = self._load_year(
                fingerprint, year, worker_columns, mmap=mmap
            )
            if arrays is None:
                self.misses += count
                return None
            years.append(
                LODESDataset(
                    worker=Table(
                        schema,
                        {name: arrays[name] for name in worker_columns},
                    ),
                    workplace=workplace,
                    job_worker=arrays["job_worker"],
                    job_establishment=arrays["job_establishment"],
                    geography=geography,
                )
            )
        self.hits += count
        return LODESPanel(
            workplace=workplace,
            geography=geography,
            sizes_by_year=sizes_by_year,
            years=tuple(years),
        )

    def load_or_generate_panel(
        self,
        config: PanelConfig,
        *,
        mmap: bool = True,
        build_workers: int | None = None,
    ) -> tuple[LODESPanel, bool]:
        """Open ``config``'s panel, building missing years on a miss.

        Returns ``(panel, was_hit)``.  The miss path is resumable: the
        registry and every already-installed year are kept, only the
        missing years are drawn (sharded across ``build_workers``
        processes when > 1), and the panel is re-opened through the
        store so callers hold the memory-mapped artifact.  An
        unwritable root degrades to in-memory generation with a
        :class:`RuntimeWarning`, exactly like :meth:`load_or_generate`.
        """
        fingerprint = panel_fingerprint(config)
        panel = self._load_panel(fingerprint, mmap=mmap, count=True)
        if panel is not None:
            return panel, True
        workers = 1 if build_workers is None else int(build_workers)
        try:
            self.build_panel(
                config, workers=workers, fingerprint=fingerprint
            )
        except (OSError, RuntimeError) as error:
            warnings.warn(
                f"panel build under {self.root} failed ({error}); "
                "falling back to in-memory panel generation",
                RuntimeWarning,
                stacklevel=2,
            )
            return generate_panel(config), False
        reopened = self._load_panel(fingerprint, mmap=mmap, count=False)
        if reopened is not None:
            return reopened, False
        return generate_panel(config), False

    # -- maintenance ----------------------------------------------------

    def delete(self, fingerprint: str) -> bool:
        """Remove one snapshot (or panel) directory; True if deleted."""
        self.path_for(fingerprint)
        return self.backend.delete(fingerprint)

    def prune(self, *, max_age_s: float = STALE_STAGING_AGE_S) -> list[Path]:
        """Delete staging directories orphaned by crashed builds.

        A build that dies between staging and install leaves its
        ``.<fingerprint>.tmp-*`` directory behind forever —
        ``entries()`` skips it, but nothing ever reclaimed the space.
        Every :meth:`save`/:meth:`build` prunes with the default age
        gate (inside the backend's ``put_dir``), so leftovers disappear
        on the next write while a *concurrent* writer's live staging —
        always younger than ``max_age_s`` — is untouched.
        ``max_age_s=0`` (``repro scenarios prune --all``) clears
        everything.

        Returns the directories actually removed (an undeletable one —
        say, another user's on a shared store — is not reported).
        """
        return self.backend.prune_staging(max_age_s=max_age_s)

    def __len__(self) -> int:
        """Number of loadable snapshots under the root."""
        return len(self.entries())
