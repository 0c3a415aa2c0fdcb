"""Persistent, fingerprint-addressed snapshot store — memory-mapped data.

Every run of this repro used to regenerate its synthetic economy
in-process, and the parallel sweep engine's process workers regenerated
it once *per worker*.  The :class:`SnapshotStore` makes snapshots named,
persistent artifacts instead: a :class:`LODESDataset` is persisted
column-by-column as ``.npy`` files under a content fingerprint, and
loaded back with ``np.load(mmap_mode="r")`` so that

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

There is one writer.  :meth:`SnapshotStore.build` (and, per year,
:meth:`SnapshotStore.build_panel`) generates *directly into* the staged
layout: the parent plans the economy and saves the small workplace
columns, while the O(jobs) worker columns and job arrays are drawn
chunk by chunk — inline, or by a process pool — into their byte ranges
of the final ``.npy`` files, which are fsynced before the directory
installs.  National-scale economies therefore persist without ever
materializing in the parent, and every stored file is byte-identical to
``np.save`` of the matching :func:`generate` column.

All I/O goes through a :class:`repro.storage.StorageBackend`: the
default :class:`~repro.storage.local.LocalFSBackend` reproduces the
historical layout byte for byte (atomic temp-dir + ``os.replace``
installs, umask honoring, age-gated staging prune), while a
:class:`~repro.storage.remote.RemoteObjectBackend` makes the same store
fleet-shareable — writes mirror to an object store, reads download to a
local cache and mmap from there.  Any unreadable, partial or
version-skewed snapshot is treated as a miss and rebuilt: persistence
must never be worse than regenerating.
"""

from __future__ import annotations

import functools
import json
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.data.dataset import LODESDataset
from repro.data.generator import SyntheticConfig, generate, plan_economy
from repro.data.geography import geography_from_payload, geography_payload
from repro.data.panel import LODESPanel, PanelConfig, plan_panel
from repro.data.schema import worker_schema, workplace_schema
from repro.data.workers import JOB_ARRAYS, WORKER_COLUMNS, build_workforce_sharded
from repro.db.table import Table
from repro.engine.store import content_key
from repro.storage import STALE_STAGING_AGE_S, BackendStore
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

# What opening a missing, truncated or corrupt stored file raises.
_UNREADABLE = (OSError, ValueError, KeyError, EOFError)


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


# -- one directory's files ---------------------------------------------


def _open_array(path: Path, mmap: bool) -> np.ndarray:
    return np.load(path, mmap_mode="r" if mmap else None)


def _write_workplace(directory: Path, workplace: Table) -> list[str]:
    """Save every workplace column; returns the column manifest."""
    names = list(workplace.schema.names)
    for name in names:
        np.save(
            directory / f"workplace__{name}.npy",
            np.ascontiguousarray(workplace.column(name)),
        )
    return names


def _open_workplace(
    directory: Path, names: list[str], geography, mmap: bool
) -> Table:
    return Table(
        workplace_schema(geography),
        {
            name: _open_array(directory / f"workplace__{name}.npy", mmap)
            for name in names
        },
    )


def _write_workforce(
    staging: Path,
    sizes: np.ndarray,
    sector: np.ndarray,
    place: np.ndarray,
    mixes,
    rng: np.random.Generator,
    *,
    base_seed: int,
    chunk_jobs: int,
    workers: int | None,
    start_method: str | None,
) -> int:
    """Draw the worker columns and job arrays into ``staging``; job count."""
    paths = {name: staging / f"worker__{name}.npy" for name in WORKER_COLUMNS}
    for name in JOB_ARRAYS:
        paths[name] = staging / f"{name}.npy"
    return build_workforce_sharded(
        sizes,
        sector,
        place,
        mixes,
        rng,
        base_seed=base_seed,
        chunk_jobs=chunk_jobs,
        paths=paths,
        workers=1 if workers is None else int(workers),
        start_method=start_method,
    )


def _open_workforce(
    directory: Path,
    worker_columns: list[str],
    workplace: Table | None,
    geography,
    mmap: bool,
) -> LODESDataset:
    """The workforce stored in ``directory``, over the given workplace.

    Raises one of :data:`_UNREADABLE` when a file is missing or corrupt.
    """
    return LODESDataset(
        worker=Table(
            worker_schema(),
            {
                name: _open_array(directory / f"worker__{name}.npy", mmap)
                for name in worker_columns
            },
        ),
        workplace=workplace,
        job_worker=_open_array(directory / "job_worker.npy", mmap),
        job_establishment=_open_array(directory / "job_establishment.npy", mmap),
        geography=geography,
    )


def _write_geography(directory: Path, geography) -> None:
    (directory / GEOGRAPHY_FILE).write_text(
        json.dumps(geography_payload(geography)), encoding="utf-8"
    )


def _read_geography(directory: Path):
    return geography_from_payload(
        json.loads((directory / GEOGRAPHY_FILE).read_text(encoding="utf-8"))
    )


def _write_meta(
    directory: Path, schema: int, fingerprint: str, **fields
) -> None:
    """Write ``meta.json`` — last, since its presence means "installed"."""
    meta = {
        "schema": schema,
        "fingerprint": fingerprint,
        **fields,
        "created_at": time.time(),
    }
    (directory / META_FILE).write_text(
        json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8"
    )


def _parse_meta(raw: bytes | None, schema_version: int) -> dict | None:
    """A ``meta.json`` payload of ``schema_version``; ``None`` if unusable."""
    if raw is None:
        return None
    try:
        meta = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(meta, dict) or meta.get("schema") != schema_version:
        return None
    return meta


def _meta_from_dir(directory: Path | None, schema_version: int) -> dict | None:
    if directory is None:
        return None
    try:
        raw = (directory / META_FILE).read_bytes()
    except OSError:
        return None
    return _parse_meta(raw, schema_version)


class SnapshotStore(BackendStore):
    """A fingerprint-addressed on-disk store of LODES snapshots.

    ``hits``/``misses``/``writes`` count this instance's traffic, so
    tests (and ``repro scenarios info``) can prove a load was served
    from disk rather than regenerated; :attr:`statistics` adds the
    backend's byte traffic and eviction counts
    (:class:`~repro.storage.StoreStats`).
    """

    default_root = DEFAULT_SNAPSHOT_DIR
    kind = "snapshot"

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

    # -- the writer -----------------------------------------------------

    def build(
        self,
        config: SyntheticConfig,
        *,
        workers: int | None = None,
        fingerprint: str | None = None,
        overwrite: bool = False,
        start_method: str | None = None,
    ) -> Path:
        """Generate ``config``'s snapshot *directly into* the store.

        The one snapshot writer.  Generation runs against the staged
        layout itself: the parent process plans the economy (geography,
        establishments, sizes — O(places + establishments)) and saves
        the small workplace columns, while the O(jobs) worker columns
        and job link arrays are drawn chunk by chunk into their byte
        ranges of the staged ``.npy`` files — by a process pool of
        ``workers`` (``None``/1 runs the chunk tasks inline) — and
        fsynced before the directory installs.  No full-economy array
        ever materializes in the parent, and because chunks are
        independently seeded every file is **byte-identical** to
        ``np.save`` of :func:`generate`'s column, whatever the worker
        count.  An existing *loadable* snapshot is kept (same
        fingerprint ⇒ same bytes) unless ``overwrite=True``; an
        unloadable one — corrupt or partial — is replaced.  Under a
        remote backend the pool still stages locally; only the parent
        uploads the installed directory, once.
        """
        fingerprint = fingerprint or dataset_fingerprint(config)
        final = self.path_for(fingerprint)

        def fill(staging: Path) -> None:
            plan = plan_economy(config)
            workplace_columns = _write_workplace(staging, plan.workplace)
            n_jobs = _write_workforce(
                staging,
                plan.sizes,
                plan.sector,
                plan.estab_place,
                plan.place_mixes,
                plan.worker_rng,
                base_seed=config.seed,
                chunk_jobs=config.chunk_jobs,
                workers=workers,
                start_method=start_method,
            )
            _write_geography(staging, plan.geography)
            _write_meta(
                staging,
                SNAPSHOT_SCHEMA_VERSION,
                fingerprint,
                config=asdict(config),
                n_jobs=n_jobs,
                n_establishments=int(plan.n_establishments),
                n_places=int(plan.geography.n_places),
                worker_columns=list(WORKER_COLUMNS),
                workplace_columns=workplace_columns,
            )

        self._install(
            fingerprint,
            fill,
            overwrite=overwrite,
            loadable=lambda: self._load(fingerprint, mmap=True, count=False)
            is not None,
        )
        return final

    def _install(self, key: str, fill, *, overwrite: bool, loadable) -> None:
        """Stage, fill and install one directory unless a loadable one exists.

        Same key ⇒ same bytes: a loadable incumbent makes the whole
        generation pointless, not just the install, and wins an install
        collision with a concurrent writer.
        """
        if not overwrite and loadable():
            return
        self.backend.put_dir(
            key,
            fill,
            overwrite=overwrite,
            keep_existing=lambda final: loadable(),
        )
        self.writes += 1

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
        return _parse_meta(
            self.backend.read_bytes(key, cache=False), schema_version
        )

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
        meta = _meta_from_dir(directory, SNAPSHOT_SCHEMA_VERSION)
        dataset = None
        if meta is not None:
            try:
                geography = _read_geography(directory)
                dataset = _open_workforce(
                    directory,
                    meta["worker_columns"],
                    _open_workplace(
                        directory, meta["workplace_columns"], geography, mmap
                    ),
                    geography,
                    mmap,
                )
            except _UNREADABLE:
                pass
        if dataset is None:
            self.misses += count
        else:
            self.hits += count
        return dataset

    def load_or_generate(
        self,
        config: SyntheticConfig,
        *,
        build_workers: int | None = None,
    ) -> tuple[LODESDataset, bool]:
        """Open ``config``'s snapshot, building it on a miss.

        Returns ``(dataset, was_hit)``.  A miss is filled by
        :meth:`build` (sharded over ``build_workers`` processes when
        > 1, inline otherwise) and the snapshot is *re-opened through
        the store*, so the caller always holds the memory-mapped
        artifact every other session and worker will share — never a
        private in-process copy with different physical pages.

        Persistence must never be worse than regenerating: if the store
        root is unwritable (read-only CI cache, permission skew) or the
        build pool breaks, the failure is reported as a
        :class:`RuntimeWarning` and :func:`generate`'s in-memory dataset
        is returned instead of raising.
        """
        fingerprint = dataset_fingerprint(config)
        dataset = self.load(fingerprint)
        if dataset is not None:
            return dataset, True
        try:
            self.build(config, workers=build_workers, fingerprint=fingerprint)
        # OSError: unwritable root.  RuntimeError: a broken process
        # pool (worker OOM-killed — precisely the memory-pressure regime
        # sharded builds target).  Both have a correct, only slower,
        # answer: generate in-process.
        except (OSError, RuntimeError) as error:
            warnings.warn(
                f"snapshot store root {self.root} is not writable or its "
                f"build failed ({error}); returning the un-persisted "
                "in-memory snapshot",
                RuntimeWarning,
                stacklevel=2,
            )
            return generate(config), False
        reopened = self._load(fingerprint, mmap=True, count=False)
        return (reopened if reopened is not None else generate(config)), False

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
        arrays) is recomputed cheaply, and only if something is
        missing; then each missing year's workforce is drawn straight
        into that year's staged directory through the same writer as
        :meth:`build`, its chunks fanned out over the process pool.
        Because the plan is deterministic and years' streams are
        independently seeded, re-running after a crash rebuilds only
        the years that are not yet installed — the (year × chunk)
        fan-out the sharded builder was designed for.
        """
        fingerprint = fingerprint or panel_fingerprint(config)
        final = self.path_for(fingerprint)
        planned = functools.cache(lambda: plan_panel(config))

        def fill(staging: Path) -> None:
            plan = planned()
            workplace_columns = _write_workplace(staging, plan.workplace)
            np.save(
                staging / SIZES_FILE, np.ascontiguousarray(plan.sizes_by_year)
            )
            _write_geography(staging, plan.geography)
            _write_meta(
                staging,
                PANEL_SCHEMA_VERSION,
                fingerprint,
                config=asdict(config),
                n_years=plan.n_years,
                n_establishments=int(plan.n_establishments),
                n_places=int(plan.geography.n_places),
                workplace_columns=workplace_columns,
            )

        self._install(
            f"{fingerprint}/{REGISTRY_DIR}",
            fill,
            overwrite=overwrite,
            loadable=lambda: self.panel_info(fingerprint) is not None,
        )
        for year in range(config.n_years):
            self._build_year(
                fingerprint,
                planned,
                year,
                workers=workers,
                overwrite=overwrite,
                start_method=start_method,
            )
        return final

    def _build_year(
        self,
        fingerprint: str,
        planned,
        year: int,
        *,
        workers: int | None,
        overwrite: bool,
        start_method: str | None,
    ) -> None:
        def fill(staging: Path) -> None:
            plan = planned()
            year_seed = plan.year_seed(year)
            n_jobs = _write_workforce(
                staging,
                plan.sizes_by_year[year],
                plan.workplace.column("naics"),
                plan.workplace.column("place"),
                plan.place_mixes,
                as_generator(year_seed),
                base_seed=year_seed,
                chunk_jobs=plan.config.base.chunk_jobs,
                workers=workers,
                start_method=start_method,
            )
            _write_meta(
                staging,
                PANEL_SCHEMA_VERSION,
                fingerprint,
                year=int(year),
                n_jobs=n_jobs,
                worker_columns=list(WORKER_COLUMNS),
            )

        # Only loadability matters here, so the year opens over no
        # registry tables.
        self._install(
            f"{fingerprint}/year-{year}",
            fill,
            overwrite=overwrite,
            loadable=lambda: self._load_year(
                fingerprint, year, None, None, mmap=True
            )
            is not None,
        )

    def _load_year(
        self,
        fingerprint: str,
        year: int,
        workplace: Table | None,
        geography,
        *,
        mmap: bool,
    ) -> LODESDataset | None:
        """Open one year over the registry; ``None`` if missing/corrupt (no counters)."""
        directory = self.backend.open_local(f"{fingerprint}/year-{year}")
        meta = _meta_from_dir(directory, PANEL_SCHEMA_VERSION)
        if meta is None:
            return None
        try:
            return _open_workforce(
                directory, meta["worker_columns"], workplace, geography, mmap
            )
        except _UNREADABLE:
            return None

    def load_panel(
        self, fingerprint: str, *, mmap: bool = True
    ) -> LODESPanel | None:
        """Open the panel with ``fingerprint``; ``None`` (a miss) otherwise."""
        self.path_for(fingerprint)
        registry = self.backend.open_local(f"{fingerprint}/{REGISTRY_DIR}")
        meta = _meta_from_dir(registry, PANEL_SCHEMA_VERSION)
        panel = None
        if meta is not None:
            try:
                geography = _read_geography(registry)
                workplace = _open_workplace(
                    registry, meta["workplace_columns"], geography, mmap
                )
                panel = LODESPanel(
                    workplace=workplace,
                    geography=geography,
                    sizes_by_year=_open_array(registry / SIZES_FILE, mmap),
                    years=tuple(
                        self._load_year(
                            fingerprint, year, workplace, geography, mmap=mmap
                        )
                        for year in range(int(meta["n_years"]))
                    ),
                )
            except _UNREADABLE:
                pass
        if panel is None or any(year is None for year in panel.years):
            self.misses += 1
            return None
        self.hits += 1
        return panel

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
        Every :meth:`build` prunes with the default age gate (inside
        the backend's ``put_dir``), so leftovers disappear on the next
        build while a *concurrent* writer's live staging — always
        younger than ``max_age_s`` — is untouched.  ``max_age_s=0``
        (``repro scenarios prune --all``) clears everything.

        Returns the directories actually removed (an undeletable one —
        say, another user's on a shared store — is not reported).
        """
        return self.backend.prune_staging(max_age_s=max_age_s)

    def __len__(self) -> int:
        """Number of loadable snapshots under the root."""
        return len(self.entries())
