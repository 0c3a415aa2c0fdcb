"""Panel snapshot persistence: fingerprinting, resume, bit-identity.

The panel store's contract mirrors the snapshot store's — opening can
never be wrong, only faster — plus one more property the layout was
designed for: because the registry and every year install atomically
*on their own*, a killed ``panel-5yr`` build keeps every year it
finished and rebuilds only the missing ones.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from repro.data.panel import PanelConfig, generate_panel
from repro.data.generator import SyntheticConfig
from repro.data.geography import geography_payload
from repro.data.workers import JOB_ARRAYS, WORKER_COLUMNS
from repro.scenarios import SnapshotStore, panel_fingerprint

PANEL = PanelConfig(
    base=SyntheticConfig(target_jobs=3_000, seed=9), n_years=3
)


@pytest.fixture()
def store(tmp_path) -> SnapshotStore:
    return SnapshotStore(tmp_path / "snapshots")


def _write_panel_meta(directory, fingerprint, **fields):
    """A panel ``meta.json`` with the keys panel stores have always had."""
    meta = {"schema": 1, "fingerprint": fingerprint, **fields, "created_at": 0.0}
    (directory / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))


def _assert_panels_equal(a, b):
    assert len(a.years) == len(b.years)
    np.testing.assert_array_equal(a.sizes_by_year, b.sizes_by_year)
    for name in a.workplace.schema.names:
        np.testing.assert_array_equal(
            a.workplace.column(name), b.workplace.column(name), err_msg=name
        )
    for year, (left, right) in enumerate(zip(a.years, b.years)):
        for name in left.worker.schema.names:
            np.testing.assert_array_equal(
                left.worker.column(name),
                right.worker.column(name),
                err_msg=f"year {year}: {name}",
            )
        np.testing.assert_array_equal(left.job_worker, right.job_worker)
        np.testing.assert_array_equal(
            left.job_establishment, right.job_establishment
        )


class TestPanelFingerprint:
    def test_scopes_by_every_knob(self):
        base = panel_fingerprint(PANEL)
        assert panel_fingerprint(PanelConfig(base=PANEL.base, n_years=4)) != base
        assert (
            panel_fingerprint(
                PanelConfig(base=PANEL.base, n_years=3, growth_sigma=0.2)
            )
            != base
        )
        assert (
            panel_fingerprint(
                PanelConfig(
                    base=SyntheticConfig(target_jobs=3_000, seed=10), n_years=3
                )
            )
            != base
        )

    def test_never_collides_with_base_snapshot(self, store):
        assert panel_fingerprint(PANEL) != store.fingerprint(PANEL.base)


class TestPanelRoundTrip:
    def test_build_matches_generate_bit_for_bit(self, store):
        store.build_panel(PANEL)
        loaded = store.load_panel(panel_fingerprint(PANEL))
        assert loaded is not None
        _assert_panels_equal(generate_panel(PANEL), loaded)

    def test_mmap_load_returns_memory_maps(self, store):
        store.build_panel(PANEL)
        loaded = store.load_panel(panel_fingerprint(PANEL))
        assert isinstance(loaded.sizes_by_year, np.memmap)
        assert isinstance(loaded.years[0].job_worker, np.memmap)

    def test_contains_info_and_entries(self, store):
        fingerprint = panel_fingerprint(PANEL)
        assert not store.contains_panel(fingerprint)
        assert store.panel_entries() == []
        store.build_panel(PANEL)
        assert store.contains_panel(fingerprint)
        meta = store.panel_info(fingerprint)
        assert meta["n_years"] == PANEL.n_years
        assert meta["fingerprint"] == fingerprint
        assert [e["fingerprint"] for e in store.panel_entries()] == [
            fingerprint
        ]
        # panels are not snapshots: the flat listing must not see them.
        assert store.entries() == []

    def test_miss_then_build_then_hit(self, store):
        fingerprint = panel_fingerprint(PANEL)
        assert store.load_panel(fingerprint) is None
        store.build_panel(PANEL)
        panel = store.load_panel(fingerprint)
        assert panel is not None
        # one registry plus one directory per year were written:
        assert store.stats == {
            "hits": 1,
            "misses": 1,
            "writes": 1 + PANEL.n_years,
        }
        store.build_panel(PANEL)  # a complete panel is left as it is
        assert store.writes == 1 + PANEL.n_years
        _assert_panels_equal(panel, store.load_panel(fingerprint))

    def test_column_by_column_np_save_layout_opens_as_a_hit(self, store):
        # Panels were once persisted from a generated panel with one
        # np.save per column; such a store must open as a hit and never
        # be rewritten.
        panel = generate_panel(PANEL)
        fingerprint = panel_fingerprint(PANEL)
        registry = store.path_for(fingerprint) / "registry"
        registry.mkdir(parents=True)
        for name in panel.workplace.schema.names:
            np.save(
                registry / f"workplace__{name}.npy", panel.workplace.column(name)
            )
        np.save(registry / "sizes_by_year.npy", panel.sizes_by_year)
        (registry / "geography.json").write_text(
            json.dumps(geography_payload(panel.geography))
        )
        _write_panel_meta(
            registry,
            fingerprint,
            config=asdict(PANEL),
            n_years=len(panel.years),
            n_establishments=int(panel.workplace.n_rows),
            n_places=int(panel.geography.n_places),
            workplace_columns=list(panel.workplace.schema.names),
        )
        for year, dataset in enumerate(panel.years):
            directory = store.path_for(fingerprint) / f"year-{year}"
            directory.mkdir()
            for name in dataset.worker.schema.names:
                np.save(
                    directory / f"worker__{name}.npy", dataset.worker.column(name)
                )
            np.save(directory / "job_worker.npy", dataset.job_worker)
            np.save(directory / "job_establishment.npy", dataset.job_establishment)
            _write_panel_meta(
                directory,
                fingerprint,
                year=year,
                n_jobs=int(dataset.n_jobs),
                worker_columns=list(dataset.worker.schema.names),
            )
        loaded = store.load_panel(fingerprint)
        assert loaded is not None
        _assert_panels_equal(panel, loaded)
        store.build_panel(PANEL)
        assert store.stats == {"hits": 1, "misses": 0, "writes": 0}

    def test_every_year_workforce_file_is_fsynced_before_install(
        self, store, monkeypatch
    ):
        # Panel years land through the snapshot writer, so they inherit
        # its durability: each O(jobs) file is synced while still staged.
        fingerprint = panel_fingerprint(PANEL)
        years = [
            store.path_for(fingerprint) / f"year-{year}"
            for year in range(PANEL.n_years)
        ]
        installed_at_sync: dict[int, set] = {}
        fsync = os.fsync

        def spy(fd):
            installed_at_sync[os.fstat(fd).st_ino] = {
                year for year in years if year.exists()
            }
            fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        store.build_panel(PANEL)
        for year in years:
            for name in (*(f"worker__{n}" for n in WORKER_COLUMNS), *JOB_ARRAYS):
                inode = (year / f"{name}.npy").stat().st_ino
                label = f"{year.name}/{name}.npy"
                assert inode in installed_at_sync, f"{label} never fsynced"
                assert year not in installed_at_sync[inode], f"{label} synced late"


class TestPanelResume:
    def test_missing_year_is_rebuilt_others_untouched(self, store):
        fingerprint = panel_fingerprint(PANEL)
        store.build_panel(PANEL)
        reference = store.load_panel(fingerprint, mmap=False)
        year_dir = store.path_for(fingerprint) / "year-1"
        kept_meta = store.path_for(fingerprint) / "year-0" / "meta.json"
        kept_mtime = kept_meta.stat().st_mtime_ns
        store.backend.delete(f"{fingerprint}/year-1")
        assert not store.contains_panel(fingerprint)

        store.build_panel(PANEL)
        assert store.contains_panel(fingerprint)
        assert year_dir.is_dir()
        # year-0 was not rewritten — resume filled only the hole.
        assert kept_meta.stat().st_mtime_ns == kept_mtime
        _assert_panels_equal(reference, store.load_panel(fingerprint))

    def test_corrupt_year_is_a_miss_and_rebuilt(self, store):
        fingerprint = panel_fingerprint(PANEL)
        store.build_panel(PANEL)
        # mmap=False: the reference must survive the corruption below
        # (truncating a file under a live memory map is a SIGBUS).
        reference = store.load_panel(fingerprint, mmap=False)
        target = store.path_for(fingerprint) / "year-2" / "job_worker.npy"
        target.write_bytes(b"not numpy")
        assert store.load_panel(fingerprint) is None
        writes = store.writes
        store.build_panel(PANEL)
        assert store.writes == writes + 1  # only the corrupt year
        _assert_panels_equal(reference, store.load_panel(fingerprint))

    def test_sharded_build_matches_sequential(self, tmp_path):
        sequential = SnapshotStore(tmp_path / "seq")
        sharded = SnapshotStore(tmp_path / "shard")
        sequential.build_panel(PANEL)
        sharded.build_panel(PANEL, workers=2)
        fingerprint = panel_fingerprint(PANEL)
        _assert_panels_equal(
            sequential.load_panel(fingerprint),
            sharded.load_panel(fingerprint),
        )

    def test_build_on_an_unwritable_root_raises(self, tmp_path):
        root = tmp_path / "blocked"
        root.write_text("a file where the store root should be")
        with pytest.raises(OSError):
            SnapshotStore(root).build_panel(PANEL)
