"""Snapshot-store tests: round-trip fidelity, mmap sessions, robustness.

The store's contract is that opening a snapshot can never be *wrong* —
only faster than regenerating: round-trips are bit-exact, memory-mapped
sessions fingerprint and evaluate identically to generated ones, and
anything corrupt or partial is a miss that falls back to generation.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import asdict

import numpy as np
import pytest

from repro.api.session import ReleaseSession
from repro.data.generator import SyntheticConfig, generate
from repro.data.geography import geography_payload
from repro.engine.plan import grid_plan
from repro.engine.sweep import run_plan
from repro.experiments.config import ExperimentConfig
from repro.runtime import ProcessDriver, SerialDriver
from repro.scenarios import SnapshotStore, dataset_fingerprint

SMALL = SyntheticConfig(target_jobs=5_000, seed=5)

# Big enough that every stratum is populated, small enough for a
# process-pool test to stay fast.
SESSION_CONFIG = ExperimentConfig(
    data=SyntheticConfig(target_jobs=4_000, seed=11),
    n_trials=2,
    seed=11,
)


@pytest.fixture()
def store(tmp_path) -> SnapshotStore:
    return SnapshotStore(tmp_path / "snapshots")


def _assert_datasets_equal(a, b):
    for table_name in ("worker", "workplace"):
        left, right = getattr(a, table_name), getattr(b, table_name)
        assert left.schema.names == right.schema.names
        for column in left.schema.names:
            np.testing.assert_array_equal(
                left.column(column), right.column(column), err_msg=column
            )
    np.testing.assert_array_equal(a.job_worker, b.job_worker)
    np.testing.assert_array_equal(a.job_establishment, b.job_establishment)
    geo_a, geo_b = a.geography, b.geography
    assert geo_a.state_names == geo_b.state_names
    assert geo_a.county_names == geo_b.county_names
    assert geo_a.place_names == geo_b.place_names
    assert geo_a.block_names == geo_b.block_names
    assert geo_a.blocks_of_place == geo_b.blocks_of_place
    np.testing.assert_array_equal(geo_a.place_state, geo_b.place_state)
    np.testing.assert_array_equal(geo_a.place_county, geo_b.place_county)
    np.testing.assert_array_equal(
        geo_a.place_populations, geo_b.place_populations
    )


class TestRoundTrip:
    def test_all_tables_and_geography_bit_exact(self, store):
        dataset = generate(SMALL)
        store.build(SMALL)
        for mmap in (False, True):
            loaded = store.load(dataset_fingerprint(SMALL), mmap=mmap)
            assert loaded is not None
            _assert_datasets_equal(dataset, loaded)

    def test_mmap_load_returns_memory_maps(self, store):
        store.build(SMALL)
        loaded = store.load(dataset_fingerprint(SMALL), mmap=True)
        assert isinstance(loaded.job_worker, np.memmap)
        assert isinstance(loaded.job_establishment, np.memmap)
        age = loaded.worker.column("age")
        assert isinstance(age, np.memmap) or isinstance(age.base, np.memmap)

    def test_load_or_generate_miss_then_hit(self, store):
        first, hit_first = store.load_or_generate(SMALL)
        assert not hit_first
        assert store.stats == {"hits": 0, "misses": 1, "writes": 1}
        second, hit_second = store.load_or_generate(SMALL)
        assert hit_second
        assert store.stats == {"hits": 1, "misses": 1, "writes": 1}
        _assert_datasets_equal(first, second)

    def test_store_loaded_equals_generated(self, store):
        loaded, _ = store.load_or_generate(SMALL)
        _assert_datasets_equal(loaded, generate(SMALL))

    def test_miss_builds_without_generating_in_memory(self, store, monkeypatch):
        # A miss fills the store through build() and opens the result:
        # no in-process copy of the economy is ever generated.
        monkeypatch.setattr("repro.scenarios.store.generate", _boom)
        dataset, hit = store.load_or_generate(SMALL)
        assert not hit
        assert isinstance(dataset.job_worker, np.memmap)
        assert store.stats == {"hits": 0, "misses": 1, "writes": 1}

    def test_column_by_column_np_save_layout_opens_as_a_hit(self, store):
        # Snapshots were once persisted with one np.save per column;
        # such a directory must open as a hit and never be rewritten.
        dataset = generate(SMALL)
        fingerprint = dataset_fingerprint(SMALL)
        directory = store.path_for(fingerprint)
        directory.mkdir(parents=True)
        for table in ("worker", "workplace"):
            columns = getattr(dataset, table)
            for name in columns.schema.names:
                np.save(directory / f"{table}__{name}.npy", columns.column(name))
        np.save(directory / "job_worker.npy", dataset.job_worker)
        np.save(directory / "job_establishment.npy", dataset.job_establishment)
        (directory / "geography.json").write_text(
            json.dumps(geography_payload(dataset.geography))
        )
        meta = {
            "schema": 1,
            "fingerprint": fingerprint,
            "config": asdict(SMALL),
            "n_jobs": int(dataset.n_jobs),
            "n_establishments": int(dataset.n_establishments),
            "n_places": int(dataset.geography.n_places),
            "worker_columns": list(dataset.worker.schema.names),
            "workplace_columns": list(dataset.workplace.schema.names),
            "created_at": 0.0,
        }
        (directory / "meta.json").write_text(json.dumps(meta, indent=2))
        loaded, hit = store.load_or_generate(SMALL)
        assert hit
        assert store.stats == {"hits": 1, "misses": 0, "writes": 0}
        _assert_datasets_equal(dataset, loaded)

    def test_fingerprint_scopes_by_every_knob(self):
        base = dataset_fingerprint(SMALL)
        assert base == dataset_fingerprint(SyntheticConfig(target_jobs=5_000, seed=5))
        assert base != dataset_fingerprint(SyntheticConfig(target_jobs=5_001, seed=5))
        assert base != dataset_fingerprint(SyntheticConfig(target_jobs=5_000, seed=6))
        assert base != dataset_fingerprint(
            SyntheticConfig(target_jobs=5_000, seed=5, chunk_jobs=1_000)
        )

    def test_entries_and_info(self, store):
        assert store.entries() == []
        store.load_or_generate(SMALL)
        entries = store.entries()
        assert len(entries) == len(store) == 1
        meta = store.info(dataset_fingerprint(SMALL))
        assert meta["n_jobs"] == entries[0]["n_jobs"] > 0
        assert meta["config"]["seed"] == 5
        assert store.size_bytes(dataset_fingerprint(SMALL)) > 0

    def test_delete(self, store):
        fingerprint = dataset_fingerprint(SMALL)
        store.load_or_generate(SMALL)
        assert store.delete(fingerprint)
        assert not store.contains(fingerprint)
        assert not store.delete(fingerprint)


class TestRobustness:
    def test_missing_snapshot_is_a_miss(self, store):
        assert store.load("0123456789abcdef") is None
        assert store.misses == 1

    def test_corrupt_meta_is_a_miss(self, store):
        fingerprint = dataset_fingerprint(SMALL)
        store.load_or_generate(SMALL)
        (store.path_for(fingerprint) / "meta.json").write_text("{not json")
        assert store.load(fingerprint) is None
        assert not store.contains(fingerprint) or store.info(fingerprint) is None

    def test_partial_snapshot_is_a_miss(self, store):
        fingerprint = dataset_fingerprint(SMALL)
        store.load_or_generate(SMALL)
        (store.path_for(fingerprint) / "worker__age.npy").unlink()
        assert store.load(fingerprint) is None

    def test_truncated_column_is_a_miss(self, store):
        fingerprint = dataset_fingerprint(SMALL)
        store.load_or_generate(SMALL)
        path = store.path_for(fingerprint) / "job_worker.npy"
        path.write_bytes(path.read_bytes()[:16])
        assert store.load(fingerprint) is None

    def test_version_skew_is_a_miss(self, store):
        fingerprint = dataset_fingerprint(SMALL)
        store.load_or_generate(SMALL)
        meta_path = store.path_for(fingerprint) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["schema"] = 999
        meta_path.write_text(json.dumps(meta))
        assert store.load(fingerprint) is None

    def test_miss_falls_back_to_regeneration(self, store):
        fingerprint = dataset_fingerprint(SMALL)
        store.load_or_generate(SMALL)
        (store.path_for(fingerprint) / "meta.json").write_text("{not json")
        dataset, hit = store.load_or_generate(SMALL)
        assert not hit
        _assert_datasets_equal(dataset, generate(SMALL))

    def test_bad_fingerprint_rejected(self, store):
        with pytest.raises(ValueError):
            store.path_for("../escape")
        with pytest.raises(ValueError):
            store.path_for("")


class TestSessionIntegration:
    def test_mmap_session_matches_generated_session(self, store):
        plain = ReleaseSession(SESSION_CONFIG)
        mapped = ReleaseSession(SESSION_CONFIG, snapshot_store=store)
        assert not mapped.dataset_provided
        assert mapped.snapshot_fingerprint == plain.snapshot_fingerprint
        _assert_datasets_equal(plain.dataset, mapped.dataset)

        plan = grid_plan(
            "workload-1",
            "l1-ratio",
            ("smooth-laplace",),
            (0.1,),
            (1.0, 2.0),
            fingerprint=plain.snapshot_fingerprint,
            delta=0.05,
            n_trials=2,
            seed=11,
        )
        points_plain = run_plan(plan, plain, executor=SerialDriver()).points
        points_mapped = run_plan(plan, mapped, executor=SerialDriver()).points
        assert _same_points(points_plain, points_mapped)

    def test_from_scenario_uses_store(self, store):
        session = ReleaseSession.from_scenario(
            "paper-default", snapshot_store=store, n_trials=1
        )
        assert session.config.scenario == "paper-default"
        assert store.writes == 1
        again = ReleaseSession.from_scenario(
            "paper-default", snapshot_store=store, n_trials=1
        )
        assert store.hits == 1
        assert again.snapshot_fingerprint == session.snapshot_fingerprint

    def test_provided_dataset_ignores_store(self, store):
        dataset = generate(SMALL)
        session = ReleaseSession(SESSION_CONFIG, dataset=dataset)
        assert session.snapshot_store is None
        assert session.dataset_provided


class TestStagingHygiene:
    """Crashed builds must not leak staging dirs; live ones must survive."""

    @staticmethod
    def _plant_staging(root, name=".deadbeef.tmp-crashed", age_s=0.0):
        import os
        import time

        root.mkdir(parents=True, exist_ok=True)
        staging = root / name
        staging.mkdir()
        (staging / "worker__age.npy").write_bytes(b"partial")
        if age_s:
            old = time.time() - age_s
            os.utime(staging, (old, old))
        return staging

    def test_next_build_removes_stale_staging(self, tmp_path):
        root = tmp_path / "snapshots"
        store = SnapshotStore(root)  # store opened before the crash
        stale = self._plant_staging(root, age_s=7 * 24 * 3600)
        store.build(SMALL)
        assert not stale.exists()
        assert store.load(dataset_fingerprint(SMALL)) is not None

    def test_explicit_prune_reports_stale_staging(self, tmp_path):
        # Opening a store must NOT prune (so `repro scenarios prune`
        # has something to find and report); the API call does.
        root = tmp_path / "snapshots"
        stale = self._plant_staging(root, age_s=7 * 24 * 3600)
        store = SnapshotStore(root)
        assert stale.exists()
        assert store.prune() == [stale]
        assert not stale.exists()

    def test_fresh_staging_survives_the_age_gate(self, tmp_path):
        # A concurrent writer's live staging dir is younger than the
        # gate: neither init, build, nor a default prune may touch it.
        root = tmp_path / "snapshots"
        fresh = self._plant_staging(root, name=".cafe.tmp-live")
        store = SnapshotStore(root)
        store.build(SMALL)
        assert store.prune() == []
        assert fresh.exists()
        assert store.prune(max_age_s=0.0) == [fresh]
        assert not fresh.exists()

    def test_prune_ignores_non_staging_entries(self, tmp_path):
        root = tmp_path / "snapshots"
        root.mkdir()
        keep_file = root / ".keep"
        keep_file.write_text("")
        plain_dir = root / "0123456789abcdef"
        plain_dir.mkdir()
        store = SnapshotStore(root)
        assert store.prune(max_age_s=0.0) == []
        assert keep_file.exists() and plain_dir.is_dir()

    def test_entries_unaffected_by_staging_dirs(self, tmp_path):
        root = tmp_path / "snapshots"
        store = SnapshotStore(root)
        self._plant_staging(root, name=".feed.tmp-x")  # fresh: survives
        assert store.entries() == []
        assert len(store) == 0


class TestUmask:
    """Installed snapshots honor the process umask, not mkdtemp's 0o700."""

    @pytest.fixture()
    def shared_umask(self):
        import os

        previous = os.umask(0o022)
        try:
            yield 0o022
        finally:
            os.umask(previous)

    @staticmethod
    def _modes(directory):
        import stat

        dir_mode = stat.S_IMODE(directory.stat().st_mode)
        file_modes = {
            p.name: stat.S_IMODE(p.stat().st_mode)
            for p in directory.iterdir()
            if p.is_file()
        }
        return dir_mode, file_modes

    def test_inline_build_is_group_other_readable(self, store, shared_umask):
        store.build(SMALL)
        directory = store.path_for(dataset_fingerprint(SMALL))
        dir_mode, file_modes = self._modes(directory)
        assert dir_mode == 0o755
        for name, mode in file_modes.items():
            assert mode == 0o644, f"{name} has mode {oct(mode)}"

    def test_sharded_build_is_group_other_readable(self, store, shared_umask):
        store.build(SMALL, workers=2)
        directory = store.path_for(dataset_fingerprint(SMALL))
        dir_mode, file_modes = self._modes(directory)
        assert dir_mode == 0o755
        assert all(mode == 0o644 for mode in file_modes.values()), file_modes


class TestUnwritableRoot:
    """load_or_generate degrades to in-memory data instead of raising."""

    @pytest.fixture()
    def file_root(self, tmp_path):
        # A root path occupied by a regular file defeats mkdir/mkdtemp
        # for every uid (even root), unlike permission bits.
        root = tmp_path / "not-a-directory"
        root.write_text("occupied")
        return root

    def test_load_or_generate_returns_in_memory_dataset(self, file_root):
        store = SnapshotStore(file_root)
        with pytest.warns(RuntimeWarning, match="not writable"):
            dataset, hit = store.load_or_generate(SMALL)
        assert not hit
        _assert_datasets_equal(dataset, generate(SMALL))
        assert store.writes == 0

    def test_sharded_miss_falls_back_too(self, file_root):
        store = SnapshotStore(file_root)
        with pytest.warns(RuntimeWarning):
            dataset, hit = store.load_or_generate(SMALL, build_workers=2)
        assert not hit
        _assert_datasets_equal(dataset, generate(SMALL))

    def test_explicit_build_still_raises(self, file_root):
        # The fallback is load_or_generate's contract, not build's: a
        # caller persisting explicitly must hear about the failure.
        store = SnapshotStore(file_root)
        with pytest.raises(OSError):
            store.build(SMALL)


def _same_points(a, b) -> bool:
    from repro.engine.points import points_identical

    return len(a) == len(b) and all(
        points_identical(x, y) for x, y in zip(a, b)
    )


def _boom(*args, **kwargs):  # pragma: no cover - must never run
    raise AssertionError("the stored snapshot must be opened, not regenerated")


class TestWorkerBootstrap:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method required to inherit the patched generator",
    )
    def test_process_workers_load_from_store_not_generate(
        self, store, monkeypatch
    ):
        """Workers of a store-backed session never call generate().

        The parent session persists the snapshot; generation is then
        patched to raise before the (forked) pool spins up, so any
        worker falling back to regeneration would fail its shard.
        """
        session = ReleaseSession(SESSION_CONFIG, snapshot_store=store)
        plan = grid_plan(
            "workload-1",
            "l1-ratio",
            ("smooth-laplace", "log-laplace"),
            (0.1,),
            (1.0, 2.0),
            fingerprint=session.snapshot_fingerprint,
            delta=0.05,
            n_trials=2,
            seed=11,
        )
        serial = run_plan(plan, session, executor=SerialDriver())

        monkeypatch.setattr("repro.data.generator.generate", _boom)
        monkeypatch.setattr("repro.api.session.generate", _boom)
        monkeypatch.setattr("repro.scenarios.store.generate", _boom)
        parallel = run_plan(
            plan,
            session,
            executor=ProcessDriver(workers=2, start_method="fork"),
            merge_spend=False,
        )

        assert _same_points(serial.points, parallel.points)
