"""The one snapshot writer: byte-for-byte ``np.save`` of ``generate()``.

The contract of ``SnapshotStore.build`` — whatever the worker count,
chunks drawn inline or by a process pool writing straight into the
staged ``.npy`` files — is that every stored column is byte-identical
to ``np.save`` of the matching :func:`generate` column, that two builds
of one config are indistinguishable (``meta.json`` compared modulo its
``created_at`` wall-clock stamp), and that every O(jobs) file is
fsynced before the directory installs.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np
import pytest

from repro.api.session import ReleaseSession
from repro.data.generator import SyntheticConfig, generate
from repro.data.workers import JOB_ARRAYS, WORKER_COLUMNS, build_workforce_sharded
from repro.experiments.config import ExperimentConfig
from repro.scenarios import (
    SnapshotStore,
    dataset_fingerprint,
    register_scenario,
    scenario_spec,
    unregister_scenario,
)

# Small enough for process-pool tests to stay fast, chunked finely
# enough that the sharded path really fans out (~8 chunks).
MULTI_CHUNK = SyntheticConfig(target_jobs=12_000, seed=31, chunk_jobs=1_500)


def assert_snapshot_dirs_identical(a, b):
    """Byte-compare two snapshot directories (meta modulo created_at)."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    assert names_a == names_b
    for name in names_a:
        bytes_a = (a / name).read_bytes()
        bytes_b = (b / name).read_bytes()
        if name == "meta.json":
            meta_a, meta_b = json.loads(bytes_a), json.loads(bytes_b)
            meta_a.pop("created_at")
            meta_b.pop("created_at")
            assert meta_a == meta_b, "meta payload differs"
        else:
            assert bytes_a == bytes_b, f"{name} differs"


def assert_columns_match_generate(directory, config):
    """Each stored ``.npy`` equals ``np.save`` of ``generate(config)``'s column."""
    dataset = generate(config)
    arrays = {
        "job_worker": dataset.job_worker,
        "job_establishment": dataset.job_establishment,
    }
    for table in ("worker", "workplace"):
        columns = getattr(dataset, table)
        for name in columns.schema.names:
            arrays[f"{table}__{name}"] = columns.column(name)
    assert sorted(p.name for p in directory.glob("*.npy")) == sorted(
        f"{name}.npy" for name in arrays
    )
    for name, array in arrays.items():
        expected = io.BytesIO()
        np.save(expected, array)
        assert (directory / f"{name}.npy").read_bytes() == expected.getvalue(), (
            f"{name}.npy differs from np.save of generate()"
        )


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_build_matches_np_save_of_generate(self, tmp_path, workers):
        store = SnapshotStore(tmp_path / f"sharded-{workers}")
        built = store.build(MULTI_CHUNK, workers=workers)
        assert store.writes == 1
        assert_columns_match_generate(built, MULTI_CHUNK)

    def test_worker_count_cannot_change_the_bytes(self, tmp_path):
        two = SnapshotStore(tmp_path / "w2").build(MULTI_CHUNK, workers=2)
        four = SnapshotStore(tmp_path / "w4").build(MULTI_CHUNK, workers=4)
        assert_snapshot_dirs_identical(two, four)

    def test_built_snapshot_loads_equal_to_generate(self, tmp_path):
        store = SnapshotStore(tmp_path / "snapshots")
        store.build(MULTI_CHUNK, workers=2)
        loaded = store.load(dataset_fingerprint(MULTI_CHUNK))
        assert loaded is not None
        reference = generate(MULTI_CHUNK)
        for column in loaded.worker.schema.names:
            np.testing.assert_array_equal(
                loaded.worker.column(column),
                reference.worker.column(column),
                err_msg=column,
            )
        for column in loaded.workplace.schema.names:
            np.testing.assert_array_equal(
                loaded.workplace.column(column),
                reference.workplace.column(column),
                err_msg=column,
            )
        np.testing.assert_array_equal(loaded.job_worker, reference.job_worker)
        np.testing.assert_array_equal(
            loaded.job_establishment, reference.job_establishment
        )

    def test_single_chunk_config_builds_sharded_too(self, tmp_path):
        # A config fitting one chunk degenerates to an inline build —
        # still byte-identical to np.save of generate()'s columns.
        config = SyntheticConfig(target_jobs=5_000, seed=5)
        built = SnapshotStore(tmp_path / "sharded").build(config, workers=4)
        assert_columns_match_generate(built, config)


class TestDurability:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_workforce_file_is_fsynced_before_install(
        self, tmp_path, monkeypatch, workers
    ):
        store = SnapshotStore(tmp_path / "snapshots")
        final = store.path_for(dataset_fingerprint(MULTI_CHUNK))
        installed_at_sync: dict[int, bool] = {}
        fsync = os.fsync

        def spy(fd):
            installed_at_sync[os.fstat(fd).st_ino] = final.exists()
            fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        built = store.build(MULTI_CHUNK, workers=workers)
        for name in (*(f"worker__{n}" for n in WORKER_COLUMNS), *JOB_ARRAYS):
            inode = (built / f"{name}.npy").stat().st_ino
            assert inode in installed_at_sync, f"{name}.npy never fsynced"
            assert not installed_at_sync[inode], f"{name}.npy synced late"


class TestBuildSemantics:
    def test_build_keeps_an_existing_loadable_snapshot(self, tmp_path):
        store = SnapshotStore(tmp_path / "snapshots")
        store.build(MULTI_CHUNK, workers=1)
        created = store.info(dataset_fingerprint(MULTI_CHUNK))["created_at"]
        store.build(MULTI_CHUNK, workers=1)
        assert store.info(dataset_fingerprint(MULTI_CHUNK))["created_at"] == created

    def test_build_overwrite_replaces(self, tmp_path):
        store = SnapshotStore(tmp_path / "snapshots")
        store.build(MULTI_CHUNK, workers=1)
        created = store.info(dataset_fingerprint(MULTI_CHUNK))["created_at"]
        store.build(MULTI_CHUNK, workers=1, overwrite=True)
        assert store.info(dataset_fingerprint(MULTI_CHUNK))["created_at"] != created

    def test_build_repairs_a_corrupt_snapshot(self, tmp_path):
        store = SnapshotStore(tmp_path / "snapshots")
        fingerprint = dataset_fingerprint(MULTI_CHUNK)
        store.build(MULTI_CHUNK, workers=1)
        (store.path_for(fingerprint) / "worker__age.npy").write_bytes(b"junk")
        assert store.load(fingerprint) is None
        store.build(MULTI_CHUNK, workers=1)
        assert store.load(fingerprint) is not None

    def test_missing_target_paths_rejected(self, tmp_path):
        from repro.data.generator import plan_economy

        plan = plan_economy(MULTI_CHUNK)
        paths = {
            name: tmp_path / f"{name}.npy"
            for name in (*WORKER_COLUMNS, *JOB_ARRAYS)
        }
        paths.pop("job_worker")
        with pytest.raises(ValueError, match="job_worker"):
            build_workforce_sharded(
                plan.sizes,
                plan.sector,
                plan.estab_place,
                plan.place_mixes,
                plan.worker_rng,
                base_seed=MULTI_CHUNK.seed,
                chunk_jobs=MULTI_CHUNK.chunk_jobs,
                paths=paths,
                workers=1,
            )


class TestThreadThrough:
    def test_load_or_generate_build_workers(self, tmp_path):
        store = SnapshotStore(tmp_path / "snapshots")
        dataset, hit = store.load_or_generate(MULTI_CHUNK, build_workers=2)
        assert not hit
        assert store.stats == {"hits": 0, "misses": 1, "writes": 1}
        # The caller holds the store-mapped artifact, not a private copy.
        assert isinstance(dataset.job_worker, np.memmap)
        assert_columns_match_generate(
            store.path_for(dataset_fingerprint(MULTI_CHUNK)), MULTI_CHUNK
        )
        again, hit_again = store.load_or_generate(MULTI_CHUNK, build_workers=2)
        assert hit_again

    def test_session_snapshot_workers(self, tmp_path):
        config = ExperimentConfig(data=MULTI_CHUNK, n_trials=1, seed=31)
        store = SnapshotStore(tmp_path / "snapshots")
        session = ReleaseSession(
            config, snapshot_store=store, snapshot_workers=2
        )
        assert session.snapshot_workers == 2
        assert store.writes == 1
        assert_columns_match_generate(
            store.path_for(dataset_fingerprint(MULTI_CHUNK)), MULTI_CHUNK
        )
        plain = ReleaseSession(config)
        assert session.snapshot_fingerprint == plain.snapshot_fingerprint
        np.testing.assert_array_equal(
            session.dataset.worker.column("age"),
            plain.dataset.worker.column("age"),
        )

    def test_scenario_spec_build(self, tmp_path):
        @register_scenario("sharded-test-economy", tags=("test",))
        def _factory() -> SyntheticConfig:
            """A throwaway registry entry for ScenarioSpec.build."""
            return MULTI_CHUNK

        try:
            store = SnapshotStore(tmp_path / "snapshots")
            spec = scenario_spec("sharded-test-economy")
            path = spec.build(store, workers=2)
            assert path == store.path_for(dataset_fingerprint(MULTI_CHUNK))
            assert store.load(dataset_fingerprint(MULTI_CHUNK)) is not None
        finally:
            unregister_scenario("sharded-test-economy")
