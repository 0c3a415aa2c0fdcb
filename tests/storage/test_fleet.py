"""Fleet-sharing tests: two machines, one remote, zero recomputation.

"Machines" are emulated as distinct local cache roots over one shared
object store — exactly the deployment ``--store-url`` targets.  The
contract under test: whatever machine A builds (snapshots, grid
points), machine B opens from the remote without regenerating anything,
and the opened artifacts are bit-identical.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api.session import ReleaseSession
from repro.data.generator import SyntheticConfig, generate
from repro.engine.plan import figure_plan
from repro.engine.points import points_identical
from repro.engine.store import ResultStore
from repro.engine.sweep import run_plan
from repro.experiments.config import ExperimentConfig
from repro.scenarios import SnapshotStore, dataset_fingerprint
from repro.storage import (
    FilesystemObjectStore,
    LocalFSBackend,
    RemoteObjectBackend,
)

SMALL = SyntheticConfig(target_jobs=3_000, seed=7)

FLEET_CONFIG = ExperimentConfig(
    data=SyntheticConfig(target_jobs=3_000, seed=7),
    n_trials=2,
    seed=7,
    epsilons_standard=(0.5, 2.0),
    epsilons_extended=(2.0, 8.0),
    alphas=(0.1,),
    thetas=(20,),
)


@pytest.fixture()
def bucket(tmp_path):
    return FilesystemObjectStore(tmp_path / "bucket")


def _snapshot_store(bucket, cache_root) -> SnapshotStore:
    return SnapshotStore(
        backend=RemoteObjectBackend(bucket, cache_root, prefix="snapshots")
    )


def _assert_datasets_equal(a, b):
    for name in a.worker.schema.names:
        np.testing.assert_array_equal(
            a.worker.column(name), b.worker.column(name), err_msg=name
        )
    np.testing.assert_array_equal(a.job_worker, b.job_worker)
    np.testing.assert_array_equal(a.job_establishment, b.job_establishment)


class TestSnapshotFleet:
    def test_machine_b_opens_what_machine_a_built(
        self, bucket, tmp_path, monkeypatch
    ):
        machine_a = _snapshot_store(bucket, tmp_path / "cache-a")
        built, was_hit = machine_a.load_or_generate(SMALL)
        assert not was_hit

        # Machine B has a cold cache and generation hard-disabled: the
        # only way it can satisfy the load is the shared remote.
        monkeypatch.setenv("REPRO_FORBID_GENERATE", "1")
        machine_b = _snapshot_store(bucket, tmp_path / "cache-b")
        opened, was_hit = machine_b.load_or_generate(SMALL)
        assert was_hit
        _assert_datasets_equal(built, opened)
        # and B's copy is a local mmap under B's own cache root:
        fingerprint = dataset_fingerprint(SMALL)
        assert (tmp_path / "cache-b" / fingerprint / "meta.json").is_file()

    def test_wiped_cache_rehydrates_from_remote(self, bucket, tmp_path):
        machine = _snapshot_store(bucket, tmp_path / "cache")
        machine.load_or_generate(SMALL)
        fingerprint = dataset_fingerprint(SMALL)
        assert machine.backend.evict(fingerprint)
        assert not (tmp_path / "cache" / fingerprint).exists()
        assert machine.load(fingerprint) is not None

    def test_contains_sees_remote_only_snapshots(self, bucket, tmp_path):
        _snapshot_store(bucket, tmp_path / "cache-a").load_or_generate(SMALL)
        cold = _snapshot_store(bucket, tmp_path / "cache-b")
        assert cold.contains(dataset_fingerprint(SMALL))

    def test_session_from_remote_store(self, bucket, tmp_path, monkeypatch):
        store_a = _snapshot_store(bucket, tmp_path / "cache-a")
        ReleaseSession(FLEET_CONFIG, snapshot_store=store_a)
        monkeypatch.setenv("REPRO_FORBID_GENERATE", "1")
        store_b = _snapshot_store(bucket, tmp_path / "cache-b")
        session = ReleaseSession(FLEET_CONFIG, snapshot_store=store_b)
        assert session.dataset.n_jobs > 0


class TestResultFleet:
    def _stores(self, bucket, tmp_path):
        return (
            ResultStore(
                backend=RemoteObjectBackend(
                    bucket, tmp_path / "cache-a", prefix="results"
                )
            ),
            ResultStore(
                backend=RemoteObjectBackend(
                    bucket, tmp_path / "cache-b", prefix="results"
                )
            ),
        )

    def test_payload_crosses_machines(self, bucket, tmp_path):
        writer, reader = self._stores(bucket, tmp_path)
        key = "f" * 64
        writer.put(key, {"value": 0.25})
        payload = reader.get(key)
        assert payload is not None and payload["value"] == 0.25
        assert reader.hits == 1 and reader.misses == 0

    def test_sweep_replays_remotely_with_zero_recomputation(
        self, bucket, tmp_path, monkeypatch
    ):
        plan = figure_plan("finding-6", FLEET_CONFIG)
        store_a, store_b = self._stores(bucket, tmp_path)
        session_a = ReleaseSession(
            FLEET_CONFIG,
            snapshot_store=_snapshot_store(bucket, tmp_path / "cache-a"),
        )
        first = run_plan(plan, session_a, store=store_a, resume=True)
        assert first.computed == len(plan)

        monkeypatch.setenv("REPRO_FORBID_GENERATE", "1")
        session_b = ReleaseSession(
            FLEET_CONFIG,
            snapshot_store=_snapshot_store(bucket, tmp_path / "cache-b"),
        )
        second = run_plan(plan, session_b, store=store_b, resume=True)
        assert second.computed == 0
        assert second.cache_hits == len(plan)
        for mine, theirs in zip(first.points, second.points):
            assert points_identical(mine, theirs)


class TestLocalLayoutIdentity:
    """The refactor's bit-identity contract for the default local backend."""

    def test_snapshot_directory_file_set_is_historical(self, tmp_path):
        store = SnapshotStore(tmp_path / "snapshots")
        dataset = generate(SMALL)
        path = store.build(SMALL)
        names = sorted(p.name for p in path.iterdir())
        expected = sorted(
            ["meta.json", "geography.json", "job_worker.npy",
             "job_establishment.npy"]
            + [f"worker__{n}.npy" for n in dataset.worker.schema.names]
            + [f"workplace__{n}.npy" for n in dataset.workplace.schema.names]
        )
        assert names == expected
        # directly under the root: root/<fingerprint>/<files>, no extras.
        assert path.parent == tmp_path / "snapshots"

    def test_result_payload_bytes_are_canonical_json(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = "a" * 64
        store.put(key, {"value": 1.5, "metric": "l1-ratio"})
        path = tmp_path / "cache" / key[:2] / f"{key}.json"
        expected = {
            "metric": "l1-ratio",
            "value": 1.5,
            "schema": 1,
            "key": key,
        }
        assert path.read_bytes() == json.dumps(
            expected, sort_keys=True
        ).encode("utf-8")

    def test_remote_cache_matches_local_store_byte_for_byte(
        self, bucket, tmp_path
    ):
        local = SnapshotStore(tmp_path / "local")
        remote = _snapshot_store(bucket, tmp_path / "cache")
        local_path = local.build(SMALL)
        remote_path = remote.build(SMALL)
        local_files = sorted(p.name for p in local_path.iterdir())
        assert sorted(p.name for p in remote_path.iterdir()) == local_files
        for name in local_files:
            if name == "meta.json":
                # identical modulo the created_at wall-clock stamp.
                a = json.loads((local_path / name).read_text())
                b = json.loads((remote_path / name).read_text())
                a.pop("created_at"), b.pop("created_at")
                assert a == b
                continue
            assert (local_path / name).read_bytes() == (
                remote_path / name
            ).read_bytes(), name

    def test_existing_local_tree_reads_as_hits_through_backend(
        self, tmp_path
    ):
        # A tree written by one store instance (standing in for the
        # pre-refactor layout, which build() reproduces byte for byte)
        # is read by a *fresh* store over an explicitly-constructed
        # backend with zero migration.
        first = SnapshotStore(tmp_path / "snapshots")
        dataset = generate(SMALL)
        first.build(SMALL)
        reopened = SnapshotStore(
            backend=LocalFSBackend(tmp_path / "snapshots")
        )
        loaded = reopened.load(dataset_fingerprint(SMALL))
        assert loaded is not None
        assert reopened.hits == 1 and reopened.misses == 0
        _assert_datasets_equal(dataset, loaded)
