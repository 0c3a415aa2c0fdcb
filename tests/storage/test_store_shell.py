"""The shell both artifact stores share: construction, counters, spec.

:class:`~repro.storage.BackendStore` holds what the result store and
the snapshot store have in common; these tests pin that each concrete
store gets it unchanged, and that the entry points tracing wraps stay
defined on the concrete classes.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine.store import ResultStore
from repro.scenarios import SnapshotStore
from repro.storage import BackendStore, LocalFSBackend

STORES = pytest.mark.parametrize(
    "cls", [ResultStore, SnapshotStore], ids=lambda cls: cls.__name__
)


@STORES
def test_a_root_must_name_the_backend_root(cls, tmp_path):
    backend = LocalFSBackend(tmp_path / "a")
    assert cls(tmp_path / "a", backend=backend).backend is backend
    with pytest.raises(ValueError, match="either root or backend"):
        cls(tmp_path / "b", backend=backend)


@STORES
def test_spec_rebuilds_the_store_in_another_process(cls, tmp_path):
    store = cls(tmp_path / "store")
    spec = pickle.loads(pickle.dumps(store.spec()))
    assert spec["store"] == cls.kind
    rebuilt = cls.from_spec(spec)
    assert type(rebuilt) is cls
    assert rebuilt.root == store.root


@STORES
def test_counters_live_in_the_backend_ledger(cls, tmp_path):
    backend = LocalFSBackend(tmp_path)
    store = cls(backend=backend)
    store.hits += 2
    store.misses += 1
    store.writes += 3
    assert store.stats == {"hits": 2, "misses": 1, "writes": 3}
    assert store.statistics is backend.stats
    assert backend.stats.as_dict()["writes"] == 3
    # A second store over the same backend shares the one ledger.
    assert cls(backend=backend).stats == store.stats


@pytest.mark.parametrize(
    "cls, name",
    [
        (ResultStore, "put"),
        (SnapshotStore, "build"),
        (SnapshotStore, "load_or_generate"),
    ],
)
def test_traced_entry_points_are_defined_on_the_concrete_class(cls, name):
    # perfbench's tracer looks a method up in cls.__dict__ and silently
    # skips one that is only inherited, so moving these into the shell
    # would drop their timings without an error.
    assert issubclass(cls, BackendStore)
    assert callable(cls.__dict__.get(name))
