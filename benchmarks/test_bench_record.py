"""``record_bench`` leaves the tree clean: its records go to the
untracked ``benchmarks/out/``, and every section names what it was
measured with."""

import json
import platform

import numpy as np
import pytest

from benchmarks import conftest as bench


@pytest.fixture
def out(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setattr(bench, "OUT_DIR", out)
    return out


def test_records_go_to_the_untracked_out_dir(out):
    bench.record_bench("BENCH_grid.json", "sweep_engine", {"wall_s": 1.0})
    record = json.loads((out / "BENCH_grid.json").read_text())
    assert record["sweep_engine"]["wall_s"] == 1.0


def test_each_section_carries_its_provenance(out):
    bench.record_bench("BENCH_snapshot.json", "store_load", {"load_s": 0.1})
    bench.record_bench("BENCH_snapshot.json", "remote_open", {"open_s": 0.2})
    record = json.loads((out / "BENCH_snapshot.json").read_text())
    for section in ("store_load", "remote_open"):
        provenance = record[section]["provenance"]
        assert set(provenance) == {"commit", "cpus", "python", "numpy"}
        commit = provenance["commit"]
        assert commit is None or len(commit) == 40
        assert provenance["cpus"] >= 1
        assert provenance["python"] == platform.python_version()
        assert provenance["numpy"] == np.__version__
