"""Shared benchmark fixtures.

One session-scoped experiment context (a ~150k-job synthetic snapshot
with a fitted SDL system) backs every figure benchmark, and every
benchmark writes the regenerated data series to ``benchmarks/out/`` so
the paper-shaped rows survive pytest's output capture.

Timing gates also record their numbers in ``BENCH_*.json`` files
through :func:`record_bench`: each file is a set of named sections
(:data:`BENCH_SECTIONS`), each section is owned by one test, and a run
replaces its section whole, stamped with the commit, usable CPUs and
Python and NumPy versions it was measured with.  The files go to the
untracked ``benchmarks/out/`` (CI's benchmark jobs upload them from
there), so a test run leaves the tree clean.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.api import ReleaseSession
from repro.data.generator import SyntheticConfig
from repro.experiments import ExperimentConfig

OUT_DIR = Path(__file__).parent / "out"

# The sections of each benchmark record.  One test owns each
# section: test_sweep_engine writes sweep_engine and fleet_replay,
# test_snapshot_store writes store_load, remote_open and sharded_build,
# and every other section is named after the test that writes it.
BENCH_SECTIONS: dict[str, tuple[str, ...]] = {
    "BENCH_grid.json": (
        "sweep_engine",
        "fleet_replay",
        "fleet_drain",
        "fused_grid_figure-1",
        "fused_grid_figure-2",
    ),
    "BENCH_serve.json": ("serve",),
    "BENCH_snapshot.json": ("store_load", "remote_open", "sharded_build"),
}


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    return ExperimentConfig(
        data=SyntheticConfig(target_jobs=150_000, seed=2017),
        n_trials=10,
        seed=514,
    )


@pytest.fixture(scope="session")
def context(bench_config) -> ReleaseSession:
    return ReleaseSession(bench_config)


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def write_report(out_dir: Path, name: str, text: str) -> None:
    """Persist a rendered series and echo it (visible with pytest -s)."""
    path = out_dir / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n[{name}] written to {path}\n{text}")


def _provenance() -> dict:
    """What a recorded number was measured with."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count()
    return {
        "commit": commit,
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def record_bench(filename: str, section: str, fields: dict) -> None:
    """Replace ``section`` of ``benchmarks/out/<filename>`` with ``fields``.

    The section is rewritten whole, so a field its test stopped
    measuring disappears on the next run instead of sitting next to the
    new numbers as if both came from one commit; its ``provenance``
    names the commit, usable CPUs and Python and NumPy versions of this
    run.  The other declared sections are kept; anything else in the
    file (a retired test's section, or a field of the earlier flat
    layout) is dropped.
    """
    sections = BENCH_SECTIONS[filename]
    if section not in sections:
        raise ValueError(f"{filename} declares no section {section!r}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / filename
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        payload = {}
    record = {
        name: payload[name]
        for name in sections
        if isinstance(payload.get(name), dict)
    }
    record[section] = {**fields, "provenance": _provenance()}
    path.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
