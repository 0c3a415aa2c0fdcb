"""Shared benchmark fixtures.

One session-scoped experiment context (a ~150k-job synthetic snapshot
with a fitted SDL system) backs every figure benchmark, and every
benchmark writes the regenerated data series to ``benchmarks/out/`` so
the paper-shaped rows survive pytest's output capture.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import ReleaseSession
from repro.data.generator import SyntheticConfig
from repro.experiments import ExperimentConfig

OUT_DIR = Path(__file__).parent / "out"


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
