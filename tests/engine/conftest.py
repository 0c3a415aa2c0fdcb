"""Shared fixtures for the sweep-engine tests.

One module-scoped session over a deliberately tiny snapshot: the engine
tests exercise planning, driver placement, storage and accounting —
not statistical quality — so the grids stay small and the process-pool
tests can afford to rebuild the snapshot in each worker.
"""

from __future__ import annotations

import pytest

from repro.api.session import ReleaseSession
from repro.data.generator import SyntheticConfig
from repro.experiments import ExperimentConfig

# Small enough that a process-driver worker rebuilds it in well under a
# second, big enough that every stratum is populated.
ENGINE_CONFIG = ExperimentConfig(
    data=SyntheticConfig(target_jobs=4_000, seed=11),
    n_trials=2,
    seed=11,
    epsilons_standard=(0.5, 2.0),
    epsilons_extended=(2.0, 8.0),
    alphas=(0.05, 0.2),
    thetas=(20,),
)


@pytest.fixture(scope="module")
def engine_config() -> ExperimentConfig:
    return ENGINE_CONFIG


@pytest.fixture(scope="module")
def session(engine_config) -> ReleaseSession:
    return ReleaseSession(engine_config)
