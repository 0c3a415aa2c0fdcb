"""Experiment parameter grids, matching Sec 10 of the paper.

ε ∈ {0.25, 0.5, 1, 2, 4} for the standard figures (the paper also lists
0.67; we keep the plotted grid), ε ∈ {1, 2, 4, 8, 10, 16, 20} for the
worker-attribute marginal (Figure 4), α ∈ {0.01, 0.05, 0.1, 0.15, 0.2},
δ = 0.05 for Smooth Laplace, truncation θ ∈ {2, 20, 50, 100, 200, 500},
and 20 independent trials per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.generator import SyntheticConfig
from repro.sdl.distortion import DistortionParams
from repro.util import check_positive

EPSILON_GRID_STANDARD: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
EPSILON_GRID_EXTENDED: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 10.0, 16.0, 20.0)
ALPHA_GRID: tuple[float, ...] = (0.01, 0.05, 0.1, 0.15, 0.2)
DELTA_DEFAULT: float = 0.05
THETA_GRID: tuple[int, ...] = (2, 20, 50, 100, 200, 500)
MECHANISM_NAMES: tuple[str, ...] = ("log-laplace", "smooth-laplace", "smooth-gamma")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run needs, under one seed."""

    data: SyntheticConfig = field(default_factory=SyntheticConfig)
    sdl: DistortionParams = field(default_factory=DistortionParams)
    n_trials: int = 20
    delta: float = DELTA_DEFAULT
    epsilons_standard: tuple[float, ...] = EPSILON_GRID_STANDARD
    epsilons_extended: tuple[float, ...] = EPSILON_GRID_EXTENDED
    alphas: tuple[float, ...] = ALPHA_GRID
    thetas: tuple[int, ...] = THETA_GRID
    seed: int = 7
    # Name of the registered scenario ``data`` came from, if any — pure
    # provenance: the snapshot fingerprint hashes ``data`` itself, so a
    # renamed scenario never invalidates caches.
    scenario: str | None = None

    def __post_init__(self):
        check_positive("n_trials", self.n_trials)
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")

    @classmethod
    def for_scenario(cls, name: str, **overrides) -> "ExperimentConfig":
        """An experiment config whose data comes from a registered scenario.

        ``overrides`` are any other :class:`ExperimentConfig` fields
        (``n_trials``, ``seed``, grids ...).  The experiment ``seed``
        defaults to the scenario's data seed so a bare
        ``for_scenario(name)`` is fully pinned by the registry entry.
        """
        from repro.scenarios import scenario_config

        data = scenario_config(name)
        overrides.setdefault("seed", data.seed)
        return cls(data=data, scenario=name, **overrides)

    def small(self) -> "ExperimentConfig":
        """A reduced configuration for tests: fewer trials, smaller data."""
        return ExperimentConfig(
            data=SyntheticConfig(target_jobs=8_000, seed=self.data.seed),
            sdl=self.sdl,
            n_trials=3,
            delta=self.delta,
            epsilons_standard=(0.5, 2.0),
            epsilons_extended=(2.0, 8.0),
            alphas=(0.05, 0.2),
            thetas=(20, 200),
            seed=self.seed,
        )
