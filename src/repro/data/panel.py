"""Multi-year LODES panels (annual snapshots of an evolving economy).

LODES is published as an annual cross-section (Sec 3 of the paper), and
the production SDL system assigns each establishment a *time-invariant*
distortion factor precisely so that repeated publication does not let
users average the noise away [Abowd et al., 2012].  This module generates
a panel of snapshots against one establishment registry so that property
— and its contrast with per-year independent DP noise, which averages
down but composes in ε — can be measured.

Model: year 0 is a standard synthetic snapshot.  Each later year,
surviving establishments' sizes evolve by a lognormal growth shock,
a fraction die (size 0 thereafter), and a cohort of pre-registered
births activates.  Public workplace attributes are fixed in the
registry; workforces are redrawn each year from the same sector/place
mixes.

Generation is split the same way single-snapshot generation is split
into :func:`~repro.data.generator.plan_economy` + the chunked workforce
draw: :func:`plan_panel` produces the cheap deterministic prologue (the
registry, the size evolution matrix, the place mixes — O(places +
establishments), no O(jobs) arrays), and :func:`panel_year` draws one
year's workforce from the plan.  The split is what lets the snapshot
store persist and shard panel years independently — a year's draw
depends only on the plan and the year index, never on other years'
workforces — while :func:`generate_panel` (plan + every year, in order)
remains bit-identical to the historical single-pass implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import LODESDataset
from repro.data.generator import SyntheticConfig, plan_economy
from repro.data.schema import worker_schema
from repro.data.workers import draw_place_mixes, sample_workforce_chunked
from repro.db.table import Table
from repro.util import as_generator, check_nonnegative, check_positive, derive_seed


@dataclass(frozen=True)
class PanelConfig:
    """Panel evolution parameters on top of a base snapshot config."""

    base: SyntheticConfig = field(default_factory=SyntheticConfig)
    n_years: int = 5
    growth_sigma: float = 0.15
    death_rate: float = 0.03
    birth_rate: float = 0.03

    def __post_init__(self):
        check_positive("n_years", self.n_years)
        check_nonnegative("growth_sigma", self.growth_sigma)
        if not (0.0 <= self.death_rate < 1.0):
            raise ValueError(f"death_rate must lie in [0, 1), got {self.death_rate}")
        if not (0.0 <= self.birth_rate < 1.0):
            raise ValueError(f"birth_rate must lie in [0, 1), got {self.birth_rate}")


@dataclass
class LODESPanel:
    """A registry of establishments with per-year sizes and snapshots.

    ``workplace`` covers every establishment that ever exists (public
    attributes are constant); ``sizes_by_year[t, w]`` is establishment
    w's employment in year t (0 = not active); ``years[t]`` is the
    year-t snapshot sharing the registry's Workplace table, so
    establishment row indices are comparable across years.
    """

    workplace: Table
    geography: object
    sizes_by_year: np.ndarray
    years: tuple[LODESDataset, ...]

    @property
    def n_years(self) -> int:
        return len(self.years)

    @property
    def n_establishments(self) -> int:
        return self.workplace.n_rows

    def year(self, t: int) -> LODESDataset:
        return self.years[t]

    def survivors(self) -> np.ndarray:
        """Establishments active in every year (stable panel members)."""
        return (self.sizes_by_year > 0).all(axis=0)


@dataclass
class PanelPlan:
    """The deterministic panel prologue: registry, size matrix, mixes.

    Everything a year's workforce draw needs except the draw itself —
    O(places + establishments) memory, no O(jobs) arrays — so the plan
    is cheap to rebuild and cheap to hold while years are generated,
    persisted or sharded one at a time.
    """

    config: PanelConfig
    workplace: Table
    geography: object
    sizes_by_year: np.ndarray
    place_mixes: np.ndarray

    @property
    def n_years(self) -> int:
        return int(self.sizes_by_year.shape[0])

    @property
    def n_establishments(self) -> int:
        return self.workplace.n_rows

    def year_seed(self, year: int):
        """The seed of year ``year``'s workforce stream.

        Derived per year from the base seed, so years' streams are
        disjoint and a single year can be (re)drawn — or sharded across
        a process pool — without touching any other year's stream.
        """
        return derive_seed(self.config.base.seed, f"panel-workers-{year}")


def _registry_with_births(
    workplace: Table, n_births: int, rng: np.random.Generator
) -> Table:
    """Extend the Workplace table with pre-registered birth cohorts.

    Births copy the public attributes of randomly chosen existing
    establishments (same place/sector/ownership mix as the economy).
    """
    if n_births == 0:
        return workplace
    templates = rng.integers(0, workplace.n_rows, size=n_births)
    births = workplace.take(templates)
    return workplace.concat(births)


def plan_panel(config: PanelConfig | None = None) -> PanelPlan:
    """Plan a panel: registry with births, size evolution, place mixes.

    Uses :func:`plan_economy` for year 0 — the planned workplace table
    and sizes are exactly what ``generate(config.base)`` would embed,
    so the plan (and everything drawn from it) is bit-identical to
    planning off a materialized base snapshot, without ever drawing the
    base year's O(jobs) workforce.
    """
    config = config or PanelConfig()
    base_plan = plan_economy(config.base)
    rng = as_generator(derive_seed(config.base.seed, "panel"))

    n_initial = base_plan.n_establishments
    births_per_year = round(config.birth_rate * n_initial)
    n_birth_total = births_per_year * (config.n_years - 1)
    workplace = _registry_with_births(base_plan.workplace, n_birth_total, rng)
    n_registry = workplace.n_rows

    birth_year = np.zeros(n_registry, dtype=np.int64)
    for year in range(1, config.n_years):
        start = n_initial + (year - 1) * births_per_year
        birth_year[start : start + births_per_year] = year

    size_model = config.base.sizes
    sizes_by_year = np.zeros((config.n_years, n_registry), dtype=np.int64)
    sizes_by_year[0, :n_initial] = base_plan.sizes

    for year in range(1, config.n_years):
        previous = sizes_by_year[year - 1]
        alive = previous > 0
        survives = alive & (rng.random(n_registry) >= config.death_rate)
        grown = np.zeros(n_registry, dtype=np.int64)
        shocks = rng.lognormal(0.0, config.growth_sigma, size=n_registry)
        grown[survives] = np.maximum(
            1, np.round(previous[survives] * shocks[survives])
        ).astype(np.int64)
        newborn = birth_year == year
        if newborn.any():
            multipliers = np.ones(int(newborn.sum()))
            grown[newborn] = size_model.sample(
                int(newborn.sum()), multipliers, rng
            )
        sizes_by_year[year] = grown

    place_mixes = draw_place_mixes(
        base_plan.geography.n_places,
        as_generator(derive_seed(config.base.seed, "panel-mixes")),
    )
    return PanelPlan(
        config=config,
        workplace=workplace,
        geography=base_plan.geography,
        sizes_by_year=sizes_by_year,
        place_mixes=place_mixes,
    )


def panel_year(plan: PanelPlan, year: int) -> LODESDataset:
    """Draw year ``year``'s snapshot from a panel plan."""
    sizes = plan.sizes_by_year[year]
    sector = plan.workplace.column("naics")
    place = plan.workplace.column("place")
    # Per-year draws stream through the chunked sampler so a scaled
    # panel never materializes a full-year inverse-CDF transient.
    # Chunk 0 continues the year's historical stream — any year
    # fitting one chunk (every current config) is bit-identical to
    # the old direct sample_workforce_batch call — and later chunks
    # derive from the year seed, keeping years' streams disjoint.
    year_seed = plan.year_seed(year)
    columns = sample_workforce_chunked(
        sizes,
        sector,
        place,
        plan.place_mixes,
        as_generator(year_seed),
        base_seed=year_seed,
        chunk_jobs=plan.config.base.chunk_jobs,
    )
    worker = Table(worker_schema(), columns)
    n_jobs = worker.n_rows
    return LODESDataset(
        worker=worker,
        workplace=plan.workplace,
        job_worker=np.arange(n_jobs, dtype=np.int64),
        job_establishment=np.repeat(
            np.arange(plan.n_establishments, dtype=np.int64), sizes
        ),
        geography=plan.geography,
    )


def generate_panel(config: PanelConfig | None = None) -> LODESPanel:
    """Generate an ``n_years`` panel from ``config``."""
    plan = plan_panel(config)
    years = tuple(panel_year(plan, year) for year in range(plan.n_years))
    return LODESPanel(
        workplace=plan.workplace,
        geography=plan.geography,
        sizes_by_year=plan.sizes_by_year,
        years=years,
    )
