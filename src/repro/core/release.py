"""End-to-end marginal release under (α, ε[, δ])-ER-EE privacy.

The release pipeline is split into a cacheable, deterministic half and a
randomized half:

- :func:`compute_release_statistics` evaluates the true marginal,
  resolves the privacy mode, computes the per-cell smooth-sensitivity
  statistic ``xv`` and picks which cells are published — everything that
  does not depend on the noise draw (:class:`ReleaseStatistics`);
- :func:`release_from_statistics` derives the per-cell budget, looks the
  mechanism up in the :mod:`repro.api.registry`, and adds noise.

The first half is the one prologue of every release path: session
releases and figure points (:class:`repro.api.ReleaseSession` caches it
per (attrs, mode, population filters), so repeated requests against one
snapshot only redraw noise), the stacked panel release
(:func:`release_marginal_stack`, one prologue per year) and the
weighted split's main stage.  :func:`release_marginal` chains the two
halves for one-shot use and is kept as the historical entry point
(prefer the session facade for anything beyond a single release — it
adds caching and ledger accounting on top of the identical noise
stream).

Which cells are published?  Establishment existence, sector, ownership
and location are public (Sec 4.1), so a cell is released iff its
workplace-attribute part matches at least one establishment; worker-
attribute slices of a published workplace cell are all released
(including zeros — worker attributes are confidential, so publishing
which worker cells are empty would otherwise leak, cf. the Sec 5.2
zero-preservation attack on SDL).
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from dataclasses import dataclass

import numpy as np

from repro.api.registry import MechanismSpec, mechanism_spec
from repro.core.composition import (
    MARGINAL,
    STRONG,
    WEAK,
    MarginalBudget,
    marginal_budget,
)
from repro.core.params import EREEParams
from repro.db.join import WorkerFull
from repro.db.query import Marginal, per_establishment_counts
from repro.util import as_generator

# Worker attributes of the LODES schema; importers can pass their own set
# for other schemas.
DEFAULT_WORKER_ATTRS: tuple[str, ...] = ("age", "sex", "race", "ethnicity", "education")

# The paper's three calibrated mechanisms (kept for compatibility; the
# authoritative list is repro.api.available_mechanisms()).
MECHANISMS = ("log-laplace", "smooth-gamma", "smooth-laplace")


@dataclass(frozen=True)
class MarginalRelease:
    """A published marginal with its bookkeeping.

    ``noisy`` holds the published values for released cells and 0 for
    suppressed cells (cells whose workplace part matches no
    establishment); ``released`` flags published cells.  ``max_single``
    is the xv statistic actually used for the noise scale (establishment
    contribution per cell under weak mode; whole-establishment size under
    the strong-mode worker-attribute ablation).

    For a batched release (``n_trials`` passed to
    :func:`release_marginal`), ``noisy`` is ``(n_trials, n_cells)`` — one
    row per independent trial from a single vectorized draw; everything
    else stays per-cell.
    """

    marginal: Marginal
    true: np.ndarray
    noisy: np.ndarray
    released: np.ndarray
    max_single: np.ndarray
    budget: MarginalBudget
    mechanism_name: str

    @property
    def n_released(self) -> int:
        return int(self.released.sum())


@dataclass(frozen=True)
class ReleaseStatistics:
    """The deterministic, trial-invariant half of a marginal release.

    Everything here is a pure function of the snapshot and the marginal
    definition — no randomness — so a session can compute it once per
    (attrs, mode) and reuse it across any number of noise draws.
    """

    marginal: Marginal
    mode: str
    has_worker_attrs: bool
    workplace_part: tuple[str, ...]
    true: np.ndarray
    released: np.ndarray
    xv: np.ndarray

    @property
    def attrs(self) -> tuple[str, ...]:
        return tuple(self.marginal.attrs)


def resolve_mode(attrs, worker_attrs, mode: str | None) -> str:
    """The effective privacy mode: the paper's pairing when ``mode=None``."""
    has_worker = any(name in worker_attrs for name in attrs)
    if mode is None:
        return WEAK if has_worker else STRONG
    if mode not in (STRONG, WEAK):
        raise ValueError(f"mode must be 'strong', 'weak' or None, got {mode!r}")
    return mode


def _calibrated_spec(mechanism_name: str) -> MechanismSpec:
    """Registry lookup restricted to per-cell calibrated mechanisms.

    The marginal-release pipeline adds per-cell noise through
    ``release_counts``; baselines and composite procedures registered
    under other kinds have different execution paths
    (:meth:`repro.api.ReleaseSession.run` dispatches them), so asking for
    one here is a caller error worth a clear message rather than an
    attribute crash deep in the noise loop.
    """
    spec = mechanism_spec(mechanism_name)
    if spec.kind != "calibrated":
        raise ValueError(
            f"mechanism {mechanism_name!r} is a {spec.kind} entry, not a "
            "per-cell calibrated mechanism; execute it through "
            "repro.api.ReleaseSession.run"
        )
    return spec


def check_mechanism_mode(
    spec: MechanismSpec, mode: str, has_worker_attrs: bool
) -> None:
    """Reject mechanism/mode pairings without a privacy guarantee."""
    if mode == STRONG and has_worker_attrs and not spec.strong_worker_ok:
        raise ValueError(
            f"{spec.name} has no strong-mode guarantee for worker-attribute "
            "queries (Theorem 8.1 proves only the weak variant); use a "
            "smooth mechanism for the strong ablation"
        )


def _released_mask_and_xv(
    worker_full: WorkerFull,
    population: WorkerFull,
    marginal: Marginal,
    workplace_part: Sequence[str],
    mode: str,
    has_worker_attrs: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell release mask and xv statistic.

    - released: the workplace part of the cell matches >= 1 establishment
      of the whole relation (establishment existence is public);
    - xv (weak mode, or no worker attrs): max jobs of ``population`` a
      single establishment contributes to the cell itself;
    - xv (strong mode with worker attrs — the ablation): max *total size*
      of any establishment matching the workplace part, since a strong
      α-neighbor may pour α·|e| same-attribute workers into one cell.
    """
    wp_marginal = Marginal(worker_full.table.schema, workplace_part)
    full_to_wp = marginal.project_onto(workplace_part)
    wp_cell_index = wp_marginal.cell_index(worker_full.table)
    wp_stats = per_establishment_counts(
        wp_cell_index, worker_full.establishment, wp_marginal.n_cells
    )
    released = wp_stats.n_establishments[full_to_wp] > 0

    if mode == STRONG and has_worker_attrs:
        sizes = worker_full.establishment_sizes()
        # One representative row per establishment gives its workplace cell.
        _, first_row = np.unique(worker_full.establishment, return_index=True)
        estab_wp_cell = wp_cell_index[first_row]
        estab_ids = worker_full.establishment[first_row]
        wp_max_size = np.zeros(wp_marginal.n_cells, dtype=np.int64)
        np.maximum.at(wp_max_size, estab_wp_cell, sizes[estab_ids])
        xv = wp_max_size[full_to_wp]
    else:
        xv = per_establishment_counts(
            marginal.cell_index(population.table),
            population.establishment,
            marginal.n_cells,
        ).max_single
    return released, xv


def compute_release_statistics(
    worker_full: WorkerFull,
    attrs: Sequence[str],
    worker_attrs: Collection[str] = DEFAULT_WORKER_ATTRS,
    mode: str | None = None,
    *,
    population: WorkerFull | None = None,
) -> ReleaseStatistics:
    """The cacheable prologue of a release: marginal, mask and xv.

    ``mode=None`` picks strong privacy for establishment-only marginals
    and weak privacy when worker attributes are present (the paper's
    pairing).  ``population`` is the set of jobs counted — the true
    counts and the weak xv — and defaults to the whole relation; Ranking
    2 counts only its filtered workers.  The release mask is always
    judged on the whole relation, because establishment existence is
    public.
    """
    schema = worker_full.table.schema
    marginal = Marginal(schema, attrs)
    mode = resolve_mode(attrs, worker_attrs, mode)
    has_worker_attrs = any(name in worker_attrs for name in attrs)
    workplace_part = tuple(name for name in attrs if name not in worker_attrs)
    if population is None:
        population = worker_full

    true = marginal.counts(population.table).astype(np.float64)
    released, xv = _released_mask_and_xv(
        worker_full, population, marginal, workplace_part, mode,
        has_worker_attrs,
    )
    return ReleaseStatistics(
        marginal=marginal,
        mode=mode,
        has_worker_attrs=has_worker_attrs,
        workplace_part=workplace_part,
        true=true,
        released=released,
        xv=xv,
    )


def release_from_statistics(
    stats: ReleaseStatistics,
    mechanism_name: str,
    budget: MarginalBudget,
    seed=None,
    mechanism_options: dict | None = None,
    n_trials: int | None = None,
) -> MarginalRelease:
    """The randomized half of a release: draw noise for the released cells.

    Every release is one ``release_counts_batch`` draw over the released
    cells: ``n_trials`` rows, or a single row whose row 0 is the
    release when ``n_trials`` is None.  Each mechanism fills that draw
    as one flat array from one generator, so the single release is the
    same stream as a per-trial ``release_counts`` call, and for a fixed
    seed caching the statistics cannot change any published number.
    """
    spec = _calibrated_spec(mechanism_name)
    check_mechanism_mode(spec, stats.mode, stats.has_worker_attrs)
    mechanism = spec.create(budget.per_cell, **(mechanism_options or {}))
    rng = as_generator(seed)
    true, released, xv = stats.true, stats.released, stats.xv

    rows = 1 if n_trials is None else n_trials
    noisy = np.zeros((rows, stats.marginal.n_cells), dtype=np.float64)
    if released.any():
        cells = (true[released],)
        if spec.needs_xv:
            cells += (xv[released],)
        noisy[:, released] = mechanism.release_counts_batch(*cells, rows, rng)
    return MarginalRelease(
        marginal=stats.marginal,
        true=true,
        noisy=noisy[0] if n_trials is None else noisy,
        released=released,
        max_single=xv,
        budget=budget,
        mechanism_name=mechanism_name,
    )


def release_marginal(
    worker_full: WorkerFull,
    attrs: Sequence[str],
    mechanism_name: str,
    params: EREEParams,
    worker_attrs: Collection[str] = DEFAULT_WORKER_ATTRS,
    mode: str | None = None,
    budget_style: str = MARGINAL,
    seed=None,
    mechanism_options: dict | None = None,
    n_trials: int | None = None,
) -> MarginalRelease:
    """Release the marginal over ``attrs`` with a named mechanism.

    .. deprecated::
        One-shot shim over :func:`compute_release_statistics` +
        :func:`release_from_statistics`; prefer
        :meth:`repro.api.ReleaseSession.run`, which executes the *same*
        noise stream (the equivalence tests pin this bit-for-bit) while
        caching the trial-invariant statistics and debiting the
        session's privacy ledger.

    ``mode=None`` picks strong privacy for establishment-only marginals
    and weak privacy when worker attributes are present (the paper's
    pairing).  Passing ``mode='strong'`` with worker attributes runs the
    strong-neighbor ablation (only meaningful for the smooth mechanisms).

    ``n_trials`` batches the release: the result's ``noisy`` becomes a
    ``(n_trials, n_cells)`` matrix of independent trials drawn in one
    vectorized RNG call (each trial is a full release of the same
    budget — batching is a Monte Carlo convenience, not composition).
    """
    stats = compute_release_statistics(worker_full, attrs, worker_attrs, mode)
    budget = marginal_budget(
        params, worker_full.table.schema, attrs, worker_attrs, stats.mode,
        budget_style,
    )
    return release_from_statistics(
        stats,
        mechanism_name,
        budget,
        seed=seed,
        mechanism_options=mechanism_options,
        n_trials=n_trials,
    )


def release_marginal_stack(
    worker_fulls: Sequence[WorkerFull],
    attrs: Sequence[str],
    mechanism_name: str,
    params: EREEParams,
    worker_attrs: Collection[str] = DEFAULT_WORKER_ATTRS,
    mode: str | None = None,
    budget_style: str = MARGINAL,
    seed=None,
    mechanism_options: dict | None = None,
) -> list[MarginalRelease]:
    """Release the same marginal over a stack of snapshots in one draw.

    The snapshots (e.g. the years of a :class:`repro.data.panel.LODESPanel`)
    share one schema and marginal; their true counts and xv statistics
    stack into ``(n_snapshots, n_cells)`` matrices and the whole stack's
    noise is a single vectorized mechanism call instead of one RNG draw
    per snapshot.  Each snapshot is still an independent full-budget
    release — stacking batches the randomness, it does not compose
    budgets.  Returns one :class:`MarginalRelease` per snapshot.
    """
    if not worker_fulls:
        return []
    rng = as_generator(seed)
    schema = worker_fulls[0].table.schema
    if any(worker_full.table.schema != schema for worker_full in worker_fulls):
        raise ValueError("all snapshots must share one schema")
    spec = _calibrated_spec(mechanism_name)
    years = [
        compute_release_statistics(worker_full, attrs, worker_attrs, mode)
        for worker_full in worker_fulls
    ]
    marginal, mode = years[0].marginal, years[0].mode
    check_mechanism_mode(spec, mode, years[0].has_worker_attrs)
    budget = marginal_budget(
        params, schema, attrs, worker_attrs, mode, budget_style
    )
    mechanism = spec.create(budget.per_cell, **(mechanism_options or {}))
    true_stack = np.stack([year.true for year in years])
    released_stack = np.stack([year.released for year in years])
    xv_stack = np.stack([year.xv for year in years])

    # One draw covers every (snapshot, cell); suppressed cells discard
    # their (independent) noise afterwards, which leaves the released
    # cells' distribution untouched.
    if spec.needs_xv:
        noisy_stack = mechanism.release_counts_batch(true_stack, xv_stack, 1, rng)
    else:
        noisy_stack = mechanism.release_counts_batch(true_stack, 1, rng)
    noisy_stack = np.where(released_stack, noisy_stack, 0.0)

    return [
        MarginalRelease(
            marginal=marginal,
            true=true_stack[i],
            noisy=noisy_stack[i],
            released=released_stack[i],
            max_single=xv_stack[i],
            budget=budget,
            mechanism_name=mechanism_name,
        )
        for i in range(len(worker_fulls))
    ]
