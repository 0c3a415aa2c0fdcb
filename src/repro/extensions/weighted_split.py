"""Non-uniform budget allocation across worker cells (future-work ext.).

Under weak (α, ε)-ER-EE privacy a marginal containing worker attributes
costs the *sum* of the per-worker-cell budgets for each establishment
(Sec 8): the paper divides ε evenly over the d worker cells.  Sequential
composition, however, only requires Σ_c ε_c = ε — the allocation itself
is free.  Since a cell's expected error is proportional to S_c / ε_c
(S_c the smooth sensitivity), total error Σ_c S_c/ε_c is minimized by
the square-root rule ε_c ∝ √S_c (Cauchy-Schwarz).

The sensitivities are confidential, so the allocation must not read them
directly.  ``release_marginal_weighted`` therefore runs two rigorous
stages:

1. a **pilot** release of the worker-attribute-only marginal (national
   class totals) at a small budget ε₀, uniformly split — this is itself
   a weak release costing ε₀;
2. the **main** release with the remaining ε - ε₀ allocated across the
   worker cells proportionally to the square root of the pilot's noisy
   class totals.

The stage-2 allocation is a function of stage-1 *outputs*, so by
post-processing plus sequential composition the whole procedure is weak
(α, ε)-ER-EE private.  Stage 2 reads the marginal's weak release
prologue (:func:`repro.core.release.compute_release_statistics`: true
counts, release mask and xv) like every other release; only stage 1's
worker-only class totals are tabulated here.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from dataclasses import dataclass

import numpy as np

from repro.api.registry import COMPOSITE, create_mechanism, register_mechanism
from repro.core.composition import WEAK, MarginalBudget
from repro.core.params import EREEParams
from repro.core.release import (
    DEFAULT_WORKER_ATTRS,
    MarginalRelease,
    compute_release_statistics,
)
from repro.db.join import WorkerFull
from repro.db.query import Marginal, per_establishment_counts
from repro.util import as_generator, check_fraction, check_positive


@dataclass(frozen=True)
class WeightedSplit:
    """An ε allocation over the worker cells of a weak marginal.

    ``epsilons[c]`` is the budget of worker-cell class ``c``; their sum
    is the total privacy loss per establishment.
    """

    epsilons: np.ndarray

    def __post_init__(self):
        if np.any(self.epsilons <= 0):
            raise ValueError("every worker cell needs a positive budget")

    @property
    def total(self) -> float:
        return float(self.epsilons.sum())

    @property
    def d(self) -> int:
        return len(self.epsilons)


def uniform_split(total_epsilon: float, d: int) -> WeightedSplit:
    """The paper's allocation: ε/d per worker cell."""
    check_positive("total_epsilon", total_epsilon)
    check_positive("d", d)
    return WeightedSplit(np.full(d, total_epsilon / d))


def optimal_split(
    total_epsilon: float,
    sensitivity_proxy: np.ndarray,
    floor_fraction: float = 0.2,
    min_epsilon: float = 0.0,
) -> WeightedSplit:
    """Square-root allocation ε_c ∝ √proxy_c with a uniform floor.

    ``floor_fraction`` of the budget is spread uniformly so that a cell
    whose proxy was (noisily) estimated near zero still gets usable
    accuracy; the rest follows the √ rule.  ``min_epsilon`` imposes a
    per-cell lower bound (the mechanism's feasibility threshold) via
    water-filling: clipped cells sit at the bound, the remainder is
    distributed √-proportionally among the rest.
    """
    check_positive("total_epsilon", total_epsilon)
    check_fraction("floor_fraction", floor_fraction)
    proxy = np.clip(np.asarray(sensitivity_proxy, dtype=np.float64), 0.0, None)
    d = len(proxy)
    if min_epsilon * d > total_epsilon:
        raise ValueError(
            f"budget {total_epsilon} cannot give {d} cells the feasibility "
            f"minimum {min_epsilon} each"
        )
    weights = np.sqrt(proxy)
    if weights.sum() == 0:
        weights = np.ones(d)
    weights = weights / weights.sum()
    floor = floor_fraction * total_epsilon / d
    epsilons = floor + (1.0 - floor_fraction) * total_epsilon * weights

    # Water-filling against the feasibility minimum.
    clipped = np.zeros(d, dtype=bool)
    for _ in range(d):
        below = (epsilons < min_epsilon) & ~clipped
        if not below.any():
            break
        clipped |= below
        epsilons[clipped] = min_epsilon
        remaining = total_epsilon - min_epsilon * clipped.sum()
        free = ~clipped
        if not free.any():
            break
        free_weights = weights[free] / weights[free].sum()
        epsilons[free] = remaining * free_weights
    return WeightedSplit(epsilons)


@dataclass(frozen=True)
class WeightedRelease:
    """Result of the two-stage weighted release."""

    release: MarginalRelease
    split: WeightedSplit
    pilot_totals: np.ndarray
    pilot_epsilon: float
    worker_attrs_in_marginal: tuple[str, ...]

    @property
    def total_epsilon(self) -> float:
        return self.pilot_epsilon + self.split.total


def _worker_cell_of_marginal(
    marginal: Marginal, worker_attrs_in_marginal: Sequence[str]
) -> np.ndarray:
    """Map each full-marginal cell to its worker-cell class index."""
    return marginal.project_onto(list(worker_attrs_in_marginal))


def feasibility_floor(mechanism_name: str, params: EREEParams) -> float:
    """The smallest per-cell ε the mechanism accepts at (α, δ)."""
    if mechanism_name == "smooth-laplace":
        from repro.core.params import min_epsilon as smooth_laplace_min

        return smooth_laplace_min(params.alpha, params.delta)
    # smooth-gamma: keep a usable sliding budget eps1 >= 0.2.
    return 5.0 * float(np.log1p(params.alpha)) + 0.2


def release_marginal_weighted(
    worker_full: WorkerFull,
    attrs: Sequence[str],
    mechanism_name: str,
    params: EREEParams,
    worker_attrs: Collection[str] = DEFAULT_WORKER_ATTRS,
    split: WeightedSplit | None = None,
    pilot_fraction: float = 0.2,
    seed=None,
    n_trials: int | None = None,
) -> WeightedRelease:
    """Weak release with a non-uniform worker-cell allocation.

    ``params.epsilon`` is the total budget.  Two ways to choose the
    allocation:

    - pass ``split`` explicitly (its total must equal the budget) — for
      allocations derived from *public* knowledge such as national ACS
      attribute shares, costing no extra budget;
    - leave ``split=None`` to run the two-stage pilot: ``pilot_fraction``
      of the budget buys noisy class totals, and the remainder follows
      the √ rule on those released estimates.

    δ is interpreted per released count as elsewhere in the library.
    Only the smooth mechanisms are supported (the √ rule needs their
    linear error-in-1/ε form; Log-Laplace's error is not budget-linear).

    The class loop only *builds* the per-cell noise scales (validating
    each class budget's feasibility); the stage-2 noise itself is one
    vectorized draw of the mechanism's unit distribution — which is the
    same for every class, the budgets only move the scale.  ``n_trials``
    batches that draw into a ``(n_trials, n_cells)`` matrix of
    independent stage-2 trials sharing the stage-1 pilot allocation (run
    separate calls for independent pilots).
    """
    if mechanism_name == "log-laplace":
        raise ValueError(
            "weighted splitting targets the smooth mechanisms; Log-Laplace "
            "error is not linear in 1/epsilon"
        )
    rng = as_generator(seed)
    schema = worker_full.table.schema
    worker_attrs_in_marginal = tuple(a for a in attrs if a in worker_attrs)
    if not worker_attrs_in_marginal:
        raise ValueError(
            "weighted splitting only applies to marginals with worker "
            f"attributes; got {tuple(attrs)}"
        )
    class_marginal = Marginal(schema, worker_attrs_in_marginal)
    d = class_marginal.n_cells

    if split is not None:
        if abs(split.total - params.epsilon) > 1e-9:
            raise ValueError(
                f"explicit split totals {split.total}, budget is {params.epsilon}"
            )
        if split.d != d:
            raise ValueError(f"split covers {split.d} cells, marginal has {d}")
        pilot_epsilon = 0.0
        pilot_totals = np.full(d, np.nan)
    else:
        check_fraction("pilot_fraction", pilot_fraction)
        # --- Stage 1: pilot class totals at eps0, uniformly split. -----
        pilot_epsilon = pilot_fraction * params.epsilon
        floor = feasibility_floor(mechanism_name, params)
        if pilot_epsilon / d < floor:
            raise ValueError(
                f"pilot budget {pilot_epsilon:.3g} over {d} classes gives "
                f"{pilot_epsilon / d:.3g} per class, below the mechanism's "
                f"feasibility floor {floor:.3g}; raise pilot_fraction or "
                "the total budget, or pass an explicit split"
            )
        class_counts = class_marginal.counts(worker_full.table).astype(
            np.float64
        )
        class_stats = per_establishment_counts(
            class_marginal.cell_index(worker_full.table),
            worker_full.establishment,
            d,
        )
        pilot_mechanism = create_mechanism(
            mechanism_name,
            EREEParams(params.alpha, pilot_epsilon / d, params.delta),
        )
        pilot_totals = pilot_mechanism.release_counts(
            class_counts, class_stats.max_single, rng
        )
        # Allocation from the pilot outputs only, respecting feasibility.
        split = optimal_split(
            params.epsilon - pilot_epsilon,
            pilot_totals,
            min_epsilon=feasibility_floor(mechanism_name, params),
        )

    # --- Stage 2: the marginal, one worker-cell class at a time. -------
    # The weak release prologue: true counts, release mask and xv.
    stats = compute_release_statistics(worker_full, attrs, worker_attrs, WEAK)
    marginal, true, released = stats.marginal, stats.true, stats.released

    cell_class = _worker_cell_of_marginal(marginal, worker_attrs_in_marginal)
    # Per-cell noise scale: class-specific budget, cell-specific smooth
    # sensitivity.  Constructing each class's mechanism keeps the
    # per-class feasibility validation; no randomness is drawn here.
    scale = np.zeros(marginal.n_cells, dtype=np.float64)
    unit_distribution = None
    for class_index in range(d):
        members = released & (cell_class == class_index)
        if not members.any():
            continue
        mechanism = create_mechanism(
            mechanism_name,
            EREEParams(
                params.alpha, float(split.epsilons[class_index]), params.delta
            ),
        )
        scale[members] = mechanism.noise_scale(stats.xv[members])
        unit_distribution = mechanism.distribution

    shape = (
        (marginal.n_cells,)
        if n_trials is None
        else (n_trials, marginal.n_cells)
    )
    noisy = np.zeros(shape, dtype=np.float64)
    if unit_distribution is not None:
        n_released = int(released.sum())
        draw_shape = (
            n_released if n_trials is None else (n_trials, n_released)
        )
        unit = unit_distribution.sample(draw_shape, rng)
        noisy[..., released] = true[released] + scale[released] * unit

    budget = MarginalBudget(
        per_cell=EREEParams(
            params.alpha, float(split.epsilons.min()), params.delta
        ),
        total=params,
        mode=WEAK,
        worker_domain=d,
    )
    release = MarginalRelease(
        marginal=marginal,
        true=true,
        noisy=noisy,
        released=released,
        max_single=stats.xv,
        budget=budget,
        mechanism_name=f"{mechanism_name} (weighted split)",
    )
    return WeightedRelease(
        release=release,
        split=split,
        pilot_totals=pilot_totals,
        pilot_epsilon=pilot_epsilon,
        worker_attrs_in_marginal=worker_attrs_in_marginal,
    )


# Registered as a composite procedure: selectable by name everywhere, but
# executed through ReleaseSession.run (or this function) rather than
# instantiated per cell.
register_mechanism(
    "weighted-split",
    kind=COMPOSITE,
    description="Two-stage √-rule ε allocation over worker cells (weak "
    "mode): pilot class totals, then the marginal at ε_c ∝ √pilot_c",
)(release_marginal_weighted)
