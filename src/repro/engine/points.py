"""Neutral point/result dataclasses shared across the layer boundaries.

These types live below every layer that uses them: the session, the
evaluation kernels (:mod:`repro.engine.evaluate`), the sweep engine and
the experiment harness all import *down* into this module and never at
each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.metrics.ranking import RankLayout, centered_rank_stats
from repro.metrics.strata import STRATUM_LABELS

if TYPE_CHECKING:  # annotation-only: neither layer is imported at runtime
    from repro.db.query import Marginal
    from repro.experiments.workloads import Workload

N_STRATA = len(STRATUM_LABELS)


def stratum_index_sets(strata: np.ndarray) -> tuple[np.ndarray, ...]:
    """Read-only index sets over evaluation cells: overall + one per stratum.

    ``strata`` is the place-population stratum of each evaluation cell.
    The indices ascend, so gathering with them preserves cell order (and
    hence float summation order) exactly.  Sweeps
    (:attr:`WorkloadStatistics.stratum_cells`) and release results
    (:class:`repro.api.result.EvaluationBaseline`) both evaluate over
    these sets.
    """
    sets = (
        np.arange(strata.size),
        *(np.flatnonzero(strata == s) for s in range(N_STRATA)),
    )
    for idx in sets:
        idx.setflags(write=False)
    return sets


def baseline_rank_stats(
    sdl: np.ndarray, index_sets
) -> tuple[tuple[np.ndarray, float], ...]:
    """Per index set: ``(centered SDL ranks, rank sd)``, read-only.

    Spearman compares every noisy ordering against the *same* SDL
    ordering, so one ranking of the baseline per set serves every trial,
    mechanism and release; sets with fewer than 2 cells get an empty
    rank vector (their ρ is undefined).
    """
    stats = []
    for idx in index_sets:
        if idx.size < 2:
            stats.append((np.empty(0, dtype=np.float64), 0.0))
            continue
        centered, sd = centered_rank_stats(sdl[idx])
        centered.setflags(write=False)
        stats.append((centered, sd))
    return tuple(stats)


@dataclass(frozen=True)
class WorkloadStatistics:
    """Trial-invariant statistics of one workload on one snapshot.

    Arrays are over the marginal's cells.  ``mask`` selects the cells
    used for evaluation (positive true count, hence published by both
    systems); ``xv`` is the smooth-sensitivity statistic; ``strata`` the
    place-population stratum per cell.
    """

    workload: "Workload"
    marginal: "Marginal"
    true: np.ndarray
    released: np.ndarray
    xv: np.ndarray
    strata: np.ndarray
    sdl_noisy: np.ndarray
    mode: str
    per_cell_params_of: object  # Callable[[EREEParams], EREEParams]
    budget_of: object = None  # Callable[[EREEParams], MarginalBudget]

    @cached_property
    def mask(self) -> np.ndarray:
        # cached_property writes straight into __dict__, so it works on a
        # frozen dataclass; every statistic below derives from this mask
        # and is likewise computed once per (workload, snapshot), not
        # once per sweep point.
        return (self.true > 0) & self.released

    def masked(self, values: np.ndarray) -> np.ndarray:
        return values[self.mask]

    @cached_property
    def eval_true(self) -> np.ndarray:
        """True counts over the evaluation cells."""
        return self.true[self.mask]

    @cached_property
    def eval_sdl(self) -> np.ndarray:
        """SDL baseline answers over the evaluation cells."""
        return self.sdl_noisy[self.mask]

    @cached_property
    def eval_xv(self) -> np.ndarray:
        """Smooth-sensitivity statistic xv over the evaluation cells."""
        return self.xv[self.mask]

    @cached_property
    def eval_strata(self) -> np.ndarray:
        """Place-population stratum per evaluation cell."""
        return self.strata[self.mask]

    @cached_property
    def stratum_cells(self) -> tuple[np.ndarray, ...]:
        """Index sets over the evaluation cells: overall + one per stratum.

        Precomputed once (:func:`stratum_index_sets`) so the streaming
        reducers stop rebuilding N_STRATA + 1 boolean masks for every
        point of every sweep.
        """
        return stratum_index_sets(self.eval_strata)

    def envelope(self, alpha: float) -> np.ndarray:
        """Cached per-α smooth-sensitivity envelope ``max(xv·α, 1)``.

        The envelope depends on the workload's xv statistic and α only —
        never on the mechanism or ε — so one read-only vector per
        (workload, α) serves *every* mechanism of a sweep: each
        mechanism's noise scale is this envelope divided by its own
        admissibility scalar ``a(ε)``.  Computed through the shared
        :func:`~repro.core.smooth_sensitivity.smooth_envelope` kernel,
        identical to what the per-point release path evaluates.
        """
        from repro.core.smooth_sensitivity import smooth_envelope

        cache = self.__dict__.setdefault("_envelope_cache", {})
        envelope = cache.get(alpha)
        if envelope is None:
            envelope = smooth_envelope(self.eval_xv, alpha)
            envelope.setflags(write=False)
            cache[alpha] = envelope
        return envelope

    @cached_property
    def sdl_rank_stats(self) -> tuple[tuple[np.ndarray, float], ...]:
        """Per index set: ``(centered SDL ranks, rank sd)``, computed once.

        Aligned with :attr:`stratum_cells` (overall first, then one entry
        per stratum).  Spearman points compare every noisy ordering
        against the *same* SDL ordering, so ranking the baseline is
        trial- and mechanism-invariant — :attr:`sdl_rank_layout` permutes
        them into set order once, instead of re-ranking the SDL answers
        per (mechanism, α, ε, chunk).
        """
        return baseline_rank_stats(self.eval_sdl, self.stratum_cells)

    @cached_property
    def sdl_rank_layout(self) -> RankLayout:
        """:attr:`stratum_cells` in set order, with :attr:`sdl_rank_stats`.

        Built once, read-only: every Spearman reduction over this
        workload — family members and per-point chunks alike — gathers
        its rows into this order once and ranks the overall set and
        every stratum from one key build per row block
        (:class:`~repro.metrics.ranking.SetRanker`).
        """
        return RankLayout.build(self.stratum_cells, self.sdl_rank_stats)

    def stratum_masks(self) -> list[np.ndarray]:
        """Evaluation mask restricted to each place-population stratum."""
        return [
            self.mask & (self.strata == stratum) for stratum in range(N_STRATA)
        ]


@dataclass(frozen=True)
class SeriesPoint:
    """One plotted point: a (mechanism, α, ε) cell of a figure."""

    mechanism: str
    alpha: float | None
    epsilon: float
    overall: float
    by_stratum: tuple[float, ...]
    feasible: bool = True
    theta: int | None = None


@dataclass(frozen=True)
class FigureSeries:
    """All points of one figure, plus labeling metadata."""

    name: str
    title: str
    metric: str  # "l1-ratio" or "spearman"
    points: tuple[SeriesPoint, ...]

    def grid(self, mechanism: str, alpha: float | None = None) -> list[SeriesPoint]:
        return [
            p
            for p in self.points
            if p.mechanism == mechanism
            and (alpha is None or p.alpha == alpha)
        ]


def points_identical(a: SeriesPoint, b: SeriesPoint) -> bool:
    """Bit-level equality of two points, treating NaN as equal to NaN.

    Dataclass ``==`` fails on infeasible points (their values are NaN and
    ``nan != nan``); the driver-equivalence tests and the result store
    use this instead.
    """
    if (a.mechanism, a.theta, a.feasible) != (b.mechanism, b.theta, b.feasible):
        return False
    values_a = [a.alpha, a.epsilon, a.overall, *a.by_stratum]
    values_b = [b.alpha, b.epsilon, b.overall, *b.by_stratum]
    if len(values_a) != len(values_b):
        return False
    for x, y in zip(values_a, values_b):
        if x is None or y is None:
            if x is not y:
                return False
        elif not (x == y or (np.isnan(x) and np.isnan(y))):
            return False
    return True
