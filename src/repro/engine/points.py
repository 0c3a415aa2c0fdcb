"""Neutral point/result dataclasses shared across the layer boundaries.

These types live below every layer that uses them: the session, the
evaluation kernels (:mod:`repro.engine.evaluate`), the sweep engine and
the experiment harness all import *down* into this module and never at
each other.

:class:`EvaluationBaseline` is the one SDL side of the Sec-10 metrics:
the session builds it once per (marginal, population, evaluation mask),
and every consumer — figure points, pointwise and fused, Table 3 rows,
and release results — reads that record instead of recomputing the SDL
error or ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.metrics.error import l1_error
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
    hence float summation order) exactly.
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
class EvaluationBaseline:
    """The SDL side of the Sec-10 metrics over one evaluation mask.

    ``cells`` are the evaluation cells, ascending indices into the
    marginal.  ``index_sets`` index into ``cells``: the overall set
    first, then one set per place-population stratum (all empty when
    the marginal has no strata).  Per set, ``sdl_l1`` is the SDL
    baseline's L1 error and ``rank_stats`` its centered ranks and rank
    sd; ``rank_layout`` lays the sets out in set order with those ranks
    for the Spearman kernel.  Every array is read-only, so one record
    can be shared by every release and figure point whose mask has this
    content.
    """

    cells: np.ndarray
    index_sets: tuple[np.ndarray, ...]
    sdl_l1: tuple[float, ...]
    rank_stats: tuple[tuple[np.ndarray, float], ...]
    rank_layout: RankLayout

    @classmethod
    def build(
        cls,
        mask: np.ndarray,
        true: np.ndarray,
        sdl_noisy: np.ndarray,
        strata: np.ndarray | None,
    ) -> "EvaluationBaseline":
        """The record for boolean ``mask`` over the marginal's cells."""
        cells = np.flatnonzero(mask)
        cells.setflags(write=False)
        # Without strata no cell is in any stratum: those sets are empty,
        # so their metrics come back nan.
        index_sets = stratum_index_sets(
            np.full(cells.size, -1) if strata is None else strata[cells]
        )
        true, sdl = true[cells], sdl_noisy[cells]
        rank_stats = baseline_rank_stats(sdl, index_sets)
        return cls(
            cells,
            index_sets,
            tuple(l1_error(true[idx], sdl[idx]) for idx in index_sets),
            rank_stats,
            RankLayout.build(index_sets, rank_stats),
        )


@dataclass(frozen=True)
class WorkloadStatistics:
    """Trial-invariant statistics of one workload on one snapshot.

    Arrays are over the marginal's cells.  ``true``, ``released`` and
    ``xv`` (the smooth-sensitivity statistic) are the workload's release
    prologue; ``strata`` is the place-population stratum per cell and
    ``sdl_noisy`` the SDL baseline's answer.  ``mask`` selects the cells
    used for evaluation (positive true count, hence published by both
    systems), and ``evaluation`` is the session's shared SDL record over
    that mask.
    """

    workload: "Workload"
    marginal: "Marginal"
    true: np.ndarray
    released: np.ndarray
    xv: np.ndarray
    strata: np.ndarray
    sdl_noisy: np.ndarray
    evaluation: EvaluationBaseline
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

    @cached_property
    def eval_true(self) -> np.ndarray:
        """True counts over the evaluation cells."""
        return self.true[self.mask]

    @cached_property
    def eval_xv(self) -> np.ndarray:
        """Smooth-sensitivity statistic xv over the evaluation cells."""
        return self.xv[self.mask]

    @cached_property
    def eval_strata(self) -> np.ndarray:
        """Place-population stratum per evaluation cell."""
        return self.strata[self.mask]

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
