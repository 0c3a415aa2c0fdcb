"""Uniform release results with evaluation helpers.

Every request executed by :class:`repro.api.ReleaseSession` returns a
:class:`ReleaseResult`: the underlying
:class:`~repro.core.release.MarginalRelease`, the request and derived
seed (provenance), the ledger entry it debited, and the SDL baseline
and place-population strata needed for the paper's Sec 10 metrics (L1
error ratio and Spearman rank correlation, overall and per stratum).

Metric conventions match :mod:`repro.engine.evaluate`: evaluation is
restricted to cells with positive true count that were released, the L1
ratio is the mean private L1 over trials divided by the SDL L1, and
Spearman compares each trial's ordering to the SDL ordering.

The SDL side of those metrics never changes between releases of one
marginal, so it lives in the session's one
:class:`~repro.engine.points.EvaluationBaseline` record per (marginal,
evaluation mask) — the same record the figure points read — attached to
every result; a result then pays only for its own noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.api.ledger import LedgerEntry
from repro.api.request import ReleaseRequest
from repro.core.composition import MarginalBudget
from repro.core.release import MarginalRelease
from repro.engine.points import EvaluationBaseline
from repro.metrics.ranking import SetRanker


def _json_float(value: float) -> float | None:
    """``nan``/``inf`` → ``None``: strict JSON has no non-finite floats."""
    value = float(value)
    return value if math.isfinite(value) else None


def _params_dict(params) -> dict:
    return {
        "alpha": params.alpha,
        "epsilon": params.epsilon,
        "delta": params.delta,
    }


@dataclass(frozen=True)
class ReleaseResult:
    """One executed release request, with provenance and metrics.

    ``evaluation`` is the session's shared SDL record over this
    release's evaluation mask; every metric reads it.  ``sdl_noisy``
    and ``strata`` are the per-cell arrays over the marginal it was
    built from (``strata`` is ``None`` without a ``place`` attribute).
    The metric helpers return ``nan`` when a stratum is empty,
    mirroring the figure kernels.
    """

    request: ReleaseRequest
    release: MarginalRelease
    evaluation: EvaluationBaseline
    seed: int | None = None
    ledger_entry: LedgerEntry | None = None
    sdl_noisy: np.ndarray | None = None
    strata: np.ndarray | None = None

    # -- delegation -----------------------------------------------------

    @property
    def noisy(self) -> np.ndarray:
        return self.release.noisy

    @property
    def true(self) -> np.ndarray:
        return self.release.true

    @property
    def released(self) -> np.ndarray:
        return self.release.released

    @property
    def budget(self) -> MarginalBudget:
        return self.release.budget

    @property
    def mechanism(self) -> str:
        return self.release.mechanism_name

    @property
    def n_trials(self) -> int:
        """Number of Monte Carlo trials in ``noisy`` (1 for a vector)."""
        return 1 if self.release.noisy.ndim == 1 else self.release.noisy.shape[0]

    @property
    def mask(self) -> np.ndarray:
        """Evaluation cells: released with positive true count (Sec 10)."""
        return self.release.released & (self.release.true > 0)

    def trials(self) -> np.ndarray:
        """``(n_trials, n_cells)`` view of the noisy release."""
        return np.atleast_2d(self.release.noisy)

    # -- metrics --------------------------------------------------------

    def mean_l1(self) -> float:
        """Mean-over-trials total L1 error on the evaluation cells."""
        return self._metrics[0][0]

    def l1_ratio(self) -> float:
        """Mean private L1 over trials / SDL L1 (the Sec 10 error ratio)."""
        return self._metrics[1][0]

    def spearman(self) -> float:
        """Mean-over-trials Spearman ρ against the SDL ordering."""
        return self._metrics[2][0]

    def l1_ratio_by_stratum(self) -> tuple[float, ...]:
        """The error ratio per place-population stratum (Sec 10 panels)."""
        return self._metrics[1][1:]

    def spearman_by_stratum(self) -> tuple[float, ...]:
        """Spearman ρ per place-population stratum."""
        return self._metrics[2][1:]

    @cached_property
    def _metrics(self) -> tuple[tuple[float, ...], ...]:
        """(mean L1, L1 ratios, Spearman ρs) over the evaluation record's
        sets, computed once per result (``cached_property`` writes into
        ``__dict__``, so it works on this frozen dataclass).

        One gather of the evaluation cells feeds one |error| pass, whose
        per-set row sums give the mean L1 and the L1 ratio.  An
        ``m[:, indices]`` gather is laid out like an ``m[:, mask]``
        slice, so each row sum adds the same values in the same order as
        slicing the marginal by that set's boolean mask; a set spanning
        every evaluation cell sums ``abs_err`` itself, which already has
        that layout.

        For Spearman, one :class:`~repro.metrics.ranking.SetRanker` call
        gathers those trials into the record's set order, block by
        block, and ranks every set from one key build per block —
        bit-identical, per trial and set, to the tie-averaging kernel on
        that set's cells.
        """
        evaluation = self.evaluation
        trials = self.trials()[:, evaluation.cells]
        abs_err = np.abs(trials - self.true[evaluation.cells])
        n_cells = evaluation.cells.size
        rhos = SetRanker(evaluation.rank_layout).rank_cells(trials)
        rows = []
        for j, idx in enumerate(evaluation.index_sets):
            mean_l1 = ratio = rho = float("nan")
            whole = idx.size == n_cells
            if idx.size:
                errors = abs_err if whole else abs_err[:, idx]
                mean_l1 = float(errors.sum(axis=1).mean())
                sdl_l1 = evaluation.sdl_l1[j]
                if sdl_l1 != 0.0:
                    ratio = mean_l1 / sdl_l1
                elif mean_l1 > 0:
                    ratio = math.inf
            if not np.all(np.isnan(rhos[j])):
                rho = float(np.nanmean(rhos[j]))
            rows.append((mean_l1, ratio, rho))
        return tuple(zip(*rows))

    # -- presentation ---------------------------------------------------

    def to_dict(self, *, top: int = 10) -> dict:
        """A JSON-serializable summary of this result (no raw arrays).

        This is the wire format of the release service and the CLI's
        ``--json`` output: provenance (the request payload and derived
        seed), the composed budget, the Sec-10 metrics against the SDL
        baseline, the spend record, and the ``top`` largest released
        cells.  ``nan`` metrics serialize as ``None`` so the payload is
        strict-JSON clean.
        """
        budget = self.budget
        mean_l1, l1_ratio, spearman = self._metrics
        return {
            "request": self.request.to_dict(),
            "seed": self.seed,
            "mechanism": self.mechanism,
            "n_trials": self.n_trials,
            "n_cells": int(self.release.marginal.n_cells),
            "n_released": int(self.release.released.sum()),
            "budget": {
                "mode": budget.mode,
                "worker_domain": budget.worker_domain,
                "per_cell": _params_dict(budget.per_cell),
                "total": _params_dict(budget.total),
            },
            "metrics": {
                "mean_l1": _json_float(mean_l1[0]),
                "l1_ratio": _json_float(l1_ratio[0]),
                "spearman": _json_float(spearman[0]),
                "l1_ratio_by_stratum": [_json_float(v) for v in l1_ratio[1:]],
                "spearman_by_stratum": [_json_float(v) for v in spearman[1:]],
            },
            "spend": (
                None if self.ledger_entry is None else self.ledger_entry.to_dict()
            ),
            "top_cells": [
                {
                    "cell": [str(v) for v in values],
                    "true": true,
                    "noisy": noisy,
                }
                for values, true, noisy in self.top_cells(top)
            ],
        }

    def top_cells(self, k: int = 10) -> list[tuple[tuple, float, float]]:
        """The ``k`` largest released cells as (labels, true, noisy).

        Uses the first trial of a batched release; handy for CLI output
        and quick inspection.  ``k=0`` gives no rows; a negative ``k``
        raises ``ValueError``.
        """
        if k < 0:
            raise ValueError(f"top_cells needs k >= 0, got {k}")
        noisy = self.trials()[0]
        released = self.release.released
        order = np.argsort(noisy)[::-1]
        rows = []
        for index in order:
            if len(rows) >= k:
                break
            if not released[index]:
                continue
            rows.append(
                (
                    self.release.marginal.cell_values(int(index)),
                    float(self.true[index]),
                    float(noisy[index]),
                )
            )
        return rows
