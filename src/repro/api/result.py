"""Uniform release results with evaluation helpers.

Every request executed by :class:`repro.api.ReleaseSession` returns a
:class:`ReleaseResult`: the underlying
:class:`~repro.core.release.MarginalRelease`, the request and derived
seed (provenance), the ledger entry it debited, and — when the session
has a fitted SDL system — the SDL baseline and place-population strata
needed for the paper's Sec 10 metrics (L1 error ratio and Spearman rank
correlation, overall and per stratum).

Metric conventions match :mod:`repro.experiments.runner`: evaluation is
restricted to cells with positive true count that were released, the L1
ratio is the mean private L1 over trials divided by the SDL L1, and
Spearman compares each trial's ordering to the SDL ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.api.ledger import LedgerEntry
from repro.api.request import ReleaseRequest
from repro.core.composition import MarginalBudget
from repro.core.release import MarginalRelease
from repro.metrics.error import l1_error, l1_error_batch
from repro.metrics.ranking import centered_rank_stats, spearman_distinct_batch
from repro.metrics.strata import STRATUM_LABELS

N_STRATA = len(STRATUM_LABELS)


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

    ``sdl_noisy`` and ``strata`` are per-cell arrays over the marginal
    (present when the session computed its SDL baseline); the metric
    helpers return ``nan`` when a baseline is unavailable or a stratum
    is empty, mirroring the figure runner.
    """

    request: ReleaseRequest
    release: MarginalRelease
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

    def mean_l1(self, cells: np.ndarray | None = None) -> float:
        """Mean-over-trials total L1 error on the evaluation cells."""
        cells = self.mask if cells is None else cells
        if not cells.any():
            return float("nan")
        return float(
            l1_error_batch(self.true[cells], self.trials()[:, cells]).mean()
        )

    def l1_ratio(self, cells: np.ndarray | None = None) -> float:
        """Mean private L1 over trials / SDL L1 (the Sec 10 error ratio)."""
        cells = self.mask if cells is None else cells
        if self.sdl_noisy is None or not cells.any():
            return float("nan")
        sdl_l1 = l1_error(self.true[cells], self.sdl_noisy[cells])
        private_l1 = self.mean_l1(cells)
        if sdl_l1 == 0.0:
            return math.inf if private_l1 > 0 else float("nan")
        return private_l1 / sdl_l1

    def spearman(self, cells: np.ndarray | None = None) -> float:
        """Mean-over-trials Spearman ρ against the SDL ordering."""
        cells = self.mask if cells is None else cells
        if self.sdl_noisy is None or int(cells.sum()) < 2:
            return float("nan")
        values = spearman_distinct_batch(
            self.trials()[:, cells], *centered_rank_stats(self.sdl_noisy[cells])
        )
        if np.all(np.isnan(values)):
            return float("nan")
        return float(np.nanmean(values))

    def _stratum_cells(self) -> list[np.ndarray]:
        if self.strata is None:
            return []
        mask = self.mask
        return [mask & (self.strata == s) for s in range(N_STRATA)]

    def l1_ratio_by_stratum(self) -> tuple[float, ...]:
        """The error ratio per place-population stratum (Sec 10 panels)."""
        if self.strata is None:
            return (float("nan"),) * N_STRATA
        return tuple(self.l1_ratio(cells) for cells in self._stratum_cells())

    def spearman_by_stratum(self) -> tuple[float, ...]:
        """Spearman ρ per place-population stratum."""
        if self.strata is None:
            return (float("nan"),) * N_STRATA
        return tuple(self.spearman(cells) for cells in self._stratum_cells())

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
                "mean_l1": _json_float(self.mean_l1()),
                "l1_ratio": _json_float(self.l1_ratio()),
                "spearman": _json_float(self.spearman()),
                "l1_ratio_by_stratum": [
                    _json_float(v) for v in self.l1_ratio_by_stratum()
                ],
                "spearman_by_stratum": [
                    _json_float(v) for v in self.spearman_by_stratum()
                ],
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
        and quick inspection.
        """
        noisy = self.trials()[0]
        released = self.release.released
        order = np.argsort(noisy)[::-1]
        rows = []
        for index in order:
            if not released[index]:
                continue
            rows.append(
                (
                    self.release.marginal.cell_values(int(index)),
                    float(self.true[index]),
                    float(noisy[index]),
                )
            )
            if len(rows) >= k:
                break
        return rows
