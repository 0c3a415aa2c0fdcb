"""The input-noise-infusion protection system (Sec 5.1).

``InputNoiseInfusion.fit`` draws the permanent per-establishment fuzz
factors once; ``answer_marginal`` then tabulates any marginal by summing
fuzzed establishment contributions ``f_w · h(w, c)`` and applying the
small-cell replacement to cells whose *true* count is in ``(0, S)``.

Summing ``f_w · h(w, c)`` over matching establishments is implemented as
a weighted bincount with per-job weight ``f_{w(job)}`` — identical by
linearity, and O(jobs) per marginal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.db.histogram import establishment_histograms
from repro.db.join import WorkerFull
from repro.db.query import Marginal
from repro.sdl.distortion import DistortionParams, sample_distortion_factors
from repro.sdl.small_cells import SmallCellModel
from repro.util import as_generator, derive_seed

if TYPE_CHECKING:
    from scipy import sparse


@dataclass(frozen=True)
class SDLAnswer:
    """One protected marginal release.

    ``noisy`` is the published vector; ``true`` the confidential counts;
    ``replaced`` flags cells that went through small-cell replacement.
    """

    noisy: np.ndarray
    true: np.ndarray
    replaced: np.ndarray


@dataclass
class InputNoiseInfusion:
    """The current SDL system, fit once per confidential snapshot."""

    distortion: DistortionParams = field(default_factory=DistortionParams)
    small_cells: SmallCellModel = field(default_factory=SmallCellModel)
    seed: int = 0
    _factors: np.ndarray | None = field(default=None, repr=False)

    def fit(self, worker_full: WorkerFull) -> "InputNoiseInfusion":
        """Draw the permanent fuzz factor for every establishment."""
        rng = as_generator(derive_seed(self.seed, "sdl-factors"))
        self._factors = sample_distortion_factors(
            self.distortion, worker_full.n_establishments, rng
        )
        return self

    @property
    def factors(self) -> np.ndarray:
        """Permanent per-establishment fuzz factors (confidential in prod)."""
        if self._factors is None:
            raise RuntimeError("call fit() before using the SDL system")
        return self._factors

    def answer_marginal(
        self, worker_full: WorkerFull, marginal: Marginal, seed=None
    ) -> SDLAnswer:
        """Publish marginal counts under input noise infusion.

        The small-cell draw is the only per-release randomness; the fuzz
        factors are the permanent ones drawn by :meth:`fit`.
        """
        factors = self.factors
        job_weights = factors[worker_full.establishment]
        noisy = marginal.weighted_counts(worker_full.table, job_weights)
        true = marginal.counts(worker_full.table).astype(np.float64)

        replaced = self.small_cells.is_small(true)
        n_replaced = int(replaced.sum())
        if n_replaced:
            rng = as_generator(
                derive_seed(self.seed, "sdl-small-cells") if seed is None else seed
            )
            noisy = noisy.copy()
            noisy[replaced] = self.small_cells.sample(n_replaced, rng)

        # Zero true counts are published as exact zeros (Sec 5.1).
        noisy = noisy.copy()
        noisy[true == 0] = 0.0
        return SDLAnswer(noisy=noisy, true=true, replaced=replaced)

    def protected_histograms(
        self, worker_full: WorkerFull, worker_attrs
    ) -> sparse.csr_matrix:
        """The fuzzed per-establishment histograms h*(w, c) = f_w · h(w, c).

        This is the intermediate product the Sec 5.2 attacks exploit:
        every cell of establishment ``w`` shares the same factor ``f_w``
        and zero cells stay exactly zero.
        """
        from scipy import sparse

        histograms = establishment_histograms(worker_full, worker_attrs)
        scaling = sparse.diags(self.factors)
        return (scaling @ histograms).tocsr()
