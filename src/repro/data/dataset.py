"""The LODESDataset container tying the three tables together.

A :class:`LODESDataset` holds the Worker, Workplace and Job tables, the
geography they were generated against, and convenience accessors used
throughout the experiments: the WorkerFull join, establishment sizes, and
place populations for stratified reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.geography import Geography, stratum_codes_of_populations
from repro.db.join import WorkerFull, join_worker_full
from repro.db.table import Table


@dataclass
class LODESDataset:
    """A synthetic LODES snapshot.

    ``worker`` has one row per employed individual; ``workplace`` one row
    per establishment; jobs pair them by row index (each worker holds
    exactly one job, as the paper assumes).
    """

    worker: Table
    workplace: Table
    job_worker: np.ndarray
    job_establishment: np.ndarray
    geography: Geography
    _worker_full: WorkerFull | None = field(default=None, repr=False)

    @property
    def n_jobs(self) -> int:
        return len(self.job_worker)

    @property
    def n_establishments(self) -> int:
        return self.workplace.n_rows

    @property
    def n_workers(self) -> int:
        return self.worker.n_rows

    def worker_full(self) -> WorkerFull:
        """The universal relation Worker ⋈ Job ⋈ Workplace (cached)."""
        if self._worker_full is None:
            self._worker_full = join_worker_full(
                self.worker, self.workplace, self.job_worker, self.job_establishment
            )
        return self._worker_full

    def establishment_sizes(self) -> np.ndarray:
        """Total employment per establishment, aligned to Workplace rows."""
        return np.bincount(
            self.job_establishment, minlength=self.n_establishments
        ).astype(np.int64)

    def place_population(self, place_code: int) -> int:
        """2010-Census-style total population of place ``place_code``."""
        return int(self.geography.place_populations[place_code])

    def place_stratum_codes(self) -> np.ndarray:
        """Stratum index per place code (see ``PLACE_STRATA``)."""
        return stratum_codes_of_populations(self.geography.place_populations)

    def summary(self) -> dict[str, float]:
        """Headline statistics (for logging and sanity tests)."""
        sizes = self.establishment_sizes()
        return {
            "n_jobs": float(self.n_jobs),
            "n_establishments": float(self.n_establishments),
            "n_places": float(self.geography.n_places),
            "mean_establishment_size": float(sizes.mean()) if sizes.size else 0.0,
            "max_establishment_size": float(sizes.max()) if sizes.size else 0.0,
        }
