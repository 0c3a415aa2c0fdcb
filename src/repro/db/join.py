"""The WorkerFull universal relation (Sec 3.1 of the paper).

LODES has three tables: ``Workplace`` (one record per establishment),
``Worker`` (one record per employed individual) and ``Job`` (pairs of
worker and workplace IDs).  Each worker holds exactly one job, so the
universal relation ``WorkerFull = Worker ⋈ Job ⋈ Workplace`` has one
record per worker carrying both worker and workplace attributes.

Because the smooth-sensitivity mechanisms and the SDL system both need to
know which establishment each joined record came from, the join result
carries the establishment row index explicitly alongside the attribute
table (explicit is better than hiding it in a pseudo-attribute).

The join copies no column (see :mod:`repro.db.table`).  When
``job_worker`` is the identity, as in every generated snapshot, a worker
column reads as a read-only view of the Worker table's own array (a
store-opened snapshot's memory map), so processes sharing a snapshot
share those pages.  Every other column, and every worker column under
any other ``job_worker``, is gathered through the job index on its first
read and kept.  Joined columns are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.table import Table


@dataclass(frozen=True)
class WorkerFull:
    """The joined universal relation plus job-level establishment links.

    ``table`` has one row per job with worker and workplace attributes;
    ``establishment[i]`` is the Workplace-table row index of job ``i``;
    ``n_establishments`` is the total number of establishments in the
    Workplace table (including any with zero matching jobs).
    """

    table: Table
    establishment: np.ndarray
    n_establishments: int

    def __post_init__(self):
        if self.establishment.shape != (self.table.n_rows,):
            raise ValueError("establishment index must have one entry per row")
        if self.establishment.size and (
            self.establishment.min() < 0
            or self.establishment.max() >= self.n_establishments
        ):
            raise ValueError("establishment index out of range")

    @property
    def n_jobs(self) -> int:
        return self.table.n_rows

    def establishment_sizes(self) -> np.ndarray:
        """Total employment |e| per establishment (length n_establishments)."""
        return np.bincount(
            self.establishment, minlength=self.n_establishments
        ).astype(np.int64)

    def filter(self, mask: np.ndarray) -> "WorkerFull":
        """Restrict to jobs where ``mask`` is true (establishment set kept)."""
        mask = np.asarray(mask, dtype=bool)
        return WorkerFull(
            table=self.table.filter(mask),
            establishment=self.establishment[mask],
            n_establishments=self.n_establishments,
        )


def join_worker_full(
    worker: Table,
    workplace: Table,
    job_worker: np.ndarray,
    job_establishment: np.ndarray,
) -> WorkerFull:
    """Join Worker and Workplace through the Job pairs.

    ``job_worker[i]`` and ``job_establishment[i]`` are row indices into the
    Worker and Workplace tables for job ``i``.  The result row order follows
    the job order.  Both index arrays are checked here; the tables' codes
    were checked when the tables were built, so the join scans no column.
    """
    job_worker = np.asarray(job_worker, dtype=np.int64)
    job_establishment = np.asarray(job_establishment, dtype=np.int64)
    if job_worker.shape != job_establishment.shape:
        raise ValueError("job arrays must have equal length")
    if job_worker.size:
        if job_worker.min() < 0 or job_worker.max() >= worker.n_rows:
            raise ValueError("job_worker index out of range of the Worker table")
        if job_establishment.min() < 0 or job_establishment.max() >= workplace.n_rows:
            raise ValueError(
                "job_establishment index out of range of the Workplace table"
            )

    # In range and strictly increasing over every Worker row: the identity.
    identity = job_worker.size == worker.n_rows and bool(
        np.all(job_worker[1:] > job_worker[:-1])
    )
    table = Table._joined(
        [(worker, None if identity else job_worker), (workplace, job_establishment)]
    )
    return WorkerFull(
        table=table,
        establishment=job_establishment,
        n_establishments=workplace.n_rows,
    )
