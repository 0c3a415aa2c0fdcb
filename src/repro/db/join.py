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

The join checks both job arrays once: their index ranges, and whether
``job_worker`` is the identity.  A job array held by a read-only memory
map is scanned in ~1 MB blocks whose pages are dropped once read
(:func:`repro.db.table._blocks`), so under the identity pairing
``job_worker`` never becomes resident.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.table import Table, _blocks, _bounds


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
        if self.establishment.size:
            low, high = _bounds(self.establishment)
            if low < 0 or high >= self.n_establishments:
                raise ValueError(
                    "establishment index (job_establishment) out of range "
                    "of the Workplace table"
                )

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
    the job order.  Both index arrays are checked, each scanned once:
    ``job_worker`` here (an identity ``job_worker`` is in range by its
    identity check), ``job_establishment`` by :class:`WorkerFull`.  The
    tables' codes were checked when the tables were built, so the join
    scans no column.
    """
    job_worker = np.asarray(job_worker, dtype=np.int64)
    job_establishment = np.asarray(job_establishment, dtype=np.int64)
    if job_worker.shape != job_establishment.shape:
        raise ValueError("job arrays must have equal length")
    identity = _is_identity(job_worker, worker.n_rows)
    if job_worker.size and not identity:
        low, high = _bounds(job_worker)
        if low < 0 or high >= worker.n_rows:
            raise ValueError("job_worker index out of range of the Worker table")

    table = Table._joined(
        [(worker, None if identity else job_worker), (workplace, job_establishment)]
    )
    return WorkerFull(
        table=table,
        establishment=job_establishment,
        n_establishments=workplace.n_rows,
    )


def _is_identity(job_worker: np.ndarray, n_workers: int) -> bool:
    """Whether ``job_worker`` is ``0, 1, ..., n_workers - 1``: ``n_workers``
    values rising strictly from above -1 to ``n_workers - 1``, which also
    puts them in range.  Read by :func:`repro.db.table._blocks`."""
    if job_worker.size != n_workers:
        return False
    last = -1
    for block in _blocks(job_worker):
        if block[0] <= last or not np.all(block[1:] > block[:-1]):
            return False
        last = int(block[-1])
    return last == n_workers - 1
