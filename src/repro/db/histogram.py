"""Per-establishment worker-attribute cross-tabulations h(w, c).

Sec 5.1 of the paper describes the SDL input as a ``WorkplaceFull`` table
with, per workplace ``w``, a histogram ``h(w)`` of its workforce counts
cross-tabulated over all combinations ``c`` of worker attributes.  The SDL
system multiplies every ``h(w, c)`` by the establishment's permanent fuzz
factor before tabulating.

We store the histograms as a scipy CSR sparse matrix (establishments ×
worker cells): real LODES worker domains have hundreds of cells and most
establishments populate only a few.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.db.join import WorkerFull
from repro.db.query import Marginal

if TYPE_CHECKING:
    from scipy import sparse


def establishment_histograms(
    worker_full: WorkerFull, worker_attrs: Sequence[str]
) -> sparse.csr_matrix:
    """Sparse matrix ``H`` with ``H[w, c] = h(w, c)``.

    ``worker_attrs`` selects the worker attributes whose cross product
    forms the histogram cells ``c`` (flat-indexed via
    :class:`repro.db.query.Marginal` cell order).  An empty ``worker_attrs``
    produces a single column holding total employment per establishment.
    """
    from scipy import sparse

    marginal = Marginal(worker_full.table.schema, worker_attrs)
    cell = marginal.cell_index(worker_full.table)
    data = np.ones(worker_full.n_jobs, dtype=np.int64)
    matrix = sparse.coo_matrix(
        (data, (worker_full.establishment, cell)),
        shape=(worker_full.n_establishments, marginal.n_cells),
    )
    return matrix.tocsr()
