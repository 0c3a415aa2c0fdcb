"""Marginal-query evaluation (Definition 2.1 of the paper).

A marginal query ``q_V(D)`` over attribute set ``V`` returns one count per
cell of ``dom(V)``; in SQL, ``SELECT COUNT(*) FROM D GROUP BY V``.  Cells
are addressed by a flat mixed-radix index over the member attributes'
domains, in attribute order.

Beyond plain counts this module computes, per cell, the contribution of
the single largest establishment (``xv`` in Lemma 8.5).  The local
sensitivity of a cell count under α-neighbors is ``max(xv · α, 1)``, so
the smooth-sensitivity mechanisms (Algorithms 2 and 3) need ``xv`` for
every released cell.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.db.schema import Schema
from repro.db.table import Table


class Marginal:
    """A marginal query ``q_V`` over attributes ``attrs`` of ``schema``.

    The cell order is row-major over ``attrs`` in the order given; cell
    ``v = (v1, ..., vm)`` has flat index ``ravel_multi_index(codes, shape)``.
    An empty ``attrs`` is the COUNT(*) query with a single cell.
    """

    def __init__(self, schema: Schema, attrs: Sequence[str]):
        self.schema = schema
        self.attrs = tuple(attrs)
        if len(set(self.attrs)) != len(self.attrs):
            raise ValueError(f"marginal attributes must be distinct, got {attrs}")
        for name in self.attrs:
            if name not in schema:
                raise KeyError(f"attribute {name!r} not in schema {schema.names}")
        self.shape = schema.domain_shape(self.attrs)
        self.n_cells = schema.domain_size(self.attrs)

    def __repr__(self) -> str:
        return f"Marginal({list(self.attrs)}, n_cells={self.n_cells})"

    def cell_index(self, table: Table) -> np.ndarray:
        """Flat cell index of every row of ``table`` (shape ``(n_rows,)``).

        Computed by :meth:`Table.cell_index` from the table's sources,
        so no joined column is materialized.
        """
        return table.cell_index(self.attrs, self.shape)

    def counts(self, table: Table) -> np.ndarray:
        """The marginal-count vector ``q_V(table)`` (length ``n_cells``)."""
        index = self.cell_index(table)
        return np.bincount(index, minlength=self.n_cells).astype(np.int64)

    def weighted_counts(self, table: Table, weights: np.ndarray) -> np.ndarray:
        """Per-cell sums of per-row ``weights`` (the SDL fuzzed tabulator)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (table.n_rows,):
            raise ValueError(f"weights shape {weights.shape} != ({table.n_rows},)")
        index = self.cell_index(table)
        return np.bincount(index, weights=weights, minlength=self.n_cells)

    def cell_values(self, flat_index: int) -> tuple:
        """Decoded attribute values ``(v1, ..., vm)`` of cell ``flat_index``."""
        if not (0 <= flat_index < self.n_cells):
            raise IndexError(f"cell {flat_index} out of range [0, {self.n_cells})")
        if not self.attrs:
            return ()
        codes = np.unravel_index(flat_index, self.shape)
        return tuple(
            self.schema[name].decode(int(code))
            for name, code in zip(self.attrs, codes)
        )

    def flat_index(self, values: Sequence[object]) -> int:
        """Flat cell index of the cell with decoded attribute ``values``."""
        if len(values) != len(self.attrs):
            raise ValueError(f"expected {len(self.attrs)} values, got {len(values)}")
        if not self.attrs:
            return 0
        codes = [
            self.schema[name].code(value) for name, value in zip(self.attrs, values)
        ]
        return int(np.ravel_multi_index(codes, self.shape))

    def cells(self):
        """Iterate ``(flat_index, values_tuple)`` over all cells in order."""
        for flat in range(self.n_cells):
            yield flat, self.cell_values(flat)

    def project_onto(self, sub_attrs: Sequence[str]) -> np.ndarray:
        """Map each of this marginal's cells to a cell of the sub-marginal.

        ``sub_attrs`` must be a subset of this marginal's attributes.  The
        result has length ``n_cells`` and entry ``i`` is the flat index in
        the ``sub_attrs`` marginal of the projection of cell ``i``; used to
        aggregate fine cells into coarser ones.
        """
        sub = Marginal(self.schema, sub_attrs)
        missing = set(sub_attrs) - set(self.attrs)
        if missing:
            raise ValueError(f"{sorted(missing)} not among marginal attributes")
        if not self.attrs:
            return np.zeros(1, dtype=np.int64)
        grids = np.unravel_index(np.arange(self.n_cells), self.shape)
        by_name = dict(zip(self.attrs, grids))
        if not sub.attrs:
            return np.zeros(self.n_cells, dtype=np.int64)
        return np.ravel_multi_index(
            [by_name[name] for name in sub.attrs], sub.shape
        ).astype(np.int64)


@dataclass(frozen=True)
class EstablishmentCounts:
    """Per-cell totals plus the per-cell largest single-establishment share.

    ``totals[i]`` is the cell count ``q_V(D, v_i)``; ``max_single[i]`` is
    ``xv`` of Lemma 8.5 — the maximum number of workers any one
    establishment contributes to cell ``i``; ``n_establishments[i]`` is the
    number of distinct establishments contributing to the cell.
    """

    totals: np.ndarray
    max_single: np.ndarray
    n_establishments: np.ndarray


def per_establishment_counts(
    cell_index: np.ndarray,
    establishment: np.ndarray,
    n_cells: int,
) -> EstablishmentCounts:
    """Aggregate per-(cell, establishment) job counts into cell statistics.

    Parameters
    ----------
    cell_index:
        Flat marginal cell index per job row.
    establishment:
        Establishment row index per job row (any non-negative int labels).
    n_cells:
        Number of cells in the marginal.
    """
    cell_index = np.asarray(cell_index, dtype=np.int64)
    establishment = np.asarray(establishment, dtype=np.int64)
    if cell_index.shape != establishment.shape:
        raise ValueError("cell_index and establishment must align row-wise")

    totals = np.bincount(cell_index, minlength=n_cells).astype(np.int64)
    max_single = np.zeros(n_cells, dtype=np.int64)
    n_establishments = np.zeros(n_cells, dtype=np.int64)
    if cell_index.size:
        n_estab = int(establishment.max()) + 1
        # One (cell, establishment) key per job, sorted in place: each run
        # of equal keys is one pair, and its length is the pair's count.
        combined = cell_index * n_estab
        combined += establishment
        combined.sort()
        starts = np.flatnonzero(combined[1:] != combined[:-1]) + 1
        starts = np.concatenate(([0], starts))
        pair_cells = combined[starts] // n_estab
        pair_counts = np.diff(starts, append=combined.size)
        np.maximum.at(max_single, pair_cells, pair_counts)
        np.add.at(n_establishments, pair_cells, 1)
    return EstablishmentCounts(
        totals=totals, max_single=max_single, n_establishments=n_establishments
    )
