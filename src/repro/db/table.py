"""In-memory column-store table over integer-coded categorical columns.

A :class:`Table` stores one numpy integer array per schema attribute.
All query evaluation in :mod:`repro.db.query` operates directly on these
code arrays, which makes the GROUP BY marginal queries of the paper a
vectorized mixed-radix bincount.

Derived tables copy nothing up front.  Each of their columns is a source
array plus a row index, resolved on its first :meth:`Table.column` read
and kept: a column whose index is the identity reads as a read-only
view of its source, any other as the read-only gather
``source[index]``.  :meth:`Table.filter`, :meth:`Table.take` and the
join (:func:`repro.db.join.join_worker_full`) compose indices instead
of gathering, one composed index per distinct index array, so a table
pays only for the columns its queries read.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.db.schema import Schema


class Table:
    """A table of ``n`` records over a categorical :class:`Schema`.

    Columns are integer code arrays (codes index the attribute's value
    tuple).  A constructed table reads its columns as given; the columns
    of a derived table (:meth:`filter`, :meth:`take`, the join) are
    read-only.  Tables are immutable: transformation methods return
    new tables sharing source arrays and row indices.
    """

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray]):
        self.schema = schema
        missing = set(schema.names) - set(columns)
        if missing:
            raise ValueError(f"columns missing for attributes {sorted(missing)}")
        extra = set(columns) - set(schema.names)
        if extra:
            raise ValueError(f"columns {sorted(extra)} not in schema {schema.names}")

        resolved: dict[str, np.ndarray] = {}
        n_rows = None
        for name in schema.names:
            col = np.asarray(columns[name])
            if col.ndim != 1:
                raise ValueError(f"column {name!r} must be one-dimensional")
            if not np.issubdtype(col.dtype, np.integer):
                raise ValueError(f"column {name!r} must hold integer codes")
            if n_rows is None:
                n_rows = col.shape[0]
            elif col.shape[0] != n_rows:
                raise ValueError(
                    f"column {name!r} has {col.shape[0]} rows, expected {n_rows}"
                )
            size = schema[name].size
            if col.size and (col.min() < 0 or col.max() >= size):
                raise ValueError(
                    f"column {name!r} has codes outside [0, {size})"
                )
            resolved[name] = col
        self._n_rows = 0 if n_rows is None else int(n_rows)
        # name -> (source array, row index or None for the identity).
        self._sources = {name: (col, None) for name, col in resolved.items()}
        self._resolved = resolved

    @classmethod
    def _derived(cls, schema, n_rows, sources, resolved=None) -> "Table":
        """A table over already-checked sources; nothing is scanned."""
        table = cls.__new__(cls)
        table.schema = schema
        table._n_rows = n_rows
        table._sources = sources
        table._resolved = {} if resolved is None else resolved
        return table

    @classmethod
    def _joined(cls, parts: Sequence[tuple["Table", np.ndarray | None]]) -> "Table":
        """The columns of several tables side by side, copying nothing.

        Each ``(table, rows)`` part contributes all of its columns: row
        ``i`` of the result reads row ``rows[i]`` of ``table``, or row
        ``i`` when ``rows`` is ``None``.  ``rows`` must be a non-negative
        integer array inside ``[0, table.n_rows)``: the caller
        (:meth:`filter`, :meth:`take`, the join) checks it, and this
        method scans nothing, since the parts' codes were checked when
        they were built.  Parts must have equal row counts and disjoint
        attribute names.
        """
        schema, sources, n_rows = Schema(()), {}, None
        for table, rows in parts:
            part_rows = table.n_rows if rows is None else len(rows)
            if n_rows is not None and part_rows != n_rows:
                raise ValueError(f"a part has {part_rows} rows, expected {n_rows}")
            n_rows = part_rows
            if rows is None:
                sources.update(table._sources)
            else:
                # One composed index per distinct index array; the
                # identity (None) composes to ``rows`` itself.
                composed = {id(None): rows}
                for name, (source, index) in table._sources.items():
                    if id(index) not in composed:
                        composed[id(index)] = index[rows]
                    sources[name] = (source, composed[id(index)])
            schema = schema.merge(table.schema)
        return cls._derived(schema, n_rows or 0, sources)

    @property
    def n_rows(self) -> int:
        return self._n_rows

    def __len__(self) -> int:
        return self._n_rows

    def __repr__(self) -> str:
        return f"Table(n_rows={self.n_rows}, schema={self.schema!r})"

    def column(self, name: str) -> np.ndarray:
        """Integer code array for attribute ``name`` (do not mutate).

        A derived column resolves on its first read and is kept.  The
        read publishes the array with one assignment, so threads racing
        on a first read each build an equal array and need no lock.
        """
        column = self._resolved.get(name)
        if column is None:
            if name not in self._sources:
                raise KeyError(f"no column {name!r}; table has {self.schema.names}")
            source, index = self._sources[name]
            column = source.view() if index is None else source[index]
            column.flags.writeable = False
            self._resolved[name] = column
        return column

    def decoded(self, name: str) -> np.ndarray:
        """Column of decoded domain values (materialized; for display/tests)."""
        attribute = self.schema[name]
        values = np.asarray(attribute.values, dtype=object)
        return values[self.column(name)]

    def filter(self, mask: np.ndarray) -> "Table":
        """Rows where boolean ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_rows,):
            raise ValueError(f"mask shape {mask.shape} != ({self.n_rows},)")
        return Table._joined([(self, np.flatnonzero(mask))])

    def take(self, indices: np.ndarray) -> "Table":
        """Rows at ``indices``; negative indices count from the end."""
        rows = np.array(indices)
        if rows.size == 0:
            rows = rows.astype(np.intp)
        if rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer):
            raise IndexError("row indices must be a one-dimensional integer array")
        if rows.size:
            if rows.min() < -self._n_rows or rows.max() >= self._n_rows:
                raise IndexError(f"row index out of range for {self._n_rows} rows")
            rows[rows < 0] += self._n_rows
        return Table._joined([(self, rows)])

    def select(self, names: Sequence[str]) -> "Table":
        """Restrict to attributes ``names`` (projection without dedup)."""
        schema = self.schema.subset(names)
        return Table._derived(
            schema,
            self._n_rows,
            {n: self._sources[n] for n in schema.names},
            {n: self._resolved[n] for n in schema.names if n in self._resolved},
        )

    def equals_value(self, name: str, value) -> np.ndarray:
        """Boolean mask of rows where attribute ``name`` equals domain ``value``."""
        return self.column(name) == self.schema[name].code(value)

    def row(self, index: int) -> dict[str, object]:
        """Decoded values of row ``index`` as an attribute-name dict."""
        return {
            name: self.schema[name].decode(int(self.column(name)[index]))
            for name in self.schema.names
        }

    def to_records(self) -> list[dict[str, object]]:
        """All rows as decoded dicts (small tables / tests only)."""
        return [self.row(i) for i in range(self.n_rows)]

    @classmethod
    def from_records(cls, schema: Schema, records: Sequence[Mapping[str, object]]) -> "Table":
        """Build a table by encoding raw-value ``records`` against ``schema``."""
        columns = {}
        for name in schema.names:
            attribute = schema[name]
            columns[name] = np.array(
                [attribute.code(record[name]) for record in records], dtype=np.int64
            )
        if not records:
            columns = {name: np.array([], dtype=np.int64) for name in schema.names}
        return cls(schema, columns)

    def concat(self, other: "Table") -> "Table":
        """Vertical concatenation of two tables with identical schemas."""
        if other.schema != self.schema:
            raise ValueError("cannot concat tables with different schemas")
        return Table(
            self.schema,
            {
                name: np.concatenate([self.column(name), other.column(name)])
                for name in self.schema.names
            },
        )
