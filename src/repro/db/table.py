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
pays only for the columns its queries read.  A marginal's cell index
(:meth:`Table.cell_index`) reads no joined column at all: it combines
the columns that share a row index on their source rows, then gathers
once.

A constructed table checks every column's codes when it is built.  A
column held by a read-only memory map (what ``np.load(mmap_mode="r")``
returns) is scanned in place about 1 MB at a time, and the map's pages
are dropped from the process after each block (``MADV_DONTNEED``; the
file's page cache keeps them), so the check reads the very bytes that
are mapped yet leaves none of them resident: a column no query reads
costs no memory.  Any other array is scanned whole.
"""

from __future__ import annotations

import mmap
from collections.abc import Iterator, Mapping, Sequence

import numpy as np

from repro.db.schema import Schema

# Bytes per block when a check scans a memory-mapped array.
_SCAN_BLOCK_BYTES = 1 << 20
# Advice that drops a map's pages from the process (None without madvise).
_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)


def _read_only_map(array: np.ndarray) -> mmap.mmap | None:
    """The read-only ``mmap.mmap`` holding ``array``'s data, or None.

    ``np.asarray`` drops the ``np.memmap`` subclass, so this walks
    ``.base`` to the ``np.memmap`` that owns the ``mmap.mmap``.  Only a
    map opened with mode ``"r"`` counts: it has no private page that
    dropping could lose.
    """
    base = array
    while isinstance(base, np.ndarray) and not isinstance(base.base, mmap.mmap):
        base = base.base
    if _DONTNEED is None or not isinstance(base, np.memmap) or base.mode != "r":
        return None
    return base.base


def _blocks(array: np.ndarray) -> Iterator[np.ndarray]:
    """``array``'s values in order, as consecutive blocks to scan.

    An array held by a read-only memory map comes in blocks of about
    ``_SCAN_BLOCK_BYTES``; once a block is scanned, every page of the
    map is dropped from the process (a fault maps the cached pages
    around its own too), so the scan leaves none of the map resident.
    Any other non-empty array is one block, itself.
    """
    mapping = _read_only_map(array)
    if mapping is None:
        if array.size:
            yield array
        return
    step = max(1, _SCAN_BLOCK_BYTES // array.itemsize)
    for start in range(0, array.size, step):
        yield array[start : start + step]
        mapping.madvise(_DONTNEED)


def _weighted_sum(terms, total: np.ndarray | None = None) -> np.ndarray:
    """``total`` plus the sum of ``source * stride`` over ``(source, stride)``
    ``terms``, as int64, added in place into ``total`` (a fresh array, or
    None) with one term's temporary alive at a time."""
    for source, stride in terms:
        if total is None:
            total = np.multiply(source, stride, dtype=np.int64)
        else:
            total += np.multiply(source, stride, dtype=np.int64)
    return total


def _bounds(array: np.ndarray) -> tuple[int, int]:
    """``(min, max)`` of a non-empty integer array, scanned by :func:`_blocks`."""
    bounds = [(int(block.min()), int(block.max())) for block in _blocks(array)]
    return min(low for low, _ in bounds), max(high for _, high in bounds)


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
            if col.size:
                low, high = _bounds(col)
                if low < 0 or high >= size:
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

    def cell_index(self, names: Sequence[str], shape: Sequence[int]) -> np.ndarray:
        """Row-major flat index of every row over ``names`` (int64).

        Equal to ``np.ravel_multi_index([column(n) for n in names],
        shape)``, but no joined column is read: the columns that share
        one row index are combined on their source rows and gathered
        once (a join's workplace attributes on the Workplace rows, then
        through the job index).
        """
        strides = np.cumprod((1, *shape[:0:-1]))[::-1]
        groups: dict[tuple[int, int], tuple[np.ndarray | None, list]] = {}
        for name, stride in zip(names, strides):
            source, index = self._sources[name]
            key = (id(index), len(source))
            groups.setdefault(key, (index, []))[1].append((source, int(stride)))
        flat = None
        for index, terms in groups.values():
            if index is None:
                flat = _weighted_sum(terms, flat)
            elif flat is None:
                flat = _weighted_sum(terms)[index]
            else:
                flat += _weighted_sum(terms)[index]
        return np.zeros(self._n_rows, dtype=np.int64) if flat is None else flat

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
