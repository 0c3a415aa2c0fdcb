"""Unit tests for the column-store Table."""

import os
import tracemalloc

import numpy as np
import pytest

from repro.db import Attribute, Schema, Table
from repro.db import table as table_module


@pytest.fixture()
def schema():
    return Schema([Attribute("sex", ("M", "F")), Attribute("edu", ("HS", "BA"))])


@pytest.fixture()
def table(schema):
    return Table(
        schema,
        {
            "sex": np.array([0, 1, 1, 0]),
            "edu": np.array([0, 0, 1, 1]),
        },
    )


class TestConstruction:
    def test_n_rows(self, table):
        assert table.n_rows == 4
        assert len(table) == 4

    def test_missing_column_rejected(self, schema):
        with pytest.raises(ValueError, match="missing"):
            Table(schema, {"sex": np.array([0])})

    def test_extra_column_rejected(self, schema):
        with pytest.raises(ValueError, match="not in schema"):
            Table(
                schema,
                {
                    "sex": np.array([0]),
                    "edu": np.array([0]),
                    "age": np.array([0]),
                },
            )

    def test_mismatched_lengths_rejected(self, schema):
        with pytest.raises(ValueError, match="rows"):
            Table(schema, {"sex": np.array([0, 1]), "edu": np.array([0])})

    def test_out_of_range_codes_rejected(self, schema):
        with pytest.raises(ValueError, match="outside"):
            Table(schema, {"sex": np.array([2]), "edu": np.array([0])})

    def test_float_columns_rejected(self, schema):
        with pytest.raises(ValueError, match="integer"):
            Table(schema, {"sex": np.array([0.0]), "edu": np.array([0])})

    def test_empty_table(self, schema):
        empty = Table.from_records(schema, [])
        assert empty.n_rows == 0


class TestAccess:
    def test_column_returns_codes(self, table):
        assert table.column("sex").tolist() == [0, 1, 1, 0]

    def test_unknown_column_raises(self, table):
        with pytest.raises(KeyError):
            table.column("age")

    def test_decoded(self, table):
        assert table.decoded("sex").tolist() == ["M", "F", "F", "M"]

    def test_row(self, table):
        assert table.row(2) == {"sex": "F", "edu": "BA"}

    def test_records_roundtrip(self, schema, table):
        records = table.to_records()
        rebuilt = Table.from_records(schema, records)
        assert rebuilt.to_records() == records


class TestTransforms:
    def test_filter(self, table):
        females = table.filter(table.equals_value("sex", "F"))
        assert females.n_rows == 2
        assert set(females.decoded("edu")) == {"HS", "BA"}

    def test_filter_shape_mismatch_rejected(self, table):
        with pytest.raises(ValueError, match="mask shape"):
            table.filter(np.array([True]))

    def test_take_gathers_rows(self, table):
        taken = table.take(np.array([3, 0, 3]))
        assert taken.decoded("edu").tolist() == ["BA", "HS", "BA"]

    def test_select_projects(self, table):
        projected = table.select(["edu"])
        assert projected.schema.names == ("edu",)
        assert projected.n_rows == 4

    def test_concat(self, table):
        doubled = table.concat(table)
        assert doubled.n_rows == 8

    def test_concat_schema_mismatch_rejected(self, table, schema):
        other_schema = Schema([Attribute("sex", ("M", "F"))])
        other = Table(other_schema, {"sex": np.array([0])})
        with pytest.raises(ValueError, match="different schemas"):
            table.concat(other)


@pytest.fixture()
def big():
    """Two 50k-row parts joined side by side through index arrays."""
    rng = np.random.default_rng(11)
    codes = Schema([Attribute(f"c{i}", tuple(range(7))) for i in range(3)])
    other = Schema([Attribute(f"d{i}", tuple(range(5))) for i in range(6)])
    left = Table(codes, {n: rng.integers(0, 7, 50_000) for n in codes.names})
    right = Table(other, {n: rng.integers(0, 5, 2_000) for n in other.names})
    right_rows = rng.integers(0, 2_000, 50_000)
    joined = Table._joined([(left, None), (right, right_rows)])
    eager = {n: left.column(n) for n in codes.names}
    eager.update({n: right.column(n)[right_rows] for n in other.names})
    return joined, eager


class TestLazyTransforms:
    """Derived tables compose row indices and resolve a column on read."""

    def test_joined_columns_equal_the_eager_gather(self, big):
        joined, eager = big
        assert joined.schema.names == tuple(eager)
        for name, want in eager.items():
            np.testing.assert_array_equal(joined.column(name), want)

    def test_compositions_equal_the_eager_gather(self, big):
        joined, eager = big
        rng = np.random.default_rng(12)
        mask = rng.random(joined.n_rows) < 0.3
        rows = rng.integers(-1000, 1000, 300)
        derived = joined.filter(mask).take(rows).select(["d4", "c1"])
        assert derived.n_rows == rows.size
        for name in ("d4", "c1"):
            np.testing.assert_array_equal(
                derived.column(name), eager[name][mask][rows]
            )

    def test_derived_columns_are_read_only(self, table):
        source = table.column("sex")
        taken = table.take(np.array([1, 0]))
        filtered = table.filter(np.array([True, False, True, True]))
        for column in (taken.column("sex"), filtered.column("sex")):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        assert source.flags.writeable
        assert source.tolist() == [0, 1, 1, 0]

    def test_constructed_columns_read_as_given(self, table):
        given = np.array([1, 0, 1, 0])
        built = Table(table.schema, {"sex": given, "edu": given})
        assert built.column("sex") is given
        assert built.select(["sex"]).column("sex") is given

    def test_one_composed_index_per_distinct_index_array(self, big):
        """Filtering six columns that share one row index composes that
        index once, not once per column."""
        joined, _ = big
        right = joined.select([f"d{i}" for i in range(6)])
        mask = np.ones(joined.n_rows, dtype=bool)
        index_bytes = joined.n_rows * 8
        tracemalloc.start()
        try:
            right.filter(mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # flatnonzero's rows and one composed index.
        assert peak < 2.5 * index_bytes, peak / index_bytes

    def test_take_negative_and_empty_indices(self, table):
        assert table.take(np.array([-1, 0])).decoded("edu").tolist() == ["BA", "HS"]
        assert table.take(np.array([], dtype=np.int64)).n_rows == 0
        assert table.take([]).n_rows == 0

    @pytest.mark.parametrize("rows", [[4], [-5], [0.5], [[0]]])
    def test_take_rejects_bad_indices(self, table, rows):
        with pytest.raises(IndexError):
            table.take(np.array(rows))

    def test_take_copies_its_indices(self, table):
        rows = np.array([0, 1])
        taken = table.take(rows)
        rows[:] = 3
        assert taken.decoded("sex").tolist() == ["M", "F"]

    def test_joined_rejects_parts_of_unequal_length(self, table):
        other = Table(
            Schema([Attribute("place", ("P1", "P2"))]), {"place": np.array([0])}
        )
        with pytest.raises(ValueError, match="rows"):
            Table._joined([(table, None), (other, None)])


def _stored(tmp_path, name, values):
    """``values`` saved as ``name.npy`` and opened as a read-only map."""
    path = tmp_path / f"{name}.npy"
    np.save(path, np.asarray(values, dtype=np.int64))
    return np.load(path, mmap_mode="r"), path


class TestScanMappedBlocks:
    """Code checks scan a read-only map in place, block by block."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # Eight int64 values a block, so a short column spans many blocks.
        monkeypatch.setattr(table_module, "_SCAN_BLOCK_BYTES", 64)

    def test_only_a_read_only_map_is_scanned_by_blocks(self, tmp_path):
        mapped, path = _stored(tmp_path, "c", np.arange(100) % 7)
        assert table_module._read_only_map(np.asarray(mapped)) is mapped.base
        assert table_module._read_only_map(mapped[1:]) is mapped.base
        assert table_module._read_only_map(mapped[::2]) is mapped.base
        assert table_module._read_only_map(np.array(mapped)) is None
        assert table_module._read_only_map(np.load(path, mmap_mode="c")) is None
        assert table_module._read_only_map(np.load(path, mmap_mode="r+")) is None

    @pytest.mark.parametrize("row", [0, 7, 8, 50, 99])
    def test_a_bad_code_in_any_block_is_rejected(self, tmp_path, row):
        values = np.arange(100) % 2
        values[row] = 2
        mapped, _ = _stored(tmp_path, "sex", values)
        schema = Schema([Attribute("sex", ("M", "F"))])
        with pytest.raises(ValueError, match="outside"):
            Table(schema, {"sex": mapped})

    def test_blocks_cover_the_array_in_order(self, tmp_path):
        values = np.random.default_rng(2).integers(-50, 50, 1001)
        mapped, _ = _stored(tmp_path, "c", values)
        blocks = [block.copy() for block in table_module._blocks(mapped)]
        assert len(blocks) == 126
        np.testing.assert_array_equal(np.concatenate(blocks), values)
        assert table_module._bounds(mapped) == (values.min(), values.max())
        strided = [block.copy() for block in table_module._blocks(mapped[::3])]
        np.testing.assert_array_equal(np.concatenate(strided), values[::3])

    def test_the_mapped_bytes_are_checked_not_the_path(self, tmp_path):
        """A file replaced after it was mapped (a new inode at the same
        path) does not change what the check reads."""
        values = np.arange(100) % 2
        values[50] = 2
        mapped, path = _stored(tmp_path, "sex", values)
        np.save(tmp_path / "good.npy", np.arange(100) % 2)
        os.replace(tmp_path / "good.npy", path)
        schema = Schema([Attribute("sex", ("M", "F"))])
        with pytest.raises(ValueError, match="outside"):
            Table(schema, {"sex": mapped})
        Table(schema, {"sex": np.load(path, mmap_mode="r")})
