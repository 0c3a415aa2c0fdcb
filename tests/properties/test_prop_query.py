"""Property-based tests for the marginal-query engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    Attribute,
    Marginal,
    Schema,
    Table,
    join_worker_full,
    per_establishment_counts,
)


@st.composite
def random_table(draw):
    """A random 3-attribute table with 0-60 rows."""
    sizes = (
        draw(st.integers(2, 4)),
        draw(st.integers(2, 5)),
        draw(st.integers(1, 3)),
    )
    schema = Schema(
        [
            Attribute("a", tuple(f"a{i}" for i in range(sizes[0]))),
            Attribute("b", tuple(f"b{i}" for i in range(sizes[1]))),
            Attribute("c", tuple(f"c{i}" for i in range(sizes[2]))),
        ]
    )
    n_rows = draw(st.integers(0, 60))
    columns = {
        name: np.array(
            draw(
                st.lists(
                    st.integers(0, schema[name].size - 1),
                    min_size=n_rows,
                    max_size=n_rows,
                )
            ),
            dtype=np.int64,
        )
        for name in schema.names
    }
    return Table(schema, columns)


class TestMarginalProperties:
    @given(random_table())
    @settings(max_examples=60, deadline=None)
    def test_counts_sum_to_rows(self, table):
        marginal = Marginal(table.schema, ["a", "b"])
        assert marginal.counts(table).sum() == table.n_rows

    @given(random_table())
    @settings(max_examples=60, deadline=None)
    def test_projection_consistency(self, table):
        """Summing fine cells through project_onto equals the coarse query."""
        fine = Marginal(table.schema, ["a", "b", "c"])
        for sub_attrs in (["a"], ["b", "c"], []):
            coarse = Marginal(table.schema, sub_attrs)
            mapping = fine.project_onto(sub_attrs)
            aggregated = np.bincount(
                mapping, weights=fine.counts(table), minlength=coarse.n_cells
            )
            np.testing.assert_allclose(aggregated, coarse.counts(table))

    @given(random_table())
    @settings(max_examples=60, deadline=None)
    def test_cell_index_consistent_with_counts(self, table):
        marginal = Marginal(table.schema, ["b", "a"])
        index = marginal.cell_index(table)
        manual = np.bincount(index, minlength=marginal.n_cells)
        np.testing.assert_array_equal(manual, marginal.counts(table))

    @given(random_table(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_weighted_counts_linear(self, table, seed):
        marginal = Marginal(table.schema, ["a", "c"])
        rng = np.random.default_rng(seed)
        w1 = rng.random(table.n_rows)
        w2 = rng.random(table.n_rows)
        combined = marginal.weighted_counts(table, w1 + w2)
        separate = marginal.weighted_counts(table, w1) + marginal.weighted_counts(
            table, w2
        )
        np.testing.assert_allclose(combined, separate, atol=1e-9)


class TestPerEstablishmentProperties:
    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7)), max_size=80)
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, pairs):
        """totals >= max_single >= ceil(totals/n_establishments) per cell."""
        n_cells = 6
        cell_index = np.array([c for c, _ in pairs], dtype=np.int64)
        establishment = np.array([e for _, e in pairs], dtype=np.int64)
        stats = per_establishment_counts(cell_index, establishment, n_cells)
        assert np.all(stats.max_single <= stats.totals)
        nonzero = stats.n_establishments > 0
        lower = np.ceil(
            stats.totals[nonzero] / stats.n_establishments[nonzero]
        )
        assert np.all(stats.max_single[nonzero] >= lower)
        assert stats.totals.sum() == len(pairs)


CODE_DTYPES = (np.int8, np.int16, np.int32, np.int64)


def _random_columns(draw, prefix, n_rows):
    """A 1-3 attribute schema (domain sizes 1-5) and codes of a random
    integer dtype."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    schema = Schema(
        [
            Attribute(f"{prefix}{i}", tuple(range(size)))
            for i, size in enumerate(sizes)
        ]
    )
    dtype = draw(st.sampled_from(CODE_DTYPES))
    columns = {
        attribute.name: np.array(
            draw(
                st.lists(
                    st.integers(0, attribute.size - 1),
                    min_size=n_rows,
                    max_size=n_rows,
                )
            ),
            dtype=dtype,
        )
        for attribute in schema.attributes
    }
    return schema, columns


@st.composite
def joined_table(draw):
    """A Worker ⋈ Job ⋈ Workplace relation over random schemas, under an
    identity or a random (repeating, shuffled) ``job_worker``, which may
    also serve as ``job_establishment``."""
    n_workers = draw(st.integers(0, 40))
    n_places = draw(st.integers(1, 8))
    worker = Table(*_random_columns(draw, "w", n_workers))
    workplace = Table(*_random_columns(draw, "p", n_places))
    if n_workers == 0 or draw(st.booleans()):
        job_worker = np.arange(n_workers)
    else:
        job_worker = np.array(
            draw(st.lists(st.integers(0, n_workers - 1), max_size=40)),
            dtype=np.int64,
        )
    job_establishment = np.array(
        draw(
            st.lists(
                st.integers(0, n_places - 1),
                min_size=len(job_worker),
                max_size=len(job_worker),
            )
        ),
        dtype=np.int64,
    )
    if len(job_worker) and job_worker.max() < n_places and draw(st.booleans()):
        # One array as both job arrays: the Worker and Workplace parts
        # share an index object over sources of different lengths.
        job_establishment = job_worker
    return join_worker_full(worker, workplace, job_worker, job_establishment).table


@st.composite
def derived_table(draw):
    """A joined or constructed table after a random filter/take/select chain."""
    if draw(st.booleans()):
        table = draw(joined_table())
    else:
        n_rows = draw(st.integers(0, 40))
        table = Table(*_random_columns(draw, "c", n_rows))
    steps = st.lists(st.sampled_from(["filter", "take", "select"]), max_size=4)
    for step in draw(steps):
        n = table.n_rows
        if step == "filter":
            mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            table = table.filter(np.array(mask, dtype=bool))
        elif step == "take":
            rows = draw(st.lists(st.integers(-n, n - 1), max_size=60)) if n else []
            table = table.take(np.array(rows, dtype=np.int64))
        else:
            names = draw(st.permutations(table.schema.names))
            keep = draw(st.integers(1, len(names)))
            table = table.select(names[:keep])
    return table


class TestSourceCellIndex:
    @given(derived_table(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_ravel_multi_index_of_the_columns(self, table, data):
        """The source-level cell index is exactly the row-major index of
        the materialized columns, for every ordered attribute subset."""
        names = data.draw(st.permutations(table.schema.names))
        attrs = names[: data.draw(st.integers(0, len(names)))]
        marginal = Marginal(table.schema, attrs)
        got = marginal.cell_index(table)
        if attrs:
            codes = [table.column(name) for name in attrs]
            want = np.ravel_multi_index(codes, marginal.shape)
        else:
            want = np.zeros(table.n_rows, dtype=np.int64)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
