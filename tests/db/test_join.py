"""Unit tests for the WorkerFull universal relation."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.api.session import ReleaseSession
from repro.data import SyntheticConfig, generate
from repro.db import Marginal, Table, WorkerFull, join_worker_full
from repro.db import join as join_module
from repro.db import table as table_module
from repro.scenarios import SnapshotStore


class TestJoin:
    def test_join_carries_both_sides(self, tiny_worker_full):
        names = tiny_worker_full.table.schema.names
        assert "sex" in names and "naics" in names

    def test_join_row_alignment(self, tiny_worker_full):
        # Worker 5 (M, HS) works at establishment 2 ("62", "P2").
        row = tiny_worker_full.table.row(5)
        assert row == {"sex": "M", "education": "HS", "naics": "62", "place": "P2"}

    def test_n_jobs(self, tiny_worker_full):
        assert tiny_worker_full.n_jobs == 7

    def test_establishment_sizes(self, tiny_worker_full):
        assert tiny_worker_full.establishment_sizes().tolist() == [3, 2, 2]

    def test_out_of_range_worker_index_rejected(
        self, tiny_schema_worker, tiny_schema_workplace
    ):
        worker = Table.from_records(
            tiny_schema_worker, [{"sex": "M", "education": "HS"}]
        )
        workplace = Table.from_records(
            tiny_schema_workplace, [{"naics": "11", "place": "P1"}]
        )
        with pytest.raises(ValueError, match="job_worker"):
            join_worker_full(worker, workplace, np.array([5]), np.array([0]))

    def test_out_of_range_establishment_index_rejected(
        self, tiny_schema_worker, tiny_schema_workplace
    ):
        worker = Table.from_records(
            tiny_schema_worker, [{"sex": "M", "education": "HS"}]
        )
        workplace = Table.from_records(
            tiny_schema_workplace, [{"naics": "11", "place": "P1"}]
        )
        with pytest.raises(ValueError, match="job_establishment"):
            join_worker_full(worker, workplace, np.array([0]), np.array([3]))

    def test_mismatched_job_arrays_rejected(
        self, tiny_schema_worker, tiny_schema_workplace
    ):
        worker = Table.from_records(
            tiny_schema_worker, [{"sex": "M", "education": "HS"}]
        )
        workplace = Table.from_records(
            tiny_schema_workplace, [{"naics": "11", "place": "P1"}]
        )
        with pytest.raises(ValueError, match="equal length"):
            join_worker_full(worker, workplace, np.array([0, 0]), np.array([0]))


class TestWorkerFull:
    def test_filter_keeps_establishment_universe(self, tiny_worker_full):
        filtered = tiny_worker_full.filter(
            tiny_worker_full.table.equals_value("sex", "F")
        )
        assert filtered.n_jobs == 4
        assert filtered.n_establishments == tiny_worker_full.n_establishments

    def test_filtered_sizes_count_remaining_jobs(self, tiny_worker_full):
        filtered = tiny_worker_full.filter(
            tiny_worker_full.table.equals_value("education", "BA")
        )
        assert filtered.establishment_sizes().tolist() == [2, 0, 1]

    def test_establishment_index_validation(self, tiny_schema_worker):
        worker = Table.from_records(
            tiny_schema_worker, [{"sex": "M", "education": "HS"}]
        )
        with pytest.raises(ValueError, match="one entry per row"):
            WorkerFull(
                table=worker,
                establishment=np.array([0, 1]),
                n_establishments=2,
            )

    def test_direct_construction_checks_the_establishment_range(
        self, tiny_schema_worker
    ):
        worker = Table.from_records(
            tiny_schema_worker,
            [{"sex": "M", "education": "HS"}, {"sex": "F", "education": "BA"}],
        )
        with pytest.raises(ValueError, match="out of range"):
            WorkerFull(
                table=worker, establishment=np.array([0, 2]), n_establishments=2
            )

    def test_join_scans_job_establishment_once(
        self, tiny_schema_worker, tiny_schema_workplace, monkeypatch
    ):
        worker = Table.from_records(
            tiny_schema_worker, [{"sex": "M", "education": "HS"}] * 3
        )
        workplace = Table.from_records(
            tiny_schema_workplace, [{"naics": "11", "place": "P1"}] * 2
        )
        establishment = np.array([0, 1, 1], dtype=np.int64)
        scanned = []

        def counted(array):
            scanned.append(array is establishment)
            return table_module._bounds(array)

        monkeypatch.setattr(join_module, "_bounds", counted)
        joined = join_worker_full(worker, workplace, np.arange(3), establishment)
        assert scanned.count(True) == 1
        assert joined.establishment is establishment

    def test_generated_dataset_join_consistency(self, small_dataset):
        worker_full = small_dataset.worker_full()
        assert worker_full.n_jobs == small_dataset.n_jobs
        np.testing.assert_array_equal(
            worker_full.establishment_sizes(),
            small_dataset.establishment_sizes(),
        )
        # Workplace attributes are constant within an establishment.
        place = worker_full.table.column("place")
        estab = worker_full.establishment
        order = np.argsort(estab, kind="mergesort")
        grouped_estab = estab[order]
        grouped_place = place[order]
        same_estab = np.diff(grouped_estab) == 0
        assert np.all(np.diff(grouped_place)[same_estab] == 0)


@pytest.fixture(scope="module")
def dataset():
    """About 180k jobs, so one column dwarfs the join's own bookkeeping."""
    return generate(SyntheticConfig(target_jobs=140_000, seed=7))


@pytest.fixture(params=["identity", "shuffled"])
def jobs(request, dataset):
    """``(job_worker, job_establishment)``: the generated identity pairing,
    or the same jobs in a shuffled order (each worker keeps its
    establishment)."""
    if request.param == "identity":
        return dataset.job_worker, dataset.job_establishment
    order = np.random.default_rng(3).permutation(dataset.n_jobs)
    return order, dataset.job_establishment[order]


def _eager(dataset, job_worker, job_establishment):
    """Every joined column gathered up front."""
    worker, workplace = dataset.worker, dataset.workplace
    columns = {name: worker.column(name)[job_worker] for name in worker.schema.names}
    for name in workplace.schema.names:
        columns[name] = workplace.column(name)[job_establishment]
    return columns


class TestLazyJoin:
    """The join copies no column; each resolves on its first read."""

    def test_columns_equal_the_eager_gather(self, dataset, jobs):
        table = join_worker_full(dataset.worker, dataset.workplace, *jobs).table
        eager = _eager(dataset, *jobs)
        assert table.schema.names == tuple(eager)
        for name, want in eager.items():
            np.testing.assert_array_equal(table.column(name), want, err_msg=name)

    @pytest.mark.parametrize("read_first", [False, True])
    @pytest.mark.parametrize("transform", ["filter", "take", "select", "chained"])
    def test_derived_columns_equal_the_eager_gather(
        self, dataset, jobs, transform, read_first
    ):
        table = join_worker_full(dataset.worker, dataset.workplace, *jobs).table
        if read_first:
            table.column("place"), table.column("sex")
        eager = _eager(dataset, *jobs)
        mask = (eager["education"] == 2) | (eager["ownership"] == 0)
        rows = np.random.default_rng(5).integers(-table.n_rows, table.n_rows, 5000)
        names = ["sex", "place", "naics"]
        if transform == "filter":
            derived, want = table.filter(mask), {n: c[mask] for n, c in eager.items()}
        elif transform == "take":
            derived, want = table.take(rows), {n: c[rows] for n, c in eager.items()}
        elif transform == "select":
            derived, want = table.select(names), {n: eager[n] for n in names}
        else:
            few = rows[:100] // 100  # inside the filtered rows
            derived = table.filter(mask).take(few).select(names)
            want = {n: eager[n][mask][few] for n in names}
        assert derived.schema.names == tuple(want)
        for name, column in want.items():
            np.testing.assert_array_equal(derived.column(name), column, err_msg=name)

    @pytest.mark.parametrize("swap", [None, (7, 8), (0, 1), (998, 999)])
    def test_identity_is_recognized_by_mapped_blocks(
        self, dataset, tmp_path, monkeypatch, swap
    ):
        """A stored ``job_worker`` is checked block by block on its map;
        a swap anywhere, block boundaries included, is not the identity."""
        monkeypatch.setattr(table_module, "_SCAN_BLOCK_BYTES", 64)
        job_worker = np.arange(dataset.n_workers)
        if swap is not None:
            job_worker[list(swap)] = job_worker[list(swap[::-1])]
        np.save(tmp_path / "job_worker.npy", job_worker)
        stored = np.load(tmp_path / "job_worker.npy", mmap_mode="r")
        table = join_worker_full(
            dataset.worker, dataset.workplace, stored, dataset.job_establishment
        ).table
        source = dataset.worker.column("sex")
        assert np.shares_memory(table.column("sex"), source) == (swap is None)
        np.testing.assert_array_equal(table.column("sex"), source[job_worker])

    def test_identity_worker_columns_are_read_only_views(self, dataset):
        source = dataset.worker.column("sex")
        before = source.copy()
        table = dataset.worker_full().table
        column = table.column("sex")
        assert np.shares_memory(column, source)
        assert not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1
        # The in-memory source stays writable and unchanged.
        assert source.flags.writeable
        np.testing.assert_array_equal(source, before)

    def test_gathered_columns_are_read_only_copies(self, dataset, jobs):
        table = join_worker_full(dataset.worker, dataset.workplace, *jobs).table
        gathered = [("place", dataset.workplace)]
        if not np.array_equal(jobs[0], dataset.job_worker):
            gathered.append(("age", dataset.worker))
        for name, source in gathered:
            column = table.column(name)
            assert not np.shares_memory(column, source.column(name))
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    def test_first_read_is_kept(self, dataset, jobs):
        table = join_worker_full(dataset.worker, dataset.workplace, *jobs).table
        assert table.column("place") is table.column("place")
        assert table.select(["place"]).column("place") is table.column("place")

    def test_join_allocates_less_than_one_column(self, dataset, jobs):
        column_bytes = dataset.n_jobs * 8
        tracemalloc.start()
        try:
            table = join_worker_full(dataset.worker, dataset.workplace, *jobs).table
            join_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            table.column("place")
            read_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert join_peak < column_bytes, join_peak / column_bytes
        assert column_bytes <= read_peak < 1.1 * column_bytes, (
            read_peak / column_bytes
        )

    def test_workplace_marginal_gathers_once_and_keeps_no_column(
        self, dataset, jobs
    ):
        """A marginal over workplace attributes combines them on the
        Workplace rows and gathers once: its peak is its own cell index."""
        table = join_worker_full(dataset.worker, dataset.workplace, *jobs).table
        marginal = Marginal(table.schema, ["place", "naics", "ownership"])
        column_bytes = dataset.n_jobs * 8
        tracemalloc.start()
        try:
            index = marginal.cell_index(table)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1.1 * column_bytes, held / column_bytes
        assert peak < 1.2 * column_bytes, peak / column_bytes
        want = np.ravel_multi_index(
            [table.column(name) for name in marginal.attrs], marginal.shape
        )
        np.testing.assert_array_equal(index, want)

    def test_one_array_as_both_job_arrays(
        self, tiny_schema_worker, tiny_schema_workplace
    ):
        """The Worker and Workplace parts share one index object over
        sources of different lengths; a marginal across both still equals
        the row-major index of the joined columns."""
        worker = Table.from_records(
            tiny_schema_worker,
            [
                {"sex": "M", "education": "HS"},
                {"sex": "F", "education": "BA"},
                {"sex": "F", "education": "HS"},
            ],
        )
        workplace = Table.from_records(
            tiny_schema_workplace,
            [{"naics": "11", "place": "P1"}] * 2 + [{"naics": "62", "place": "P2"}] * 3,
        )
        jobs = np.array([2, 0, 1, 1, 2, 0])
        table = join_worker_full(worker, workplace, jobs, jobs).table
        marginal = Marginal(table.schema, ["sex", "place", "education", "naics"])
        want = np.ravel_multi_index(
            [table.column(name) for name in marginal.attrs], marginal.shape
        )
        np.testing.assert_array_equal(marginal.cell_index(table), want)

    def test_racing_first_reads_get_equal_arrays(self, dataset, jobs):
        table = join_worker_full(dataset.worker, dataset.workplace, *jobs).table
        want = dataset.workplace.column("place")[jobs[1]]
        barrier = threading.Barrier(8)
        got = [None] * 8

        def first_read(slot):
            barrier.wait(timeout=30)
            got[slot] = table.column("place")

        threads = [
            threading.Thread(target=first_read, args=(slot,)) for slot in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for column in got:
            np.testing.assert_array_equal(column, want)
        assert any(column is table.column("place") for column in got)


class TestStoreOpenedSession:
    def test_session_init_holds_no_gathered_column(self, tmp_path):
        """A session over a memory-mapped snapshot copies no joined
        column while it opens: the columns it holds afterwards are
        allocated by its queries, not by its init."""
        store = SnapshotStore(tmp_path / "snapshots")
        ReleaseSession.from_scenario("paper-default", snapshot_store=store)
        tracemalloc.start()
        try:
            session = ReleaseSession.from_scenario(
                "paper-default", snapshot_store=store
            )
            held = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            )
        finally:
            tracemalloc.stop()
        assert store.hits == 1
        held_bytes = sum(stat.size for stat in held.statistics("filename"))
        column_bytes = session.worker_full.n_jobs * 8
        assert held_bytes < column_bytes, held_bytes / column_bytes
        np.testing.assert_array_equal(
            session.dataset.job_worker, np.arange(session.worker_full.n_jobs)
        )
        assert np.shares_memory(
            session.worker_full.table.column("sex"),
            session.dataset.worker.column("sex"),
        )
