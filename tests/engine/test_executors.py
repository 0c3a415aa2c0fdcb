"""Driver equivalence: serial, thread and process runs are bit-identical.

The acceptance gate of the sweep engine: every driver must produce the
same point values as :class:`~repro.runtime.SerialDriver` on a Figure-1
grid (each point's noise stream is self-seeded, so scheduling cannot
change it), with identical ledger accounting.  Table 3's request
releases get the same check in ``test_sweep.py``.
"""

import concurrent.futures

import pytest

from repro.api.session import ReleaseSession
from repro.engine.plan import figure_plan
from repro.engine.points import points_identical
from repro.engine.sweep import run_plan
from repro.experiments.tables import table3_rows
from repro.runtime import (
    ProcessDriver,
    SerialDriver,
    ThreadDriver,
    drivers,
    resolve_driver,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def assert_series_identical(xs, ys):
    assert len(xs) == len(ys)
    for a, b in zip(xs, ys):
        assert points_identical(a, b), f"{a} != {b}"


@pytest.fixture(scope="module")
def figure1_plan(engine_config):
    return figure_plan("figure-1", engine_config)


@pytest.fixture(scope="module")
def serial_outcome(figure1_plan, session):
    return run_plan(
        figure1_plan, session, executor=SerialDriver(), merge_spend=False
    )


class TestFigureGridEquivalence:
    def test_serial_covers_the_grid(self, serial_outcome, figure1_plan):
        assert serial_outcome.computed == len(figure1_plan)
        assert serial_outcome.cache_hits == 0
        feasible = [p for p in serial_outcome.points if p.feasible]
        assert feasible, "grid must contain feasible points"
        assert len(serial_outcome.spends) == len(feasible)

    def test_thread_workers2_bit_identical(
        self, figure1_plan, session, serial_outcome
    ):
        outcome = run_plan(
            figure1_plan,
            session,
            executor=ThreadDriver(workers=2),
            merge_spend=False,
        )
        assert_series_identical(serial_outcome.points, outcome.points)

    def test_process_workers2_bit_identical(
        self, figure1_plan, session, serial_outcome
    ):
        outcome = run_plan(
            figure1_plan,
            session,
            executor=ProcessDriver(workers=2),
            merge_spend=False,
        )
        assert_series_identical(serial_outcome.points, outcome.points)

    def test_spend_records_identical_across_executors(
        self, figure1_plan, session, serial_outcome
    ):
        """Accounting is exact under parallelism: same records, same order."""
        parallel = run_plan(
            figure1_plan,
            session,
            executor=ProcessDriver(workers=2),
            merge_spend=False,
        )
        assert parallel.spends == serial_outcome.spends


class TestProvidedDatasetGuard:
    @pytest.fixture(scope="class")
    def wrapped(self, engine_config):
        from repro.data.generator import generate

        return ReleaseSession(
            engine_config, dataset=generate(engine_config.data)
        )

    def test_process_executor_refuses_provided_dataset_sessions(
        self, engine_config, wrapped
    ):
        """Workers rebuild from config — a wrapped dataset can't ship."""
        assert wrapped.dataset_provided
        plan = figure_plan("finding-6", engine_config)
        with pytest.raises(ValueError, match="provided dataset"):
            run_plan(
                plan, wrapped, executor="process", workers=2,
                merge_spend=False,
            )
        with pytest.raises(ValueError, match="provided dataset"):
            table3_rows(wrapped, executor="process", workers=2)
        assert wrapped.ledger.entries == []

    def test_refusal_raises_before_any_worker_starts(
        self, engine_config, wrapped, monkeypatch
    ):
        """The process driver pickles its context before it makes a pool."""

        def no_pool(*args, **kwargs):
            pytest.fail("a process pool was created for an unshippable session")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        # Also any binding made at import, however the driver imports it.
        monkeypatch.setattr(
            drivers, "ProcessPoolExecutor", no_pool, raising=False
        )
        plan = figure_plan("finding-6", engine_config)
        with pytest.raises(ValueError, match="provided dataset"):
            run_plan(
                plan, wrapped, executor="process", workers=2,
                merge_spend=False,
            )

    def test_thread_executor_accepts_provided_dataset_sessions(
        self, engine_config, wrapped
    ):
        plan = figure_plan("finding-6", engine_config)
        serial = run_plan(plan, wrapped, merge_spend=False)
        threaded = run_plan(
            plan, wrapped, executor=ThreadDriver(workers=2), merge_spend=False
        )
        assert_series_identical(serial.points, threaded.points)

    def test_provided_dataset_changes_the_fingerprint(self, engine_config):
        """Same config, different data source → different cache scope."""
        from repro.data.generator import generate

        generated = ReleaseSession(engine_config)
        wrapped = ReleaseSession(
            engine_config, dataset=generate(engine_config.data)
        )
        assert not generated.dataset_provided
        assert (
            generated.snapshot_fingerprint != wrapped.snapshot_fingerprint
        )
        # The wrapped fingerprint is content-stable across sessions.
        again = ReleaseSession(
            engine_config, dataset=generate(engine_config.data)
        )
        assert wrapped.snapshot_fingerprint == again.snapshot_fingerprint


class TestResolveDriver:
    def test_none_means_no_parallelism(self):
        assert isinstance(resolve_driver(None, None), SerialDriver)
        assert isinstance(resolve_driver(None, 1), SerialDriver)

    def test_pool_name_without_workers_gets_a_default_pool(self):
        """`--executor process` alone must not silently run serial."""
        driver = resolve_driver("process", None)
        assert isinstance(driver, ProcessDriver)
        assert driver.workers >= 2
        assert resolve_driver("thread", None).workers >= 2

    def test_worker_count_selects_processes(self):
        driver = resolve_driver(None, 3)
        assert isinstance(driver, ProcessDriver)
        assert driver.workers == 3

    def test_names(self):
        assert isinstance(resolve_driver("serial", 4), SerialDriver)
        assert isinstance(resolve_driver("thread", 4), ThreadDriver)
        assert resolve_driver("thread", 4).workers == 4
        assert resolve_driver("process", 2).workers == 2

    def test_instances_pass_through(self):
        driver = ThreadDriver(workers=5)
        assert resolve_driver(driver, 2) is driver

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_driver("gpu")

    def test_invalid_type_rejected(self):
        with pytest.raises(TypeError):
            resolve_driver(42)

    def test_worker_counts_validated(self):
        with pytest.raises(ValueError):
            ThreadDriver(workers=0)
        with pytest.raises(ValueError):
            ProcessDriver(workers=0)
