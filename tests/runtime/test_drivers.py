"""Placement drivers: serial is the reference, the rest must match.

Covers ``driver.map(fn, context, items)`` — ordered equivalence of the
thread and process drivers against the serial reference, context
variables inside thread tasks, contexts that cross process boundaries
as rebuild recipes (and rebuild errors that come back as task errors)
— and the process driver's bounded crash recovery (a SIGKILL'd
worker's shard is resubmitted and the retried tasks are bit-identical).
"""

from __future__ import annotations

import contextvars
import os
import threading
import time

import pytest

from repro.runtime import (
    KILL_TASK_ENV,
    Driver,
    ProcessDriver,
    SerialDriver,
    ThreadDriver,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _scale(context, item):
    """Module-level task so process pools can pickle it by reference."""
    return context * item


def _slow_sibling(context, item):
    """Item 1 sleeps, so its shard is still running when item 0's dies."""
    if item == 1:
        time.sleep(0.5)
    return context * item


def _pid_tag(context, item):
    return (os.getpid(), context + item)


class _Offset:
    """A context that crosses process boundaries as a rebuild recipe."""

    def __init__(self, base):
        self.base = base
        self.built_in = os.getpid()

    def __reduce__(self):
        return (_Offset, (self.base,))


def _offset_tag(context, item):
    return (os.getpid(), context.built_in, context.base + item)


def _missing_snapshot():
    raise FileNotFoundError("the snapshot store vanished")


class _VanishedStore:
    """A context whose rebuild recipe raises in the worker."""

    def __reduce__(self):
        return (_missing_snapshot, ())


_TAG = contextvars.ContextVar("test_drivers_tag", default=None)


def _read_then_set_tag(barrier, item):
    """Report the tag this task starts with, after setting its own."""
    seen = _TAG.get()
    _TAG.set(f"task-{item}")
    # Both pool threads hold a task here at once, so the next tasks run
    # on threads whose earlier task already set the tag.
    barrier.wait(timeout=10)
    return seen, _TAG.get()


ITEMS = (1, 2, 3, 4, 5)


class TestSerialDriver:
    def test_reference_semantics(self):
        assert SerialDriver().map(_scale, 10, ITEMS) == [10, 20, 30, 40, 50]

    def test_empty_items(self):
        assert SerialDriver().map(_scale, 10, ()) == []

    def test_satisfies_the_protocol(self):
        for driver in (SerialDriver(), ThreadDriver(), ProcessDriver()):
            assert isinstance(driver, Driver)


class TestThreadDriver:
    def test_matches_serial_in_order(self):
        items = tuple(range(23))
        expected = SerialDriver().map(_scale, 10, items)
        assert ThreadDriver(workers=4).map(_scale, 10, items) == expected

    def test_single_item_runs_inline(self):
        assert ThreadDriver(workers=4).map(_scale, 10, (3,)) == [30]

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ThreadDriver(workers=0)

    def test_tasks_run_in_copies_of_the_callers_context(self):
        barrier = threading.Barrier(2)
        token = _TAG.set("caller")
        try:
            results = ThreadDriver(workers=2).map(
                _read_then_set_tag, barrier, range(6)
            )
            assert _TAG.get() == "caller"
        finally:
            _TAG.reset(token)
        assert [seen for seen, _ in results] == ["caller"] * 6
        assert [own for _, own in results] == [f"task-{i}" for i in range(6)]


class TestProcessDriver:
    def test_matches_serial_in_order(self):
        items = tuple(range(11))
        expected = SerialDriver().map(_scale, 10, items)
        driver = ProcessDriver(workers=3)
        assert driver.map(_scale, 10, items) == expected
        assert driver.stats.attempts == {i: 1 for i in range(11)}
        assert driver.stats.retried_tasks == ()
        assert driver.stats.shard_retries == 0
        assert driver.map(_scale, 10, ()) == []

    def test_recipe_context_rebuilt_in_workers(self):
        results = ProcessDriver(workers=2).map(
            _offset_tag, _Offset(100), tuple(range(8))
        )
        assert [value for _, _, value in results] == [100 + i for i in range(8)]
        # Each worker ran its shard against a context its recipe built
        # in that worker, not against a copy of the parent's.
        for pid, built_in, _ in results:
            assert built_in == pid != os.getpid()

    def test_single_item_runs_inline_in_parent(self):
        [(pid, value)] = ProcessDriver(workers=4).map(_pid_tag, 0, (1,))
        assert pid == os.getpid() and value == 1

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessDriver(workers=0)

    def test_task_exception_propagates_without_retry(self):
        def will_not_pickle(context, item):  # local: unpicklable by ref
            return item

        with pytest.raises(Exception):
            ProcessDriver(workers=2).map(will_not_pickle, None, (1, 2))

    def test_rebuild_error_comes_back_as_the_task_error(self):
        """A context that fails to rebuild in a worker is a task error,
        not a crash: it propagates as itself and is not retried."""
        driver = ProcessDriver(workers=2)
        with pytest.raises(FileNotFoundError, match="vanished"):
            driver.map(_scale, _VanishedStore(), (1, 2))
        assert driver.stats.shard_retries == 0


class TestCrashRecovery:
    """REPRO_RUNTIME_KILL_TASK: one worker dies once, the run still lands."""

    def test_killed_worker_shard_is_retried_once(self, tmp_path, monkeypatch):
        items = tuple(range(10))
        expected = SerialDriver().map(_scale, 10, items)
        marker = tmp_path / "kill.marker"
        monkeypatch.setenv(KILL_TASK_ENV, f"{marker}@3")
        driver = ProcessDriver(workers=2)
        results = driver.map(_scale, 10, items)
        assert results == expected
        assert marker.exists(), "the injected crash must actually have fired"
        # The victim task was submitted exactly twice (crash + retry) and
        # exactly one shard was resubmitted.
        assert driver.stats.attempts[3] == 2
        assert 3 in driver.stats.retried_tasks
        assert driver.stats.shard_retries == 1
        untouched = set(items) - set(driver.stats.retried_tasks)
        assert all(driver.stats.attempts[i] == 1 for i in untouched)

    def test_crash_retries_only_the_crashed_shard(self, tmp_path, monkeypatch):
        """A sibling shard still running when another shard's worker is
        killed delivers normally: only the killed shard is resubmitted."""
        items = tuple(range(4))
        marker = tmp_path / "kill.marker"
        monkeypatch.setenv(KILL_TASK_ENV, f"{marker}@0")
        driver = ProcessDriver(workers=2)
        results = driver.map(_slow_sibling, 10, items)
        assert results == [0, 10, 20, 30]
        assert marker.exists(), "the injected crash must actually have fired"
        assert driver.stats.shard_retries == 1
        assert driver.stats.retried_tasks == (0, 2)
        # Round-robin sharding puts items 1 and 3 on the sibling shard.
        assert driver.stats.attempts[1] == driver.stats.attempts[3] == 1
        assert driver.stats.attempts[0] == driver.stats.attempts[2] == 2

    def test_repeat_crasher_exhausts_the_budget_and_raises(
        self, tmp_path, monkeypatch
    ):
        # No "@index": every task kills its worker until the marker
        # exists — so delete the marker after every attempt to simulate
        # a task that dies on *every* placement.
        marker = tmp_path / "always.marker"
        monkeypatch.setenv(KILL_TASK_ENV, str(marker))
        driver = ProcessDriver(workers=2, max_shard_retries=0)
        with pytest.raises(RuntimeError, match="crashed repeatedly"):
            driver.map(_scale, 10, tuple(range(6)))

    def test_env_ignored_on_inline_paths(self, tmp_path, monkeypatch):
        """Serial/thread/inline-process runs never consult the kill switch."""
        marker = tmp_path / "never.marker"
        monkeypatch.setenv(KILL_TASK_ENV, f"{marker}@0")
        expected = [10, 20, 30, 40, 50]
        assert SerialDriver().map(_scale, 10, ITEMS) == expected
        assert ThreadDriver(workers=2).map(_scale, 10, ITEMS) == expected
        assert ProcessDriver(workers=1).map(_scale, 10, ITEMS) == expected
        assert not marker.exists()

