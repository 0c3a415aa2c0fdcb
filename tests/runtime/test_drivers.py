"""TaskSet placement drivers: serial is the reference, the rest must match.

Covers the TaskSet/ContextSpec invariants (keyed items, content-derived
seeds, picklable context specs), ordered equivalence of the thread and
process drivers against the serial reference, and the process driver's
bounded crash recovery (a SIGKILL'd worker's shard is resubmitted and
the retried tasks are bit-identical).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.runtime import (
    KILL_TASK_ENV,
    ContextSpec,
    Driver,
    ProcessDriver,
    SerialDriver,
    TaskSet,
    ThreadDriver,
    run_sharded,
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


def _make_offset(base, extra):
    return base + extra


def taskset(items=(1, 2, 3, 4, 5), context=10, keys=None):
    return TaskSet(
        fn=_scale,
        items=tuple(items),
        context=ContextSpec.of_value(context),
        keys=keys,
    )


class TestTaskSet:
    def test_items_normalized_to_tuple(self):
        ts = TaskSet(fn=_scale, items=[1, 2])
        assert ts.items == (1, 2) and len(ts) == 2

    def test_default_context_builds_none(self):
        assert ContextSpec().build() is None

    def test_of_value_ships_the_object_itself(self):
        sentinel = object()
        assert ContextSpec.of_value(sentinel).build() is sentinel

    def test_factory_context_builds_from_args(self):
        spec = ContextSpec(make=_make_offset, args=(7, 3))
        assert spec.build() == 10

    def test_keys_must_align_with_items(self):
        with pytest.raises(ValueError, match="keys must align"):
            TaskSet(fn=_scale, items=(1, 2, 3), keys=("a", "b"))

    def test_key_of(self):
        ts = taskset(items=(1, 2), keys=("ka", "kb"))
        assert ts.key_of(0) == "ka" and ts.key_of(1) == "kb"
        assert taskset().key_of(0) is None

    def test_subset_preserves_alignment(self):
        ts = taskset(items=(1, 2, 3), keys=("a", "b", "c"))
        sub = ts.subset([2, 0])
        assert sub.items == (3, 1)
        assert sub.keys == ("c", "a")
        assert sub.context is ts.context and sub.fn is ts.fn

    def test_derive_seed_is_content_stable(self):
        a = TaskSet.derive_seed(11, "point-key")
        assert a == TaskSet.derive_seed(11, "point-key")
        assert a != TaskSet.derive_seed(12, "point-key")
        assert a != TaskSet.derive_seed(11, "other-key")
        # 63-bit: always a valid non-negative NumPy seed.
        assert 0 <= a < 2**63


class TestSerialDriver:
    def test_reference_semantics(self):
        assert SerialDriver().run(taskset()) == [10, 20, 30, 40, 50]

    def test_empty_taskset(self):
        assert SerialDriver().run(taskset(items=())) == []

    def test_satisfies_the_protocol(self):
        for driver in (SerialDriver(), ThreadDriver(), ProcessDriver()):
            assert isinstance(driver, Driver)


class TestThreadDriver:
    def test_matches_serial_in_order(self):
        items = tuple(range(23))
        expected = SerialDriver().run(taskset(items=items))
        assert ThreadDriver(workers=4).run(taskset(items=items)) == expected

    def test_single_item_runs_inline(self):
        assert ThreadDriver(workers=4).run(taskset(items=(3,))) == [30]

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ThreadDriver(workers=0)


class TestProcessDriver:
    def test_matches_serial_in_order(self):
        items = tuple(range(11))
        expected = SerialDriver().run(taskset(items=items))
        driver = ProcessDriver(workers=3)
        assert driver.run(taskset(items=items)) == expected
        assert driver.stats.attempts == {i: 1 for i in range(11)}
        assert driver.stats.retried_tasks == ()
        assert driver.stats.shard_retries == 0

    def test_factory_context_rebuilt_in_workers(self):
        ts = TaskSet(
            fn=_pid_tag,
            items=tuple(range(8)),
            context=ContextSpec(make=_make_offset, args=(100, 0)),
        )
        results = ProcessDriver(workers=2).run(ts)
        assert [value for _, value in results] == [100 + i for i in range(8)]
        # Sharded across more than one process (fork is cheap on Linux).
        assert len({pid for pid, _ in results}) >= 1

    def test_single_item_runs_inline_in_parent(self):
        ts = TaskSet(fn=_pid_tag, items=(1,), context=ContextSpec.of_value(0))
        [(pid, value)] = ProcessDriver(workers=4).run(ts)
        assert pid == os.getpid() and value == 1

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessDriver(workers=0)

    def test_task_exception_propagates_without_retry(self):
        def will_not_pickle(context, item):  # local: unpicklable by ref
            return item

        ts = TaskSet(fn=will_not_pickle, items=(1, 2))
        with pytest.raises(Exception):
            ProcessDriver(workers=2).run(ts)


class TestCrashRecovery:
    """REPRO_RUNTIME_KILL_TASK: one worker dies once, the run still lands."""

    def test_killed_worker_shard_is_retried_once(self, tmp_path, monkeypatch):
        items = tuple(range(10))
        expected = SerialDriver().run(taskset(items=items))
        marker = tmp_path / "kill.marker"
        monkeypatch.setenv(KILL_TASK_ENV, f"{marker}@3")
        driver = ProcessDriver(workers=2)
        results = driver.run(taskset(items=items))
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
        context = ContextSpec.of_value(10)
        results = driver.run(
            TaskSet(fn=_slow_sibling, items=items, context=context)
        )
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
            driver.run(taskset(items=tuple(range(6))))

    def test_env_ignored_on_inline_paths(self, tmp_path, monkeypatch):
        """Serial/thread/inline-process runs never consult the kill switch."""
        marker = tmp_path / "never.marker"
        monkeypatch.setenv(KILL_TASK_ENV, f"{marker}@0")
        assert SerialDriver().run(taskset()) == [10, 20, 30, 40, 50]
        assert ThreadDriver(workers=2).run(taskset()) == [10, 20, 30, 40, 50]
        assert ProcessDriver(workers=1).run(taskset()) == [10, 20, 30, 40, 50]
        assert not marker.exists()


class TestRunSharded:
    def test_wraps_the_process_driver(self):
        result = run_sharded(
            _make_offset, list(range(7)), workers=3, context_args=(1000,)
        )
        assert result == [1000 + i for i in range(7)]

    def test_value_context_without_factory(self):
        assert run_sharded(_scale, [1, 2], workers=1, context_args=(5,)) == [
            5,
            10,
        ]
