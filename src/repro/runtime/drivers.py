"""Task placement drivers: serial, thread pool, and crash-tolerant processes.

A driver runs a :class:`~repro.runtime.taskset.TaskSet` and returns the
results in item order.  Because every task is self-seeded and the
context is rebuilt from a spec, *which* driver ran a task — and whether
it ran once or was retried after a worker crash — cannot change the
result.

- :class:`SerialDriver` — the reference implementation: build the
  context once, loop.  Every other driver must be bit-identical to it.
- :class:`ThreadDriver` — a thread pool sharing one in-process context
  (the repo's contexts are lock-guarded; the NumPy kernels release the
  GIL for large draws).
- :class:`ProcessDriver` — true parallelism: items are sharded
  round-robin across worker processes, each of which builds its context
  **once** and streams its shard through the task function.  A worker
  that *crashes* (OOM-killed, segfaulted, ``kill -9``) does not abort
  the run: every shard runs in its own single-worker pool, so a crash
  fails only the crashed shard, which is resubmitted to a fresh pool —
  bounded by ``max_shard_retries`` — while its siblings finish
  undisturbed.  Because tasks are self-seeded the retried results are
  bit-identical to what the dead worker would have produced.  Ordinary
  task *exceptions* are not retried; they propagate (a deterministic
  error would just fail again).
"""

from __future__ import annotations

import os
import signal
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from typing import Protocol, runtime_checkable

from repro.runtime.taskset import ContextSpec, TaskSet

__all__ = [
    "Driver",
    "DriverStats",
    "SerialDriver",
    "ThreadDriver",
    "ProcessDriver",
    "run_sharded",
    "KILL_TASK_ENV",
]

# Deterministic fault injection for crash-recovery tests: when set to
# "<marker-path>" (or "<marker-path>@<task-index>"), a process-pool
# worker about to run the matching task atomically creates the marker
# file and SIGKILLs itself — exactly once across the whole pool, because
# O_EXCL arbitrates which worker wins.  Never consulted on the inline
# (serial/thread) paths, so it cannot kill the parent process.
KILL_TASK_ENV = "REPRO_RUNTIME_KILL_TASK"


@dataclass
class DriverStats:
    """What the last :meth:`ProcessDriver.run` had to do to finish.

    ``attempts`` counts submissions per item index (1 everywhere on a
    clean run); ``retried_tasks`` lists the indices that were
    resubmitted after a worker crash; ``shard_retries`` counts the
    resubmitted shards.  Crash-recovery tests read these to assert a
    crashed task was retried *exactly once*.
    """

    attempts: dict[int, int] = field(default_factory=dict)
    retried_tasks: tuple[int, ...] = ()
    shard_retries: int = 0


@runtime_checkable
class Driver(Protocol):
    """The placement protocol: ordered execution of a TaskSet."""

    name: str
    workers: int

    def run(self, taskset: TaskSet) -> list:
        """Run every task; results in item order."""
        ...


class SerialDriver:
    """Run every task in the calling thread against one built context."""

    name = "serial"
    workers = 1

    def run(self, taskset: TaskSet) -> list:
        if not taskset.items:
            return []
        context = taskset.context.build()
        return [taskset.fn(context, item) for item in taskset.items]

    def __repr__(self) -> str:
        return "SerialDriver()"


class ThreadDriver:
    """A thread pool over one shared in-process context."""

    name = "thread"

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def run(self, taskset: TaskSet) -> list:
        items = taskset.items
        if len(items) <= 1 or self.workers == 1:
            return SerialDriver().run(taskset)
        context = taskset.context.build()
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            return list(pool.map(partial(taskset.fn, context), items))

    def __repr__(self) -> str:
        return f"ThreadDriver(workers={self.workers})"


def _maybe_injected_crash(index: int) -> None:
    """Die here if the fault-injection env var targets this task.

    The marker file is created with ``O_EXCL`` so exactly one worker
    across the pool (and across retries — the marker persists) takes
    the hit; everyone else, including the retry of the killed shard,
    sees the marker and runs normally.
    """
    target = os.environ.get(KILL_TASK_ENV)
    if not target:
        return
    marker, _, wanted = target.partition("@")
    if wanted and int(wanted) != index:
        return
    try:
        descriptor = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(descriptor)
    os.kill(os.getpid(), signal.SIGKILL)


def _run_task_shard(make_context, context_args, fn, indexed_items):
    """Worker entry point: evaluate one shard against a rebuilt context.

    ``make_context(*context_args)`` builds (or fetches this process's
    cached) task context — a :class:`~repro.api.session.ReleaseSession`
    for sweeps, a plain picklable build context for sharded snapshot
    generation — and the shard streams through ``fn(context, item)``.
    """
    context = make_context(*context_args)
    results = []
    for index, item in indexed_items:
        _maybe_injected_crash(index)
        results.append((index, fn(context, item)))
    return results


class ProcessDriver:
    """Round-robin sharded process pool with bounded crash recovery.

    ``start_method`` picks the :mod:`multiprocessing` context (``None``
    uses the platform default — ``fork`` on Linux, which inherits the
    imported modules and makes worker start cheap).  Items are sharded
    round-robin so every worker gets an even slice in one submission,
    amortizing whatever the context factory costs across its whole
    shard.  With one item or one worker the map runs inline in the
    calling process, context built the same way, so callers get a
    single code path.

    **Crash recovery**: a dead worker poisons its whole
    :class:`~concurrent.futures.ProcessPoolExecutor`
    (:class:`BrokenProcessPool`), failing every future of that pool —
    so each shard gets a single-worker pool of its own, and a crash
    fails exactly the crashed shard.  Its siblings deliver normally
    (``attempts`` stays 1 for their items); the crashed shard is
    resubmitted to a *fresh* pool.  Each round of resubmission consumes
    one of ``max_shard_retries``; a shard that dies again past the
    budget raises, because a task that kills its worker every time is a
    bug, not bad luck.  Retried tasks are bit-identical to their first
    attempt (self-seeded items, content-derived seeds), so recovery is
    invisible in the results.
    """

    name = "process"

    def __init__(
        self,
        workers: int = 2,
        start_method: str | None = None,
        *,
        max_shard_retries: int = 1,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.start_method = start_method
        self.max_shard_retries = max_shard_retries
        self.stats = DriverStats()

    def run(self, taskset: TaskSet) -> list:
        items = taskset.items
        self.stats = DriverStats()
        if not items:
            return []
        if len(items) == 1 or self.workers == 1:
            context = taskset.context.build()
            self.stats.attempts = {i: 1 for i in range(len(items))}
            return [taskset.fn(context, item) for item in items]
        import multiprocessing

        mp_context = multiprocessing.get_context(self.start_method)
        n_workers = min(self.workers, len(items))
        indexed = list(enumerate(items))
        pending = [indexed[offset::n_workers] for offset in range(n_workers)]
        results: list = [None] * len(items)
        retries_left = self.max_shard_retries
        while pending:
            for shard in pending:
                for index, _ in shard:
                    self.stats.attempts[index] = (
                        self.stats.attempts.get(index, 0) + 1
                    )
            crashed = []
            with ExitStack() as pools:
                # One pool per shard, so a crash breaks only its own pool.
                # Under fork, later workers start while earlier pools'
                # threads run; a worker touches only its own pool's queues,
                # so it never waits on a lock those threads hold.
                submitted = []
                for shard in pending:
                    pool = pools.enter_context(
                        ProcessPoolExecutor(
                            max_workers=1, mp_context=mp_context
                        )
                    )
                    future = pool.submit(
                        _run_task_shard,
                        taskset.context.make,
                        taskset.context.args,
                        taskset.fn,
                        shard,
                    )
                    submitted.append((shard, future))
                for shard, future in submitted:
                    try:
                        for index, result in future.result():
                            results[index] = result
                    except BrokenProcessPool:
                        crashed.append(shard)
            if crashed:
                if retries_left <= 0:
                    dead = sorted(i for shard in crashed for i, _ in shard)
                    raise RuntimeError(
                        f"worker process(es) crashed repeatedly; task(s) "
                        f"{dead} failed after "
                        f"{self.max_shard_retries + 1} attempt(s)"
                    )
                retries_left -= 1
                self.stats.shard_retries += len(crashed)
                self.stats.retried_tasks = tuple(
                    sorted(
                        set(self.stats.retried_tasks)
                        | {i for shard in crashed for i, _ in shard}
                    )
                )
            pending = crashed
        return results

    def __repr__(self) -> str:
        return f"ProcessDriver(workers={self.workers})"


def run_sharded(
    fn: Callable,
    items,
    *,
    workers: int,
    make_context: Callable | None = None,
    context_args: tuple = (),
    start_method: str | None = None,
) -> list:
    """Ordered ``fn(context, item)`` map over a crash-tolerant process pool.

    The process-parallel core shared by the sweep engine's
    :class:`~repro.engine.executors.ProcessExecutor` (whose context is
    a per-process rebuilt session) and the sharded snapshot builder
    (whose context is the picklable generation plan) — a thin wrapper
    that describes the call as a :class:`TaskSet` and hands it to a
    :class:`ProcessDriver`.
    """
    context = (
        ContextSpec(make=make_context, args=tuple(context_args))
        if make_context is not None
        else ContextSpec(args=tuple(context_args))
    )
    driver = ProcessDriver(workers=workers, start_method=start_method)
    return driver.run(TaskSet(fn=fn, items=tuple(items), context=context))
