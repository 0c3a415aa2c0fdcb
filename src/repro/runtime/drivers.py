"""Task placement drivers: serial, thread pool, and crash-tolerant processes.

A driver maps a task function over an ordered item list against one
context — ``driver.map(fn, context, items)`` — and returns the results
in item order, whatever order the work actually ran in.  Three
invariants make placement irrelevant to results:

- **Task functions are module-level** callables of ``(context, item)``,
  picklable by reference, so a process driver can ship them.
- **Items carry their own seeds.**  Every stochastic item in this repo
  (a :class:`~repro.engine.plan.WorkUnit`, a snapshot build chunk)
  embeds a seed derived from its *content*
  (:func:`repro.util.derive_seed`), never from its position in a
  schedule.  Rerunning a task — on another worker, after a crash, on
  another machine — therefore reproduces its result bit for bit.
- **The context is picklable.**  In the calling process (the serial
  and thread drivers, and the process driver's inline path) it is used
  as it is; the process driver pickles it once per ``map``, in the
  calling process, before it starts any worker — a context that
  refuses to pickle raises there.  A context too heavy to ship pickles
  as its own rebuild recipe: a
  :class:`~repro.api.session.ReleaseSession` crosses as its config plus
  snapshot-store spec and is rebuilt (and cached) once per worker
  process.

The drivers:

- :class:`SerialDriver` — the reference implementation: loop in the
  calling thread.  Every other driver must be bit-identical to it.
- :class:`ThreadDriver` — a thread pool sharing the in-process context
  (the repo's contexts are lock-guarded; the NumPy kernels release the
  GIL for large draws).  Each task runs in its own copy of the caller's
  :mod:`contextvars` context, so context variables the caller set are
  visible to every task and a task's own ``set`` stays in that task.
- :class:`ProcessDriver` — true parallelism: items are sharded
  round-robin across worker processes, each of which unpickles its
  context **once**, inside its first task, and streams its shard
  through the task function.  A worker that *crashes* (OOM-killed,
  segfaulted, ``kill -9``) does not abort the run: every shard runs in
  its own single-worker pool, so a crash fails only the crashed shard,
  which is resubmitted to a fresh pool — bounded by
  ``max_shard_retries`` — while its siblings finish undisturbed.
  Because tasks are self-seeded the retried results are bit-identical
  to what the dead worker would have produced.  Ordinary task
  *exceptions* are not retried; they propagate (a deterministic error
  would just fail again).  That includes an exception raised while the
  context rebuilds in the worker (say its snapshot store vanished): it
  comes back as the task's own error, not as a crash.

The pool machinery (:mod:`concurrent.futures.process`,
:mod:`multiprocessing`) is imported on the process driver's pool path
only, so importing this module stays cheap.

:func:`resolve_driver` turns the ``executor=``/``workers=`` knobs of
the sweep engine, the figure and table functions and the CLI into a
driver, serial when neither knob asks for a pool.
"""

from __future__ import annotations

import contextvars
import os
import pickle
import signal
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.runtime.policy import default_workers

__all__ = [
    "DRIVER_NAMES",
    "Driver",
    "DriverStats",
    "SerialDriver",
    "ThreadDriver",
    "ProcessDriver",
    "KILL_TASK_ENV",
    "resolve_driver",
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
    """What the last :meth:`ProcessDriver.map` had to do to finish.

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
    """The placement protocol: an ordered map of a task over items."""

    name: str
    workers: int

    def map(self, fn: Callable, context, items: Sequence) -> list:
        """Apply ``fn(context, item)`` to every item; results in order."""
        ...


class SerialDriver:
    """Run every task in the calling thread against the context."""

    name = "serial"
    workers = 1

    def map(self, fn: Callable, context, items: Sequence) -> list:
        return [fn(context, item) for item in items]

    def __repr__(self) -> str:
        return "SerialDriver()"


class ThreadDriver:
    """A thread pool over one shared in-process context.

    Every task runs in its own :func:`contextvars.copy_context` of the
    calling thread, taken at submission, so whatever the caller's
    context variables hold (a tracer's current span, say) is what each
    task sees, and nothing a task sets leaks out of it.
    """

    name = "thread"

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def map(self, fn: Callable, context, items: Sequence) -> list:
        items = list(items)
        if len(items) <= 1 or self.workers == 1:
            return SerialDriver().map(fn, context, items)
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = [
                pool.submit(contextvars.copy_context().run, fn, context, item)
                for item in items
            ]
            return [future.result() for future in futures]

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


def _run_task_shard(payload: bytes, fn, indexed_items):
    """Worker entry point: stream one shard through ``fn(context, item)``.

    ``payload`` is the pickled context, unpickled here, inside the task
    — a rebuilt (per-process cached)
    :class:`~repro.api.session.ReleaseSession` for sweeps, a plain
    picklable build context for sharded snapshot generation — so an
    error while rebuilding it travels back as this task's exception.
    """
    context = pickle.loads(payload)
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
    amortizing whatever unpickling the context costs across its whole
    shard.  With one item or one worker the map runs inline in the
    calling process against the context itself, so callers get a
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

    def map(self, fn: Callable, context, items: Sequence) -> list:
        items = list(items)
        self.stats = DriverStats()
        if not items:
            return []
        if len(items) == 1 or self.workers == 1:
            self.stats.attempts = {i: 1 for i in range(len(items))}
            return [fn(context, item) for item in items]
        # Pickled once, here: a context that refuses to cross a process
        # boundary raises before any worker starts.
        payload = pickle.dumps(context)
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

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
                    future = pool.submit(_run_task_shard, payload, fn, shard)
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


DRIVER_NAMES = ("serial", "thread", "process")


def resolve_driver(executor=None, workers: int | None = None):
    """Normalize the (executor, workers) knobs into a driver.

    Accepts a driver instance (returned as-is), one of
    :data:`DRIVER_NAMES` (a pool name without a worker count gets
    :func:`~repro.runtime.default_workers`), or just a worker count
    (> 1 selects processes — the only driver with true CPU
    parallelism).  Neither knob, or a single worker, means
    :class:`SerialDriver`.
    """
    if executor is None:
        if workers is None or workers <= 1:
            return SerialDriver()
        return ProcessDriver(workers=workers)
    if isinstance(executor, str):
        if executor not in DRIVER_NAMES:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {DRIVER_NAMES}"
            )
        if executor == "serial":
            return SerialDriver()
        size = workers if workers and workers > 0 else default_workers()
        return ThreadDriver(size) if executor == "thread" else ProcessDriver(size)
    if not hasattr(executor, "map"):
        raise TypeError(
            f"executor must be a Driver, name or None, got {executor!r}"
        )
    return executor
