"""One runtime: task placement for sweeps, snapshot builds, and serve.

This package owns *where work runs* for the whole codebase.  The sweep
engine (:func:`repro.engine.run_plan`, which drains every figure, Table
3 and ad-hoc sweep) and the sharded snapshot build
(:func:`repro.data.workers.build_workforce_sharded`) run on the
drivers and claims below; the release service's compute pool
(:class:`repro.serve.SessionPool`, one thread pool) is sized by the
same policy.  Three pieces:

- :mod:`~repro.runtime.drivers` — :class:`SerialDriver` /
  :class:`ThreadDriver` / :class:`ProcessDriver`:
  ``driver.map(fn, context, items)`` over self-seeded items, ordered
  and bit-identical at any worker count, with bounded crash recovery on
  the process path (a killed worker's shard is resubmitted, not
  fatal); :func:`resolve_driver` maps the ``executor``/``workers``
  knobs onto them, serial when neither asks for a pool.
- :mod:`~repro.runtime.claims` — :class:`ClaimBoard`: optimistic lease
  files (TTL + owner id) over any storage backend, so N processes or
  machines draining one plan *partition* the grid; last-writer-wins
  result puts remain the correctness safety net.
- :mod:`~repro.runtime.policy` — the one worker-count policy
  (``default_workers`` / ``serve_compute_workers`` /
  ``kernel_threads`` / ``REPRO_MAX_WORKERS``) every layer resolves
  through.
"""

from repro.runtime.claims import (
    CLAIMS_PREFIX,
    DEFAULT_LEASE_TTL_S,
    ClaimBoard,
    Lease,
    default_owner,
)
from repro.runtime.drivers import (
    DRIVER_NAMES,
    KILL_TASK_ENV,
    Driver,
    DriverStats,
    ProcessDriver,
    SerialDriver,
    ThreadDriver,
    resolve_driver,
)
from repro.runtime.policy import (
    MAX_WORKERS_ENV,
    default_workers,
    kernel_threads,
    resolve_workers,
    serve_compute_workers,
    worker_cap,
)

__all__ = [
    "CLAIMS_PREFIX",
    "DEFAULT_LEASE_TTL_S",
    "ClaimBoard",
    "DRIVER_NAMES",
    "Driver",
    "DriverStats",
    "KILL_TASK_ENV",
    "Lease",
    "MAX_WORKERS_ENV",
    "ProcessDriver",
    "SerialDriver",
    "ThreadDriver",
    "default_owner",
    "default_workers",
    "kernel_threads",
    "resolve_driver",
    "resolve_workers",
    "serve_compute_workers",
    "worker_cap",
]
