"""The one worker-count policy for every execution layer.

Before this module existed, the three execution layers each resolved
worker counts on their own: the sweep executors used
``max(2, cpu_count)`` capped by ``REPRO_MAX_WORKERS``, the serve
compute pool used ``max(2, min(4, cpu_count))`` with *no* env cap, and
the sharded snapshot build defaulted to sequential with an uncapped
explicit ``--workers``.  Divergent policies mean a CI runner that sets
``REPRO_MAX_WORKERS=2`` still fans the serve pool out to four threads,
and nobody can answer "how many workers will this command use" without
reading three call sites.

Now every layer resolves through here:

- :func:`default_workers` — the sweep/build pool size: scales with the
  machine (floor of 2 so a bare ``--executor process`` always yields
  real parallelism), capped by :data:`MAX_WORKERS_ENV`.
- :func:`serve_compute_workers` — the serve compute-pool size: small
  and CPU-derived (enough to overlap noise draws with journal fsyncs
  without oversubscribing small machines), *also* capped by
  :data:`MAX_WORKERS_ENV` — the env var now bounds every pool the
  process creates.
- :func:`resolve_workers` — the shared "explicit wins" rule: a caller
  passing a positive count gets exactly that count (operators override
  policy); ``None`` or a non-positive count falls back to the given
  policy default.
- :func:`kernel_threads` — how many threads one task's kernel may use
  inside a drain of a given parallel width: the CPUs this process may
  run on, split evenly across the drain's concurrent tasks, capped by
  :data:`MAX_WORKERS_ENV`.  A serial drain gets every core; an N-wide
  pool gets ``cores // N`` per task (1 once the pool covers the
  machine), so the two levels of parallelism never oversubscribe.
  Derived, never configured: ``REPRO_MAX_WORKERS=1`` is the one switch
  back to single-threaded kernels.
"""

from __future__ import annotations

import os
from collections.abc import Callable

__all__ = [
    "MAX_WORKERS_ENV",
    "worker_cap",
    "default_workers",
    "serve_compute_workers",
    "resolve_workers",
    "kernel_threads",
]

# Caps the *derived* worker counts regardless of the machine's core
# count, so CI (and any shared box) can bound process/thread fan-out
# without touching code.  Explicitly requested counts are not capped:
# an operator typing --workers 8 outranks the environment.
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"


def worker_cap() -> int | None:
    """The :data:`MAX_WORKERS_ENV` cap, or ``None`` when unset.

    A cap below 1 is clamped to 1 (a pool always has at least one
    worker — "serial" is an executor choice, not a worker count).
    """
    override = os.environ.get(MAX_WORKERS_ENV, "").strip()
    if not override:
        return None
    try:
        cap = int(override)
    except ValueError:
        raise ValueError(
            f"{MAX_WORKERS_ENV} must be an integer, got {override!r}"
        ) from None
    return max(1, cap)


def _capped(workers: int) -> int:
    cap = worker_cap()
    return workers if cap is None else min(workers, cap)


def default_workers() -> int:
    """A sensible pool size for sweeps and sharded snapshot builds.

    Scales with ``os.cpu_count()`` — a 64-core sweep box gets 64
    workers, not a hard-coded 4 — with a floor of 2 so ``--executor
    process`` without a count always yields real parallelism.  The
    ``REPRO_MAX_WORKERS`` environment variable caps the result; a cap
    of 1 forces serial-in-process execution.
    """
    return _capped(max(2, os.cpu_count() or 2))


def serve_compute_workers() -> int:
    """The bounded compute-pool size for the release service.

    Enough threads to overlap noise draws with journal fsyncs without
    oversubscribing small CI machines, and — unlike the pre-runtime
    serve default — bounded by the same ``REPRO_MAX_WORKERS`` cap as
    every other pool.
    """
    return _capped(max(2, min(4, os.cpu_count() or 2)))


def _available_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, if any)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def kernel_threads(width: int) -> int:
    """Threads per kernel when ``width`` tasks of a drain run at once.

    :func:`_available_cpus` integer-divided by ``width``, capped by
    :data:`MAX_WORKERS_ENV`, and at least 1.
    """
    return max(1, _capped(_available_cpus() // max(1, width)))


def resolve_workers(
    requested: int | None, *, fallback: Callable[[], int] = default_workers
) -> int:
    """Explicit wins, policy otherwise: the one resolution rule.

    A positive ``requested`` is returned verbatim (operator overrides
    are never silently capped); ``None`` or a non-positive count falls
    back to ``fallback()`` — pass :func:`serve_compute_workers` for the
    service pool, leave the default for sweep/build pools.
    """
    if requested is not None and requested > 0:
        return requested
    return fallback()
