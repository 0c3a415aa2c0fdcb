"""The bounded compute pool an event loop offloads blocking work onto.

Extracted from ``repro/serve/pool.py`` so the service's executor sizing
goes through the same :mod:`repro.runtime.policy` as every other pool
(``REPRO_MAX_WORKERS`` now bounds serve threads too).  Threads — not
processes — because the serve sessions' statistic caches are shared
in-memory state and the noise kernels release the GIL inside NumPy.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor

from repro.runtime.policy import resolve_workers, serve_compute_workers

__all__ = ["ComputePool"]


class ComputePool:
    """A bounded :class:`~concurrent.futures.ThreadPoolExecutor` wrapper.

    ``workers`` resolves through the runtime policy: an explicit
    positive count wins; otherwise :func:`serve_compute_workers` (small,
    CPU-derived, env-capped).
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        thread_name_prefix: str = "repro-compute",
    ):
        self.workers = resolve_workers(workers, fallback=serve_compute_workers)
        self.executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix=thread_name_prefix
        )

    def __repr__(self) -> str:
        return f"ComputePool(workers={self.workers})"

    def submit(self, fn, /, *args) -> Future:
        """Queue blocking work on the pool (sync callers)."""
        return self.executor.submit(fn, *args)

    async def run(self, fn, /, *args):
        """Run blocking work on the pool, off the running event loop."""
        # Imported here: only the release service runs an event loop,
        # and the CLI's import path should not load asyncio.
        import asyncio

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self.executor, fn, *args)

    def shutdown(self, *, wait: bool = True) -> None:
        """Finish queued compute and release the worker threads."""
        self.executor.shutdown(wait=wait)
