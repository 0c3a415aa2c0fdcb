"""Warm release sessions plus the bounded compute executor.

The service keeps one :class:`~repro.api.ReleaseSession` per configured
scenario — built lazily on first request (or eagerly via :meth:`warm`),
memory-mapped over the persistent
:class:`~repro.scenarios.SnapshotStore` where one is given — and shares
it across all tenants: the session's trial-invariant caches (true
marginals, release masks, smooth-sensitivity statistics, SDL answers)
are lock-guarded, so a thousand requests against one scenario pay the
expensive statistics exactly once and only draw noise per request.

Compute runs on the pool's own **bounded**
:class:`~concurrent.futures.ThreadPoolExecutor` (`--compute-workers`).
Threads, not processes, because the sessions' statistic caches are
shared in-memory state and the noise kernels release the GIL inside
NumPy.  The asyncio front end makes one :meth:`SessionPool.run` hop per
release or ledger read, and that one call runs the whole flow, from
tenant lookup to the fsync'd charge and the cache write, on one pool
thread: the event loop never blocks on NumPy or disk, and concurrent
releases proceed side by side.  Sizing goes through the one
:mod:`repro.runtime.policy` every pool in the codebase uses: an
explicit ``--compute-workers`` wins, otherwise
:func:`~repro.runtime.serve_compute_workers` (small, CPU-derived, and
bounded by ``REPRO_MAX_WORKERS`` like every other pool).
"""

from __future__ import annotations

import asyncio
import threading
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor

from repro.api.session import ReleaseSession
from repro.engine.plan import snapshot_fingerprint
from repro.runtime.policy import resolve_workers, serve_compute_workers

__all__ = ["SessionPool"]


class SessionPool:
    """Scenario name → warm :class:`~repro.api.ReleaseSession`, plus executor.

    ``configs`` maps serving names to
    :class:`~repro.experiments.config.ExperimentConfig`; the first name
    (or ``default``) is what requests without a ``"scenario"`` field get.
    Pool sessions run tracking-only ledgers — budget enforcement lives in
    the per-tenant accounts, not the shared sessions.
    """

    def __init__(
        self,
        configs: Mapping,
        *,
        snapshot_store=None,
        compute_workers: int | None = None,
        default: str | None = None,
    ):
        self._configs = dict(configs)
        if not self._configs:
            raise ValueError("a session pool needs at least one scenario")
        if default is not None and default not in self._configs:
            raise ValueError(
                f"default scenario {default!r} is not in the pool "
                f"({sorted(self._configs)})"
            )
        self.default = default if default is not None else next(iter(self._configs))
        self.snapshot_store = snapshot_store
        self.compute_workers = resolve_workers(
            compute_workers, fallback=serve_compute_workers
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.compute_workers, thread_name_prefix="repro-serve"
        )
        self._sessions: dict[str, ReleaseSession] = {}
        self._build_locks = {
            name: threading.Lock() for name in self._configs
        }

    @classmethod
    def from_scenarios(
        cls, names: Sequence[str], *, n_trials: int | None = None, **kwargs
    ) -> "SessionPool":
        """A pool over registered scenario economies (by name)."""
        from repro.experiments.config import ExperimentConfig

        overrides = {} if n_trials is None else {"n_trials": n_trials}
        configs = {
            name: ExperimentConfig.for_scenario(name, **overrides)
            for name in names
        }
        return cls(configs, **kwargs)

    # -- sessions -------------------------------------------------------

    @property
    def names(self) -> list[str]:
        return sorted(self._configs)

    def config(self, name: str):
        try:
            return self._configs[name]
        except KeyError:
            raise ValueError(
                f"unknown scenario {name!r}; this server hosts "
                f"{sorted(self._configs)}"
            ) from None

    def session(self, name: str | None = None) -> ReleaseSession:
        """The warm session for ``name`` (built on first use, exactly once).

        The per-scenario build lock means concurrent first requests
        against a cold scenario block behind one build instead of
        generating the economy N times.
        """
        name = self.default if name is None else name
        config = self.config(name)
        session = self._sessions.get(name)
        if session is None:
            with self._build_locks[name]:
                session = self._sessions.get(name)
                if session is None:
                    session = ReleaseSession(
                        config, snapshot_store=self.snapshot_store
                    )
                    self._sessions[name] = session
        return session

    def warm(self, names: Sequence[str] | None = None) -> list[str]:
        """Build the named (default: all) sessions now; returns the names."""
        warmed = list(self._configs if names is None else names)
        for name in warmed:
            self.session(name)
        return warmed

    def describe(self) -> list[dict]:
        """JSON inventory for ``GET /v1/scenarios``."""
        rows = []
        for name in self.names:
            config = self._configs[name]
            rows.append(
                {
                    "name": name,
                    "default": name == self.default,
                    "target_jobs": config.data.target_jobs,
                    "n_trials": config.n_trials,
                    "fingerprint": snapshot_fingerprint(config),
                    "warm": name in self._sessions,
                }
            )
        return rows

    # -- compute offload ------------------------------------------------

    async def run(self, fn, /, *args):
        """Run blocking work on the bounded compute pool, off the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn, *args)

    def close(self) -> None:
        """Finish queued compute and release the worker threads."""
        self._executor.shutdown(wait=True)
