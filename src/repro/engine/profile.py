"""Per-stage wall-clock profiling for sweep runs (``repro sweep --profile``).

The sweep kernels spend their time in three places: **draw** (producing
the noise matrix — RNG plus the mechanism transform), **reduce**
(folding it into the point statistics) and **store** (persisting
computed points).  This module attributes wall clock to those stages
with near-zero cost when profiling is off: kernels consult one module
flag and skip every timer.

Activation is process-wide (:func:`profiled` sets a module global), which
matches how the sweep engine runs — one plan at a time per process.  The
serial and thread drivers therefore capture kernel stages directly.  A
process pool's workers run in other interpreters where the parent's
module global is invisible, so the sweep engine wraps each shipped task
in its own :func:`profiled` scope and sends the captured
:class:`StageProfile` back with the outcome; the parent folds those into
its own profile via :func:`merge_worker`, which also keeps a per-worker
(per-PID) breakdown for the ``per_worker`` section of ``sweep --json``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = [
    "StageProfile",
    "profiled",
    "active",
    "stage",
    "merge_worker",
]

_STAGES = ("draw", "reduce", "store")

_ACTIVE: "StageProfile | None" = None


class StageProfile:
    """Accumulated seconds per stage plus the run's total wall clock."""

    __slots__ = ("draw", "reduce", "store", "total", "workers")

    def __init__(self) -> None:
        self.draw = 0.0
        self.reduce = 0.0
        self.store = 0.0
        self.total = 0.0
        # pid -> accumulated per-worker stage dict (set by merge_worker
        # when a profiled run fans tasks out to a process pool).
        self.workers: dict[int, dict] = {}

    def add(self, name: str, seconds: float) -> None:
        setattr(self, name, getattr(self, name) + seconds)

    def merge_worker(self, pid: int, profile_dict: dict) -> None:
        """Fold one worker task's captured profile into this run.

        Stage seconds land in this profile's totals (so draw/reduce no
        longer read zero under a process pool) and accumulate per PID
        for the per-worker breakdown.  Worker seconds overlap in wall
        time, so under a pool ``draw + reduce + store`` may legitimately
        exceed ``total`` — ``other`` clamps at zero.
        """
        for name in _STAGES:
            self.add(name, float(profile_dict.get(f"{name}_s", 0.0)))
        worker = self.workers.setdefault(
            pid,
            {
                "tasks": 0,
                "draw_s": 0.0,
                "reduce_s": 0.0,
                "store_s": 0.0,
                "total_s": 0.0,
            },
        )
        worker["tasks"] += 1
        for key in ("draw_s", "reduce_s", "store_s", "total_s"):
            worker[key] += float(profile_dict.get(key, 0.0))

    @property
    def other(self) -> float:
        """Wall clock not attributed to any instrumented stage."""
        return max(0.0, self.total - self.draw - self.reduce - self.store)

    def as_dict(self) -> dict:
        payload = {
            "draw_s": self.draw,
            "reduce_s": self.reduce,
            "store_s": self.store,
            "other_s": self.other,
            "total_s": self.total,
        }
        if self.workers:
            payload["per_worker"] = [
                {"worker": n, "pid": pid, **stats}
                for n, (pid, stats) in enumerate(sorted(self.workers.items()))
            ]
        return payload


def active() -> bool:
    """Whether a profiled run is in progress in this process."""
    return _ACTIVE is not None


def merge_worker(pid: int, profile_dict: dict) -> None:
    """Fold a worker task's returned profile into the active run (if any)."""
    if _ACTIVE is not None:
        _ACTIVE.merge_worker(pid, profile_dict)


@contextmanager
def profiled():
    """Activate stage collection for the enclosed sweep run."""
    global _ACTIVE
    previous, profile = _ACTIVE, StageProfile()
    _ACTIVE = profile
    start = time.perf_counter()
    try:
        yield profile
    finally:
        profile.total = time.perf_counter() - start
        _ACTIVE = previous


@contextmanager
def stage(name: str):
    """Attribute the enclosed block's wall clock to ``name`` (if active)."""
    if _ACTIVE is None:
        yield
        return
    if name not in _STAGES:
        raise ValueError(f"stage must be one of {_STAGES}, got {name!r}")
    start = time.perf_counter()
    try:
        yield
    finally:
        _ACTIVE.add(name, time.perf_counter() - start)
