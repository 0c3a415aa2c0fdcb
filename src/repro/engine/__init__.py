"""repro.engine — the parallel, resumable sweep engine.

Every headline artifact of the paper is a Monte Carlo sweep over a
(mechanism × α × ε × workload) grid; this package is the scaffolding
that plans, executes and caches those sweeps:

- :mod:`repro.engine.points` — the neutral point/result dataclasses
  (``SeriesPoint``, ``FigureSeries``, ``WorkloadStatistics``) shared by
  the session and experiment layers;
- :mod:`repro.engine.evaluate` — the per-point and fused-family
  evaluation kernels over cached workload statistics (batched noise
  draw + streamed Sec-10 metric reduction);
- :mod:`repro.engine.plan` — ``SweepPlan``/``PointSpec``: figure and
  grid requests flattened into content-hashed, self-seeded point specs
  whose results are independent of execution order, split into work
  units (one per point, or one per fused family);
- :mod:`repro.engine.store` — the content-addressed on-disk
  ``ResultStore`` (JSON/NPZ under ``reports/cache/``) that makes every
  sweep resumable;
- :mod:`repro.engine.sweep` — ``run_plan``, tying them together and
  placing the work units on a :mod:`repro.runtime` driver (process
  workers rebuild the session from its pickled recipe once and return
  spend records for exact ledger accounting).

Quickstart::

    from repro.api import ReleaseSession
    from repro.engine import ResultStore, figure_plan, run_plan

    session = ReleaseSession.from_synthetic(target_jobs=50_000, seed=1)
    plan = figure_plan("figure-1", session.config)
    outcome = run_plan(
        plan, session,
        executor="process", workers=4,
        store=ResultStore("reports/cache"), resume=True,
    )
    print(outcome.computed, "computed,", outcome.cache_hits, "from cache")
"""

from __future__ import annotations

from repro.engine.plan import (
    FIGURE_NAMES,
    PointSpec,
    SweepPlan,
    figure_plan,
    grid_plan,
    snapshot_fingerprint,
)
from repro.engine.points import (
    N_STRATA,
    FigureSeries,
    SeriesPoint,
    WorkloadStatistics,
    points_identical,
)
from repro.engine.store import DEFAULT_CACHE_DIR, ResultStore
from repro.engine.sweep import SweepOutcome, evaluate_point_spec, run_plan

__all__ = [
    "N_STRATA",
    "DEFAULT_CACHE_DIR",
    "FIGURE_NAMES",
    "FigureSeries",
    "PointSpec",
    "ResultStore",
    "SeriesPoint",
    "SweepOutcome",
    "SweepPlan",
    "WorkloadStatistics",
    "evaluate_point_spec",
    "figure_plan",
    "grid_plan",
    "points_identical",
    "run_plan",
    "snapshot_fingerprint",
]
