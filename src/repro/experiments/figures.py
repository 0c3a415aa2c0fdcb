"""One generator per published figure (the data series behind each plot).

Each function builds the paper's (mechanism × α × ε) grid as a
:class:`~repro.engine.plan.SweepPlan` and submits it to the sweep engine
(:func:`repro.engine.sweep.run_plan`), which evaluates the points
through :meth:`repro.api.ReleaseSession.evaluate_point_outcome` over the
session's cached trial-invariant statistics.  The engine adds three
things the old per-point loop could not do:

- **parallelism** — pass ``executor=``/``workers=`` to fan the grid over
  a thread or process pool; every point carries its own derived seed, so
  the series is bit-identical to the serial run;
- **resumability** — pass ``store=`` (a
  :class:`~repro.engine.store.ResultStore`) to persist each point under
  its content hash; with ``resume=True`` a re-run recomputes only
  missing points;
- **exact accounting** — the spend records of all computed feasible
  points merge into the session's privacy ledger in plan order (the
  figure's total draw-down equals the Sec-4 composition cost of its
  grid, as before); cached points debit nothing;
- **fusion** — pass ``fused=True`` (or ``"family"``) to draw one unit
  noise matrix per mechanism family through
  :meth:`repro.api.ReleaseSession.evaluate_family_outcome` instead of
  one per point: statistically equivalent values, a different RNG
  stream, and family member keys in the store.
"""

from __future__ import annotations

from repro.api.session import ReleaseSession
from repro.engine.plan import figure_plan
from repro.engine.points import FigureSeries
from repro.engine.sweep import run_plan
from repro.experiments.config import ExperimentConfig

__all__ = [
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "finding6",
    "run_figure",
]


def run_figure(
    session: ReleaseSession,
    name: str,
    config: ExperimentConfig | None = None,
    *,
    metric: str | None = None,
    executor=None,
    workers: int | None = None,
    store=None,
    resume: bool = False,
    fused: bool | str = False,
    claim: bool = False,
    claim_ttl_s: float | None = None,
) -> FigureSeries:
    """Plan and execute one figure's sweep through the engine.

    ``config`` overrides the grids/trial count (defaults to the
    session's); the snapshot fingerprint and seed base always come from
    the *session*, whose data the points are actually computed on.
    ``fused=True`` (or ``"family"``) shares one unit-noise draw per
    mechanism's whole α×ε grid (statistically equivalent, different RNG
    streams, distinct result keys); the default reproduces the
    historical figures bit-for-bit.  ``claim=True`` drains the figure
    cooperatively with other processes sharing ``store``, on either
    path.
    """
    config = config or session.config
    plan = figure_plan(
        name,
        config,
        fingerprint=session.snapshot_fingerprint,
        seed=session.config.seed,
        metric=metric,
    )
    outcome = run_plan(
        plan,
        session,
        executor=executor,
        workers=workers,
        store=store,
        resume=resume,
        fused=fused,
        claim=claim,
        claim_ttl_s=claim_ttl_s,
    )
    return outcome.series


def figure1(
    session: ReleaseSession,
    config: ExperimentConfig | None = None,
    **engine_options,
) -> FigureSeries:
    """Figure 1: L1 error ratio, Workload 1 (establishment attrs only)."""
    return run_figure(session, "figure-1", config, **engine_options)


def figure2(
    session: ReleaseSession,
    config: ExperimentConfig | None = None,
    **engine_options,
) -> FigureSeries:
    """Figure 2: Spearman correlation, Ranking 1 (employment counts)."""
    return run_figure(session, "figure-2", config, **engine_options)


def figure3(
    session: ReleaseSession,
    config: ExperimentConfig | None = None,
    **engine_options,
) -> FigureSeries:
    """Figure 3: L1 ratio for single (sex x education) queries (Workload 2)."""
    return run_figure(session, "figure-3", config, **engine_options)


def figure4(
    session: ReleaseSession,
    config: ExperimentConfig | None = None,
    **engine_options,
) -> FigureSeries:
    """Figure 4: L1 ratio for the full worker-attribute marginal (Workload 3)."""
    return run_figure(session, "figure-4", config, **engine_options)


def figure5(
    session: ReleaseSession,
    config: ExperimentConfig | None = None,
    **engine_options,
) -> FigureSeries:
    """Figure 5: Spearman correlation, Ranking 2 (females with college)."""
    return run_figure(session, "figure-5", config, **engine_options)


def finding6(
    session: ReleaseSession,
    config: ExperimentConfig | None = None,
    metric: str = "l1-ratio",
    **engine_options,
) -> FigureSeries:
    """Finding 6: node-DP Truncated Laplace across θ and ε on Workload 1."""
    return run_figure(session, "finding-6", config, metric=metric, **engine_options)
