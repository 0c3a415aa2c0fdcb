"""Tables 1 and 2 of the paper, plus the session accuracy summary.

Table 1 is the qualitative definitions × requirements matrix (encoded in
:mod:`repro.core.definitions`).  Table 2 gives, per (α, δ), the minimum ε
that makes the Smooth Laplace algorithm feasible; we compute it from the
Algorithm 3 constraint and also report the paper's published values for
comparison (the published δ = .05 column is internally consistent with
δ ≈ .005; see EXPERIMENTS.md).

Table 3 is not in the paper: it is an empirical per-mechanism accuracy
summary of the Workload-1 marginal on one snapshot.  It is a
:class:`~repro.engine.plan.SweepPlan` of two points per feasible row —
the row's L1 ratio, then its Spearman ρ — drained by
:func:`repro.engine.sweep.run_plan` like every figure, so it shares the
engine's drivers, result store, member-precise resume, claims and
ledger accounting.  By default each row is one request work unit: a
:class:`~repro.api.request.ReleaseRequest` executed through
:meth:`repro.api.ReleaseSession.execute`, both metrics read off the
release.  With ``--fused`` each mechanism is one two-metric family:
one unit-noise draw serves both metrics of all its rows, like a fused
figure sweep.
"""

from __future__ import annotations

from dataclasses import replace

from repro.api.request import ReleaseRequest
from repro.api.session import ReleaseSession
from repro.core.definitions import table1_rows
from repro.core.params import EREEParams, min_epsilon
from repro.engine.evaluate import mechanism_is_feasible
from repro.engine.plan import FusedFamily, SweepPlan, WorkUnit, grid_specs
from repro.engine.sweep import _normalize_fused, run_plan
from repro.experiments.config import MECHANISM_NAMES
from repro.experiments.workloads import WORKLOAD_1
from repro.util import derive_seed, format_table

# The paper's published Table 2 entries: (delta, alpha) -> epsilon.
PAPER_TABLE2: dict[tuple[float, float], float] = {
    (0.05, 0.01): 0.105,
    (0.05, 0.10): 1.01,
    (0.05, 0.20): 1.932,
    (5e-4, 0.01): 0.15,
    (5e-4, 0.10): 1.45,
    (5e-4, 0.20): 2.13,
}

TABLE2_ALPHAS: tuple[float, ...] = (0.01, 0.10, 0.20)
TABLE2_DELTAS: tuple[float, ...] = (0.05, 5e-4)


def table1_text() -> str:
    """Table 1 rendered as text."""
    return format_table(
        headers=["Definition", "Individuals", "Emp. Size", "Emp. Shape"],
        rows=table1_rows(),
        title="Table 1: privacy definitions and requirements they satisfy "
        "(Yes* = under weak adversaries)",
    )


def table2_rows(
    alphas=TABLE2_ALPHAS, deltas=TABLE2_DELTAS
) -> list[dict[str, float | None]]:
    """Minimum-ε rows: ours from the Algorithm 3 constraint, plus paper's."""
    rows = []
    for delta in deltas:
        for alpha in alphas:
            rows.append(
                {
                    "delta": delta,
                    "alpha": alpha,
                    "min_epsilon": min_epsilon(alpha, delta),
                    "paper_epsilon": PAPER_TABLE2.get((delta, alpha)),
                }
            )
    return rows


def table2_text() -> str:
    """Table 2 rendered as text with the paper's values alongside."""
    rows = [
        [
            row["delta"],
            row["alpha"],
            row["min_epsilon"],
            row["paper_epsilon"] if row["paper_epsilon"] is not None else "-",
        ]
        for row in table2_rows()
    ]
    return format_table(
        headers=["delta", "alpha", "min eps (ours)", "min eps (paper)"],
        rows=rows,
        title="Table 2: minimum epsilon given alpha and delta "
        "(Smooth Laplace feasibility)",
    )


TABLE3_ALPHA: float = 0.1
TABLE3_EPSILONS: tuple[float, ...] = (1.0, 2.0, 4.0)
TABLE3_DELTA: float = 0.05


def _request_units(plan: SweepPlan) -> list[WorkUnit]:
    """One release request per row: its (L1, Spearman) point pair.

    The request's seed is the row's point seed — the one
    :meth:`ReleaseRequest.grid` derives for tag ``table3`` — and its
    ledger label is the point label the family path's spends carry.
    """
    units = []
    for index in range(0, len(plan.points), 2):
        spec = plan.points[index]
        request = ReleaseRequest(
            attrs=WORKLOAD_1.attrs,
            mechanism=spec.mechanism,
            alpha=spec.alpha,
            epsilon=spec.epsilon,
            delta=spec.delta,
            n_trials=spec.n_trials,
            seed=spec.seed,
            label=spec.label,
        )
        units.append(WorkUnit((index, index + 1), (True, True), request=request))
    return units


def _family_units(plan: SweepPlan, seed: int) -> list[WorkUnit]:
    """One two-metric family per mechanism, seeded per mechanism."""
    indices: dict[str, list[int]] = {}
    for index, spec in enumerate(plan.points):
        indices.setdefault(spec.mechanism, []).append(index)
    units = []
    for mechanism, positions in indices.items():
        specs = [plan.points[index] for index in positions]
        family = FusedFamily(
            workload=WORKLOAD_1.name,
            mechanism=mechanism,
            metrics=tuple(spec.metric for spec in specs),
            delta=specs[0].delta,
            n_trials=specs[0].n_trials,
            indices=tuple(positions),
            alphas=tuple(spec.alpha for spec in specs),
            epsilons=tuple(spec.epsilon for spec in specs),
            family_seed=derive_seed(seed, f"table3-family:{mechanism}"),
        )
        units.append(
            WorkUnit(family.indices, (True,) * len(positions), family=family)
        )
    return units


def table3_rows(
    session: ReleaseSession,
    alphas=(TABLE3_ALPHA,),
    epsilons=TABLE3_EPSILONS,
    delta: float = TABLE3_DELTA,
    n_trials: int | None = None,
    *,
    fused: bool | str = False,
    **engine_options,
) -> list[dict]:
    """Empirical accuracy rows from one shared release session.

    Every (mechanism, α, ε) row of the grid evaluates against the
    *same* cached snapshot (the marginal's true counts, mask and xv are
    computed once for the whole table); infeasible rows are reported
    with NaN metrics, not skipped, and never reach the engine.

    The feasible rows drain through :func:`~repro.engine.sweep.run_plan`
    as two points each, so ``engine_options`` are its knobs:
    ``executor``/``workers`` parallelize the rows, ``store`` caches each
    point under its content hash, ``resume=True`` replays stored points
    (cache hits debit nothing), and ``claim``/``claim_ttl_s`` split the
    table between concurrent drains.  A row debits its release once,
    with its L1 point.

    ``fused=True`` (or ``"family"``, as for the sweep engine) evaluates
    each mechanism's rows from one shared unit-noise draw (both metrics
    from the same matrices) instead of one release per row —
    statistically equivalent, different RNG streams, distinct cache
    keys; the default path is unchanged.
    """
    if n_trials is None:
        n_trials = session.config.n_trials
    stats = session.statistics(WORKLOAD_1)
    rows, specs = [], []
    for spec in grid_specs(
        WORKLOAD_1.name,
        "l1-ratio",
        MECHANISM_NAMES,
        alphas,
        epsilons,
        delta=delta,
        n_trials=n_trials,
        seed=session.config.seed,
        tag="table3",
    ):
        params = EREEParams(spec.alpha, spec.epsilon, delta)
        feasible = mechanism_is_feasible(
            spec.mechanism, stats.per_cell_params_of(params)
        )
        rows.append(
            {
                "mechanism": spec.mechanism,
                "alpha": spec.alpha,
                "epsilon": spec.epsilon,
                "feasible": feasible,
                "l1_ratio": float("nan"),
                "spearman": float("nan"),
            }
        )
        if feasible:
            specs += [spec, replace(spec, metric="spearman")]

    plan = SweepPlan(
        name="table-3",
        metric="l1-ratio",
        fingerprint=session.snapshot_fingerprint,
        points=tuple(specs),
    )
    units = (
        _family_units(plan, session.config.seed)
        if _normalize_fused(fused)
        else _request_units(plan)
    )
    points = iter(run_plan(plan, session, units=units, **engine_options).points)
    for row in rows:
        if row["feasible"]:
            l1, rho = next(points), next(points)
            row.update(
                feasible=l1.feasible, l1_ratio=l1.overall, spearman=rho.overall
            )
    return rows


def table3_text(
    session: ReleaseSession, n_trials: int | None = None, **engine_options
) -> str:
    """The session accuracy summary rendered as text."""
    rows = [
        [
            row["mechanism"],
            row["alpha"],
            row["epsilon"],
            "yes" if row["feasible"] else "no",
            row["l1_ratio"],
            row["spearman"],
        ]
        for row in table3_rows(session, n_trials=n_trials, **engine_options)
    ]
    summary = session.dataset.summary()
    return format_table(
        headers=[
            "mechanism",
            "alpha",
            "eps",
            "feasible",
            "L1 ratio vs SDL",
            "Spearman vs SDL",
        ],
        rows=rows,
        title=(
            "Table 3 (companion): Workload-1 accuracy by mechanism on a "
            f"{int(summary['n_jobs'])}-job synthetic snapshot "
            f"({session.config.n_trials if n_trials is None else n_trials} trials)"
        ),
    )
