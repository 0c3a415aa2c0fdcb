"""Tables 1 and 2 of the paper, plus the session accuracy summary.

Table 1 is the qualitative definitions × requirements matrix (encoded in
:mod:`repro.core.definitions`).  Table 2 gives, per (α, δ), the minimum ε
that makes the Smooth Laplace algorithm feasible; we compute it from the
Algorithm 3 constraint and also report the paper's published values for
comparison (the published δ = .05 column is internally consistent with
δ ≈ .005; see EXPERIMENTS.md).

Table 3 is not in the paper: it is an empirical per-mechanism accuracy
summary of the Workload-1 marginal on one snapshot, produced through the
:class:`repro.api.ReleaseSession` facade (one shared snapshot, the
batched trial engine, and ledger accounting) so the ``tables`` CLI
exercises the same path as ``figures``.  With ``--fused`` its rows come
from one unit-noise family draw per mechanism, both metrics from the
same draw, like a fused figure sweep.
"""

from __future__ import annotations

from dataclasses import replace

from repro.api.request import ReleaseRequest
from repro.api.session import ReleaseSession
from repro.core.definitions import table1_rows
from repro.core.params import min_epsilon
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


def _table3_row_key(
    fingerprint: str, request: ReleaseRequest, family: dict | None = None
) -> str:
    """Content-address of one Table-3 row for the result store.

    ``family`` carries the fused-evaluation token (family seed + the
    family's (α, ε) members): fused rows come from a different noise
    stream than per-request rows, so their cache keys must never
    collide.
    """
    from repro.engine.store import content_key

    payload = {
        "kind": "table3-row",
        "fingerprint": fingerprint,
        "attrs": list(request.attrs),
        "mechanism": request.mechanism,
        "alpha": request.alpha,
        "epsilon": request.epsilon,
        "delta": request.delta,
        "budget_style": request.budget_style,
        "n_trials": request.n_trials,
        "seed": request.seed,
    }
    if family is not None:
        payload["family"] = family
    return content_key(payload)


def _table3_rows_fused(
    session: ReleaseSession,
    requests,
    rows: list,
    fingerprint: str,
    delta: float,
    n_trials: int,
    store,
    resume: bool,
) -> list[dict]:
    """Fill the pending Table-3 rows family-at-a-time with shared draws.

    One mechanism's feasible rows share one unit-noise draw serving
    *both* metrics of every (α, ε) row (L1 ratio and Spearman reduce
    from the same noisy matrices), debiting once per feasible row — the
    same spend, under the same label, the per-request path debits.
    Resume is member-precise: cached rows keep their stored values and
    debit nothing, and only the missing rows reduce from the draw.
    """
    families: dict[str, list[int]] = {}
    for index, request in enumerate(requests):
        if rows[index] is None:  # prefiltered infeasible rows need no draw
            families.setdefault(request.mechanism, []).append(index)

    for mechanism, indices in families.items():
        members = [(requests[i].alpha, requests[i].epsilon) for i in indices]
        family_seed = derive_seed(
            session.config.seed, f"table3-family:{mechanism}"
        )
        token = {
            "family_seed": family_seed,
            "members": [list(member) for member in members],
        }
        keys = [
            _table3_row_key(fingerprint, requests[i], family=token)
            for i in indices
        ]
        evaluate = [True] * len(indices)
        if store is not None and resume:
            for pos, (i, key) in enumerate(zip(indices, keys)):
                payload = store.get(key)
                if payload is not None and "row" in payload:
                    rows[i] = payload["row"]
                    evaluate[pos] = False
        if not any(evaluate):
            continue
        values, spends = session.evaluate_family_outcome(
            WORKLOAD_1,
            mechanism,
            members=members,
            delta=delta,
            metrics=("l1-ratio", "spearman"),
            n_trials=n_trials,
            seed=family_seed,
            evaluate=evaluate,
        )
        for pos, (i, key) in enumerate(zip(indices, keys)):
            if not evaluate[pos]:
                continue
            l1_point = values["l1-ratio"][pos]
            row = {
                "mechanism": mechanism,
                "alpha": requests[i].alpha,
                "epsilon": requests[i].epsilon,
                "feasible": l1_point.feasible,
                "l1_ratio": l1_point.overall,
                "spearman": values["spearman"][pos].overall,
            }
            rows[i] = row
            if spends[pos] is not None:
                session.ledger.record(
                    replace(spends[pos], label=requests[i].ledger_label)
                )
            if store is not None:
                store.put(key, {"row": row})
    return rows


def table3_rows(
    session: ReleaseSession,
    alphas=(TABLE3_ALPHA,),
    epsilons=TABLE3_EPSILONS,
    delta: float = TABLE3_DELTA,
    n_trials: int | None = None,
    *,
    executor=None,
    workers: int | None = None,
    store=None,
    resume: bool = False,
    fused: bool | str = False,
) -> list[dict]:
    """Empirical accuracy rows from one shared release session.

    Every (mechanism, α, ε) point of the grid runs as a declarative
    :class:`~repro.api.request.ReleaseRequest` against the *same* cached
    snapshot (the marginal's true counts, mask and xv are computed once
    for the whole table); infeasible points are reported, not skipped.

    The feasible requests submit to :meth:`ReleaseSession.run_grid`, so
    ``executor``/``workers`` parallelize the grid with exact ledger
    accounting; with a ``store`` each computed row is cached under a
    content hash and ``resume=True`` replays completed rows without
    touching the data (cache hits debit nothing).

    ``fused=True`` (or ``"family"``, as for the sweep engine) evaluates
    each mechanism's (α, ε) rows from one shared unit-noise draw (both
    metrics from the same matrices) instead of one release per row —
    statistically equivalent, different RNG streams, distinct cache
    keys; the default path is unchanged.
    """
    from repro.engine.evaluate import mechanism_is_feasible
    from repro.engine.sweep import _normalize_fused
    from repro.experiments.config import MECHANISM_NAMES

    fused = _normalize_fused(fused)
    if n_trials is None:
        n_trials = session.config.n_trials

    requests = ReleaseRequest.grid(
        WORKLOAD_1.attrs,
        MECHANISM_NAMES,
        alphas,
        epsilons,
        delta=delta,
        n_trials=n_trials,
        seed=session.config.seed,
        tag="table3",
    )
    fingerprint = session.snapshot_fingerprint
    stats = session.statistics(WORKLOAD_1)
    rows: list[dict | None] = [None] * len(requests)
    pending: list[int] = []
    for index, request in enumerate(requests):
        per_cell = stats.per_cell_params_of(request.params)
        if not mechanism_is_feasible(request.mechanism, per_cell):
            rows[index] = {
                "mechanism": request.mechanism,
                "alpha": request.alpha,
                "epsilon": request.epsilon,
                "feasible": False,
                "l1_ratio": float("nan"),
                "spearman": float("nan"),
            }
            continue
        if fused:
            continue  # the family path resumes per member key
        if store is not None and resume:
            payload = store.get(_table3_row_key(fingerprint, request))
            if payload is not None and "row" in payload:
                rows[index] = payload["row"]
                continue
        pending.append(index)

    if fused:
        return _table3_rows_fused(
            session,
            requests,
            rows,
            fingerprint,
            delta,
            n_trials,
            store,
            resume,
        )

    results = session.run_grid(
        [requests[index] for index in pending],
        executor=executor,
        workers=workers,
    )
    for index, result in zip(pending, results):
        request = requests[index]
        row = {
            "mechanism": request.mechanism,
            "alpha": request.alpha,
            "epsilon": request.epsilon,
            "feasible": True,
            "l1_ratio": result.l1_ratio(),
            "spearman": result.spearman(),
        }
        rows[index] = row
        if store is not None:
            store.put(_table3_row_key(fingerprint, request), {"row": row})
    return rows


def table3_text(
    session: ReleaseSession,
    n_trials: int | None = None,
    *,
    executor=None,
    workers: int | None = None,
    store=None,
    resume: bool = False,
    fused: bool | str = False,
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
        for row in table3_rows(
            session,
            n_trials=n_trials,
            executor=executor,
            workers=workers,
            store=store,
            resume=resume,
            fused=fused,
        )
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
