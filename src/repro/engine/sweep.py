"""Sweep orchestration: plans in, points out — parallel and resumable.

:func:`run_plan` is the engine's front door.  It splits a
:class:`~repro.engine.plan.SweepPlan` into work units
(:func:`~repro.engine.plan.work_units`: one per point, or one per fused
family of a mechanism's α×ε grid) — or takes the units its caller
built, as Table 3 does (one release request per row, or one two-metric
family per mechanism) — and runs them through one loop:

1. consult the :class:`~repro.engine.store.ResultStore` (when resuming)
   and keep every already-computed member — a resumed figure recomputes
   only what is missing, and a resumed family reduces only its missing
   members from the same unit draw;
2. with ``claim=True``, claim each pending unit on the store's
   :class:`~repro.runtime.ClaimBoard`, so concurrent drains of one plan
   partition it;
3. fan the pending units through a :mod:`repro.runtime` driver
   (serial by default; thread or process pools for parallel sweeps —
   process workers get the session as its pickled rebuild recipe) via
   the non-debiting
   :meth:`~repro.api.ReleaseSession.evaluate_point_outcome`,
   :meth:`~repro.api.ReleaseSession.evaluate_family_outcome` and
   :meth:`~repro.api.ReleaseSession.execute`, so workers never touch a
   ledger.  Each unit's kernel may use the cores
   the driver's concurrent units leave idle
   (:func:`~repro.runtime.kernel_threads` of the round's width): a
   serial drain ranks a Spearman family's members on every core, a
   pool that covers the machine keeps single-threaded kernels;
4. record each **computed** point's spend on the parent session's
   ledger and then persist the point to the store, walking plan order
   — accounting is exact and deterministic no matter which driver ran
   the points, and a raise-mode overdraft aborts before the offending
   point is ever cached.  Cache hits debit nothing: re-serving a stored
   release consumes no new privacy budget (the noise was drawn, and
   paid for, when the point was first computed and stored);
5. release the claims.
"""
from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial

from repro.api.ledger import LedgerEntry
from repro.core.params import EREEParams
from repro.engine import profile as stage_profile
from repro.engine.plan import (
    TRUNCATED_LAPLACE,
    PointSpec,
    SweepPlan,
    WorkUnit,
    work_units,
)
from repro.engine.points import FigureSeries, SeriesPoint
from repro.engine.store import ResultStore, content_key
from repro.runtime.drivers import resolve_driver
from repro.runtime.policy import kernel_threads

__all__ = [
    "SweepOutcome",
    "run_plan",
    "evaluate_point_spec",
    "evaluate_work_unit",
    "resolve_workload",
    "figure_series",
]


def resolve_workload(name: str):
    """Look a workload up by registry name (see ``WORKLOADS``)."""
    # Imported lazily: repro.experiments sits above the engine (its
    # package __init__ pulls in the session layer, which imports us).
    from repro.experiments.workloads import WORKLOADS

    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None


def evaluate_point_spec(session, spec: PointSpec):
    """Task function: one spec → ``(SeriesPoint, LedgerEntry | None)``.

    Module-level (hence picklable by reference) so every driver — in
    particular process pools — can run it.  The spend record is built
    but **not** debited; the parent merges it.
    """
    workload = resolve_workload(spec.workload)
    if spec.mechanism == TRUNCATED_LAPLACE:
        return session.evaluate_point_outcome(
            workload,
            spec.mechanism,
            metric=spec.metric,
            n_trials=spec.n_trials,
            seed=spec.seed,
            theta=spec.theta,
            epsilon=spec.epsilon,
        )
    params = EREEParams(spec.alpha, spec.epsilon, spec.delta)
    return session.evaluate_point_outcome(
        workload,
        spec.mechanism,
        params,
        metric=spec.metric,
        n_trials=spec.n_trials,
        seed=spec.seed,
    )


def evaluate_work_unit(session, unit: WorkUnit, *, threads: int = 1):
    """Task function: one work unit → aligned (points, spends) lists.

    Module-level (picklable by reference) like
    :func:`evaluate_point_spec`, which evaluates a point unit.  A family
    unit reduces the members its mask marks from one unit draw through
    :meth:`~repro.api.ReleaseSession.evaluate_family_outcome`, ranking
    Spearman members on ``threads`` threads; masked-out slots come back
    ``None``.  A request unit executes its release once and reads both
    of its points off the result.  Spends come back detached — the
    parent merges them — and ride on the points of the unit's first
    metric only: a second metric is post-processing of the same release.
    """
    request = unit.request
    if request is not None:
        result, spend = session.execute(request)
        points = [
            SeriesPoint(
                mechanism=request.mechanism,
                alpha=request.alpha,
                epsilon=request.epsilon,
                overall=overall,
                by_stratum=by_stratum,
            )
            for overall, by_stratum in (
                (result.l1_ratio(), result.l1_ratio_by_stratum()),
                (result.spearman(), result.spearman_by_stratum()),
            )
        ]
        return points, [spend, None]
    if unit.family is None:
        point, spend = evaluate_point_spec(session, unit.spec)
        return [point], [spend]
    family = unit.family
    # The kernel takes each distinct (α, ε) member and metric once; a
    # member is reduced when any of its points is pending.
    slot_of = {
        member: slot
        for slot, member in enumerate(dict.fromkeys(family.members))
    }
    slots = [slot_of[member] for member in family.members]
    evaluate = [False] * len(slot_of)
    for slot, todo in zip(slots, unit.mask):
        evaluate[slot] |= todo
    metrics = tuple(dict.fromkeys(family.metrics))
    values, spends = session.evaluate_family_outcome(
        resolve_workload(family.workload),
        family.mechanism,
        members=list(slot_of),
        delta=family.delta,
        metrics=metrics,
        n_trials=family.n_trials,
        seed=family.family_seed,
        evaluate=evaluate,
        threads=threads,
    )
    pairs = list(zip(family.metrics, slots))
    return (
        [values[metric][slot] for metric, slot in pairs],
        [spends[slot] if metric == metrics[0] else None for metric, slot in pairs],
    )


def _profiled_task(fn, session, item):
    """Run one driver task under its own profiler scope.

    Process-pool workers cannot see the parent's module-global profiler,
    so a profiled sweep ships each task wrapped in this: the worker
    captures its own draw/reduce split and returns it (tagged with the
    worker PID) alongside the outcome for the parent to merge.
    """
    with stage_profile.profiled() as prof:
        result = fn(session, item)
    return result, (os.getpid(), prof.as_dict())


def _executor_map(driver, fn, session, items):
    """``driver.map`` that keeps stage attribution across process pools.

    Serial and thread drivers run tasks in this process, where the
    active profiler already sees the kernels, so they map straight
    through (the per-task wrapper would also race on the module global
    under threads).  A process pool under an active profiler gets the
    wrapped task; the returned per-task profiles fold into the parent's
    stage totals and per-worker breakdown.
    """
    if not (
        stage_profile.active()
        and driver.name == "process"
        and driver.workers > 1
    ):
        return driver.map(fn, session, items)
    outcomes = driver.map(partial(_profiled_task, fn), session, items)
    results = []
    for result, (pid, worker_profile) in outcomes:
        stage_profile.merge_worker(pid, worker_profile)
        results.append(result)
    return results


# -- store (de)serialization ----------------------------------------------


def encode_point(point: SeriesPoint) -> dict:
    payload = asdict(point)
    payload["by_stratum"] = list(point.by_stratum)
    return payload


def decode_point(payload: dict) -> SeriesPoint:
    return SeriesPoint(
        mechanism=payload["mechanism"],
        alpha=payload["alpha"],
        epsilon=payload["epsilon"],
        overall=payload["overall"],
        by_stratum=tuple(payload["by_stratum"]),
        feasible=payload.get("feasible", True),
        theta=payload.get("theta"),
    )


def encode_spend(spend: LedgerEntry | None) -> dict | None:
    # One canonical spend wire format: the ledger's own JSON hooks
    # (shared with the release service's durable spend journal).
    return None if spend is None else spend.to_dict()


def decode_spend(payload: dict | None) -> LedgerEntry | None:
    return None if payload is None else LedgerEntry.from_dict(payload)


# -- orchestration --------------------------------------------------------


@dataclass
class SweepOutcome:
    """One executed (or resumed) sweep plan.

    ``points`` is in plan order regardless of execution order or cache
    mixture; ``spends`` holds the ledger entries of the points computed
    *this run* (cache hits spend nothing), also in plan order.
    """

    plan: SweepPlan
    points: list[SeriesPoint]
    computed: int = 0
    cache_hits: int = 0
    spends: list[LedgerEntry] = field(default_factory=list)
    # Per-stage wall-clock breakdown (draw/reduce/store/other/total
    # seconds) when the run was profiled; None otherwise.
    profile: dict | None = None

    @property
    def series(self) -> FigureSeries:
        """The outcome as a renderable figure series."""
        return figure_series(self.plan, self.points)


def figure_series(plan: SweepPlan, points) -> FigureSeries:
    return FigureSeries(
        name=plan.name,
        title=plan.title or plan.name,
        metric=plan.metric,
        points=tuple(points),
    )


def _normalize_fused(fused) -> bool:
    """Whether the ``fused`` knob asks for family evaluation.

    ``False``/``None`` → per-point; ``True``/``"family"`` → one unit
    draw per :class:`~repro.engine.plan.FusedFamily`.
    """
    if fused is None or fused is False:
        return False
    if fused is True or fused == "family":
        return True
    raise ValueError(f"fused must be False, True or 'family', got {fused!r}")


def run_plan(
    plan: SweepPlan,
    session,
    *,
    executor=None,
    workers: int | None = None,
    store: ResultStore | None = None,
    resume: bool = False,
    merge_spend: bool = True,
    fused: bool | str = False,
    profile: bool = False,
    claim: bool = False,
    claim_owner: str | None = None,
    claim_ttl_s: float | None = None,
    claim_poll_s: float = 0.2,
    units: list[WorkUnit] | None = None,
) -> SweepOutcome:
    """Execute a sweep plan: resume from the store, fan out the rest.

    ``executor``/``workers`` resolve through
    :func:`~repro.runtime.resolve_driver` (a driver instance, a name
    from ``serial``/``thread``/``process``, or a worker count; serial
    when neither is given).  With a ``store``, newly computed points are
    always persisted; they are *read back* only when ``resume=True``, so
    a default run stays a full recomputation while writing the cache a
    later ``--resume`` run will hit.  ``merge_spend=False`` skips the
    ledger merge for callers doing their own accounting.

    ``fused=True`` (or ``"family"``) evaluates the plan through
    :class:`~repro.engine.plan.FusedFamily` work units — one unit-noise
    draw per mechanism's whole α×ε grid instead of one per point, with
    linear mechanisms reducing the entire family analytically.  Family
    values are statistically, not bit, identical to the default path
    and store under their own ``family``-token member keys, so the two
    paths never serve each other's cached points; points no family can
    take (truncated-laplace) evaluate per point under their plain keys.
    The default ``fused=False`` path is bit-identical to what it always
    produced.  ``units`` replaces :func:`~repro.engine.plan.work_units`
    with the caller's own split of the plan (Table 3's request units and
    two-metric families); ``fused`` is then ignored.

    ``claim=True`` turns the drain cooperative: before computing a
    missing work unit this run *claims* it on the store's
    :class:`~repro.runtime.ClaimBoard` (an atomic lease file beside the
    payloads, keyed by the unit's first member), so N concurrent drains
    of the same plan against one shared store partition the grid
    instead of each computing all of it.  Units another drain claimed
    are deferred: this run polls the store (every ``claim_poll_s``
    seconds) and adopts their results as cache hits when they land; a
    claim whose owner crashed expires after ``claim_ttl_s`` (default
    :data:`~repro.runtime.DEFAULT_LEASE_TTL_S`) and is taken over.
    Claims are an optimization, never a correctness mechanism — if two
    drains ever compute the same point (expiry race, unreachable
    backend failing open) both write bit-identical bytes and last
    writer wins, exactly the claimless behavior.  Requires a ``store``
    and implies ``resume`` (a cooperative drain must honor what the
    shared store already holds); the values are bit-identical to a
    claimless run of the same plan, fused or not.

    ``profile=True`` wraps the run in the stage profiler
    (:mod:`repro.engine.profile`); the outcome's ``profile`` field then
    carries the draw/reduce/store wall-clock breakdown — including, for
    process-pool runs, the per-worker stage split shipped back with each
    task.
    """
    fused = _normalize_fused(fused)
    board = None
    if claim:
        if store is None:
            raise ValueError("claim=True requires a result store")
        board = store.claim_board(owner=claim_owner, ttl_s=claim_ttl_s)
        resume = True  # a cooperative drain must honor the shared store
    drain = partial(
        _drain,
        plan,
        session,
        work_units(plan, fused) if units is None else units,
        driver=resolve_driver(executor, workers),
        store=store,
        resume=resume,
        merge_spend=merge_spend,
        board=board,
        poll_s=claim_poll_s or 0.2,
    )
    if not profile:
        return drain()
    with stage_profile.profiled() as prof:
        outcome = drain()
    outcome.profile = prof.as_dict()
    return outcome


def _store_point(store, content: dict, point, spend) -> None:
    with stage_profile.stage("store"):
        store.put(
            content_key(content),
            {
                "spec": content,
                "point": encode_point(point),
                "spend": encode_spend(spend),
            },
        )


def _drain(
    plan: SweepPlan,
    session,
    pending: list[WorkUnit],
    *,
    driver,
    store: ResultStore | None,
    resume: bool,
    merge_spend: bool,
    board,
    poll_s: float,
) -> SweepOutcome:
    """The one loop behind :func:`run_plan`, over the plan's work units.

    1. Resume: with ``resume``, one store ``get`` per member; stored
       members take their cached values (and debit nothing), and a unit
       narrows its mask to the members still missing.
    2. Claim (with a ``board``): each round claims every unowned pending
       unit and defers the rest.
    3. Compute the round's units through the driver.
    4. Publish every computed member in plan order: record its spend on
       the ledger, *then* persist it — a raise-mode overdraft therefore
       aborts with every stored point paid for, and nothing a later
       resume would replay free of charge was ever cached.
    5. Release the round's claims, only after their members persisted,
       so no member is ever neither claimed nor stored.

    Without a board the loop runs one round.  With one, a drain
    publishes each round before waiting on anyone else's units — two
    drains holding disjoint claims would otherwise wait on each other
    forever; a round that claims nothing sleeps ``poll_s`` and rescans,
    and a crashed owner's lease expires and is taken over, so every
    stall is bounded.
    """
    points: list[SeriesPoint | None] = [None] * len(plan.points)
    spends: dict[int, LedgerEntry] = {}
    computed = 0

    def restore(unit: WorkUnit, probe: bool = False) -> WorkUnit | None:
        """Place ``unit``'s stored members; the unit narrowed to the rest.

        ``None`` when no member is missing.  ``probe`` checks
        ``contains`` before each ``get``: a polling drain would
        otherwise count a miss against the store every round.
        """
        mask = list(unit.mask)
        for position, index in enumerate(unit.indices):
            if not mask[position]:
                continue
            key = unit.member_key(plan, index)
            if probe and not store.contains(key):
                continue
            payload = store.get(key)
            if payload is not None and "point" in payload:
                points[index] = decode_point(payload["point"])
                mask[position] = False
        return replace(unit, mask=tuple(mask)) if any(mask) else None

    def lease_key(unit: WorkUnit) -> str:
        return unit.member_key(plan, unit.indices[0])

    if store is not None and resume:
        pending = [unit for unit in map(restore, pending) if unit is not None]
    try:
        while pending:
            if board is None:
                batch, pending = pending, []
            else:
                # Adopt what other drains published, then claim.  After
                # *winning* a lease, re-check the store: the previous
                # holder may have published and released in between.
                # Holding the lease freezes the entry (publishers store
                # *before* releasing), so the re-check is race-free —
                # this is what makes concurrent drains compute each
                # member exactly once.
                batch, waiting = [], []
                for unit in pending:
                    unit = restore(unit, probe=True)
                    if unit is None:
                        continue
                    lease = lease_key(unit)
                    if not board.try_claim(lease):
                        waiting.append(unit)
                        continue
                    unit = restore(unit, probe=True)
                    if unit is None:
                        board.release(lease)
                        continue
                    batch.append(unit)
                pending = waiting
                if not batch:
                    if pending:
                        time.sleep(poll_s)
                    continue
            # The cores the driver's concurrent tasks leave idle go to
            # each task's kernel: all of them under a serial drain.
            task = partial(
                evaluate_work_unit,
                threads=kernel_threads(min(driver.workers, len(batch))),
            )
            outcomes = _executor_map(driver, task, session, batch)
            members = sorted(
                (
                    (index, unit, point, spend)
                    for unit, (unit_points, unit_spends) in zip(batch, outcomes)
                    for index, todo, point, spend in zip(
                        unit.indices, unit.mask, unit_points, unit_spends
                    )
                    if todo
                ),
                key=lambda member: member[0],
            )
            for index, unit, point, spend in members:
                points[index] = point
                if spend is not None:
                    spends[index] = spend
                    if merge_spend:
                        session.ledger.record(spend)
                if store is not None:
                    _store_point(
                        store, unit.member_content(plan, index), point, spend
                    )
            computed += len(members)
            if board is not None:
                for unit in batch:
                    board.release(lease_key(unit))
    finally:
        if board is not None:
            board.release_all()
    return SweepOutcome(
        plan=plan,
        points=points,
        computed=computed,
        cache_hits=len(points) - computed,
        spends=[spends[index] for index in sorted(spends)],
    )
