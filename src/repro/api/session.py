"""The release session: the library's single front door.

A :class:`ReleaseSession` owns one dataset snapshot, the fitted SDL
baseline system, and caches of every trial-invariant statistic, so any
number of release requests and figure evaluations against the same
snapshot reuse the expensive work, and only the noise is redrawn.
There are three caches, and every path reads them:

- one release prologue per (marginal, mode, population filters) — the
  true counts, release mask and xv of
  :func:`~repro.core.release.compute_release_statistics`;
- one SDL baseline per (marginal, filters) — the SDL answer and the
  place strata;
- one SDL evaluation record per (marginal, filters, evaluation mask) —
  the :class:`~repro.engine.points.EvaluationBaseline` behind every
  Sec-10 metric.

:meth:`ReleaseSession.statistics` composes a workload's figure-point
statistics from them, and a release of the same marginal reads the
same entries: a Workload-1 release and the Workload-1 figure points
hold one prologue and one record.

Three execution surfaces:

- :meth:`ReleaseSession.run` executes one declarative
  :class:`~repro.api.request.ReleaseRequest` and returns a
  :class:`~repro.api.result.ReleaseResult`; the noise stream is
  bit-for-bit identical to the historical
  :func:`repro.core.release.release_marginal` for the same seed (pinned
  by the equivalence tests).
- :meth:`ReleaseSession.run_grid` runs a list of requests — typically a
  (mechanism × α × ε) product from :meth:`ReleaseRequest.grid` — one
  after another through the batched trial engine.
- :meth:`ReleaseSession.evaluate_point` computes one figure point
  (L1-error ratio or Spearman correlation, overall + per stratum)
  through the streaming reducers of :mod:`repro.engine.evaluate`.

Every execution debits the session's :class:`~repro.api.ledger.PrivacyLedger`
with the Sec-4 composition total of its release (infeasible grid points
release nothing and debit nothing).  The non-debiting variants
(:meth:`ReleaseSession.execute`,
:meth:`ReleaseSession.evaluate_point_outcome` and
:meth:`ReleaseSession.evaluate_family_outcome`) return the spend as a
detached :class:`~repro.api.ledger.LedgerEntry` — they are what the
sweep engine's work units run, in worker processes or not, and the
engine merges the records into the parent ledger afterwards so
accounting stays exact under parallelism.  Parallel request grids go
through the engine too: Table 3 drains its releases as request work
units (:func:`repro.experiments.tables.table3_rows`).

A session crosses a process boundary as its own rebuild recipe
(:meth:`ReleaseSession.__reduce__`): workers rebuild it from its config
and snapshot-store spec once per process, without a budget, so they
never debit.  The session's statistic caches are lock-guarded, so
threads sharing one session (e.g. under a
:class:`~repro.runtime.ThreadDriver`) compute each trial-invariant
statistic exactly once.
"""

from __future__ import annotations

import threading
from collections.abc import Collection, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.api.ledger import LedgerEntry, PrivacyLedger
from repro.api.registry import BASELINE, COMPOSITE
from repro.api.request import ReleaseRequest
from repro.api.result import ReleaseResult
from repro.core.composition import STRONG, WEAK, marginal_budget
from repro.core.params import EREEParams
from repro.core.release import (
    DEFAULT_WORKER_ATTRS,
    ReleaseStatistics,
    compute_release_statistics,
    release_from_statistics,
    resolve_mode,
)
from repro.data.generator import generate
from repro.db.join import WorkerFull
from repro.db.query import Marginal
from repro.engine import evaluate as point_kernels
from repro.engine.points import (
    N_STRATA,
    EvaluationBaseline,
    SeriesPoint,
    WorkloadStatistics,
)
from repro.metrics.strata import cell_strata
from repro.sdl.noise_infusion import InputNoiseInfusion
from repro.util import derive_seed

if TYPE_CHECKING:  # annotation-only: repro.experiments sits above this
    # module (its figure and table functions import the session), so
    # importing it at runtime would cycle.
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.workloads import Workload

__all__ = [
    "N_STRATA",
    "ReleaseSession",
    "WorkloadStatistics",
]


class ReleaseSession:
    """One snapshot, one SDL baseline, one ledger — many releases.

    ``config`` seeds the synthetic snapshot and the SDL fit (derived
    seeds, so figures regenerated through any session over the same
    config are bit-identical).  Pass ``dataset`` to wrap an existing
    snapshot instead of generating one.

    ``budget``/``delta_budget`` arm the privacy ledger: every executed
    request debits its composed (ε, δ) total, and ``on_overdraft``
    selects whether exceeding the budget raises or warns.  Without a
    budget the ledger just tracks spending.
    """

    def __init__(
        self,
        config: "ExperimentConfig | None" = None,
        *,
        dataset=None,
        snapshot_store=None,
        snapshot_workers: int | None = None,
        budget: float | None = None,
        delta_budget: float | None = None,
        on_overdraft: str = "raise",
        worker_attrs: Collection[str] = DEFAULT_WORKER_ATTRS,
    ):
        if config is None:
            from repro.experiments.config import ExperimentConfig

            config = ExperimentConfig()
        self.config = config
        self.worker_attrs = tuple(worker_attrs)
        # Whether the snapshot can be rebuilt from config alone: a
        # provided dataset cannot (such a session refuses to pickle,
        # and the snapshot fingerprint must not pretend the data came
        # from config.data).  A store-loaded snapshot *is* the
        # config dataset (same fingerprint, same bytes), just opened as
        # a read-only memory map instead of regenerated.
        self.dataset_provided = dataset is not None
        self.snapshot_store = None if dataset is not None else snapshot_store
        # How many processes a snapshot-store miss may fan the build out
        # to (SnapshotStore.build); None/1 keeps the sequential path.
        self.snapshot_workers = snapshot_workers
        if dataset is not None:
            self.dataset = dataset
        elif self.snapshot_store is not None:
            self.dataset, _ = self.snapshot_store.load_or_generate(
                self.config.data, build_workers=snapshot_workers
            )
        else:
            self.dataset = generate(self.config.data)
        self.worker_full = self.dataset.worker_full()
        self.sdl = InputNoiseInfusion(
            distortion=self.config.sdl,
            seed=derive_seed(self.config.seed, "sdl"),
        ).fit(self.worker_full)
        self.ledger = PrivacyLedger(
            epsilon_budget=budget,
            delta_budget=delta_budget,
            on_overdraft=on_overdraft,
        )
        self._stats_cache: dict = {}
        self._prologue_cache: dict = {}
        self._baseline_cache: dict = {}
        self._evaluation_cache: dict = {}
        # Guards the caches above: threads sharing this session (e.g. a
        # ThreadDriver sweep) must compute each trial-invariant
        # statistic exactly once.  Reentrant because statistics() holds
        # it while it fills the prologue, baseline and record caches.
        self._cache_lock = threading.RLock()

    @classmethod
    def from_synthetic(
        cls, target_jobs: int = 150_000, seed: int = 2017, **kwargs
    ) -> "ReleaseSession":
        """A session over a freshly generated synthetic LODES snapshot."""
        from repro.data.generator import SyntheticConfig
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig(
            data=SyntheticConfig(target_jobs=target_jobs, seed=seed), seed=seed
        )
        return cls(config, **kwargs)

    @classmethod
    def from_scenario(
        cls, name: str, *, snapshot_store=None, **kwargs
    ) -> "ReleaseSession":
        """A session over a named scenario from :mod:`repro.scenarios`.

        ``snapshot_store`` (a :class:`~repro.scenarios.SnapshotStore`)
        makes the scenario's economy a persistent artifact: the first
        session generates and saves it, every later one — in this or any
        other process — opens the stored snapshot as a memory map.
        ``snapshot_workers=N`` (> 1) lets that first build fan its
        workforce chunks out to N processes writing the store files
        directly — byte-identical to the sequential build, several
        times faster at national scale.  Extra ``kwargs`` split between
        the experiment config (``n_trials``, ``seed``, grid overrides
        ...) and the session (``budget``, ``worker_attrs`` ...).
        """
        from repro.experiments.config import ExperimentConfig
        import dataclasses

        config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        config_kwargs = {
            key: kwargs.pop(key) for key in list(kwargs) if key in config_fields
        }
        config = ExperimentConfig.for_scenario(name, **config_kwargs)
        return cls(config, snapshot_store=snapshot_store, **kwargs)

    def __reduce__(self):
        """Pickle as a rebuild recipe instead of the snapshot itself.

        A process driver pickles its context once per shard; the worker
        unpickles this into :func:`_worker_session`, which rebuilds the
        session from config once per process — opening the parent's
        persisted snapshot when there is a snapshot store — without a
        budget, so workers never debit.  A session over a provided
        dataset has no recipe: a worker would regenerate a different
        (synthetic) snapshot and silently change results.
        """
        if self.dataset_provided:
            raise ValueError(
                "a session built over an explicitly provided dataset "
                "cannot cross a process boundary: workers rebuild the "
                "session from its config, which would regenerate a "
                "different (synthetic) snapshot and silently change "
                "results; use the thread or serial driver instead"
            )
        store = self.snapshot_store
        return (
            _worker_session,
            (
                self.config,
                self.worker_attrs,
                None if store is None else store.spec(),
            ),
        )

    @property
    def schema(self):
        return self.worker_full.table.schema

    @property
    def snapshot_fingerprint(self) -> str:
        """Content fingerprint of this session's snapshot (cache scope).

        Generated snapshots hash their config + seed; an explicitly
        provided dataset is hashed by content instead, so two sessions
        over different data never share result-store keys even when
        their configs coincide.
        """
        from repro.engine.plan import snapshot_fingerprint

        return snapshot_fingerprint(
            self.config,
            worker_attrs=self.worker_attrs,
            dataset_token=self._dataset_token() if self.dataset_provided else None,
        )

    def _dataset_token(self) -> str:
        """A content hash of the provided dataset's joined relation."""
        if getattr(self, "_dataset_token_cache", None) is None:
            import hashlib

            digest = hashlib.sha256()
            table = self.worker_full.table
            for name in table.schema.names:
                digest.update(name.encode("utf-8"))
                digest.update(np.ascontiguousarray(table.column(name)).tobytes())
            digest.update(
                np.ascontiguousarray(self.worker_full.establishment).tobytes()
            )
            self._dataset_token_cache = digest.hexdigest()[:16]
        return self._dataset_token_cache

    # -- trial-invariant caches ----------------------------------------

    def statistics(self, workload: Workload) -> WorkloadStatistics:
        """Compute (or fetch cached) trial-invariant workload statistics.

        Composes three cached pieces: the workload's release prologue
        (the same cache entry a release of its marginal reads), its SDL
        baseline arrays, and the SDL evaluation record over its mask.
        """
        with self._cache_lock:
            stats = self._stats_cache.get(workload)
            if stats is not None:
                return stats
            attrs, filters = tuple(workload.attrs), workload.filters
            mode = WEAK if workload.has_worker_attrs else STRONG
            prologue = self._prologue(attrs, mode, filters)
            sdl_noisy, strata = self._baseline(attrs, filters)
            mask = (prologue.true > 0) & prologue.released
            schema, worker_attrs = self.schema, self.worker_attrs

            def budget_of(params: EREEParams):
                return marginal_budget(
                    params,
                    schema,
                    workload.attrs,
                    worker_attrs,
                    mode,
                    workload.budget_style,
                )

            def per_cell_params(params: EREEParams) -> EREEParams:
                return budget_of(params).per_cell

            stats = WorkloadStatistics(
                workload=workload,
                marginal=prologue.marginal,
                true=prologue.true,
                released=prologue.released,
                xv=prologue.xv,
                strata=strata,
                sdl_noisy=sdl_noisy,
                evaluation=self._evaluation(attrs, filters, mask, prologue.true),
                mode=mode,
                per_cell_params_of=per_cell_params,
                budget_of=budget_of,
            )
            self._stats_cache[workload] = stats
            return stats

    def release_statistics(
        self, attrs: Sequence[str], mode: str | None = None
    ) -> ReleaseStatistics:
        """Cached deterministic release prologue for (attrs, mode).

        The cache key is the *resolved* mode, so ``mode=None`` and an
        explicit matching mode share one entry; a hit skips the
        true-counts/xv tabulation entirely.  Workload statistics over
        the same marginal (without filters) read the same entry.
        """
        attrs = tuple(attrs)
        return self._prologue(attrs, resolve_mode(attrs, self.worker_attrs, mode))

    def _population(self, filters) -> WorkerFull:
        """The jobs a workload counts: the whole relation, filtered."""
        if not filters:
            return self.worker_full
        table = self.worker_full.table
        keep = [table.equals_value(name, value) for name, value in filters]
        return self.worker_full.filter(np.logical_and.reduce(keep))

    def _prologue(
        self, attrs: tuple[str, ...], mode: str, filters=()
    ) -> ReleaseStatistics:
        """The one cached release prologue per (attrs, mode, filters)."""
        key = (attrs, mode, filters)
        with self._cache_lock:
            prologue = self._prologue_cache.get(key)
            if prologue is None:
                prologue = compute_release_statistics(
                    self.worker_full,
                    attrs,
                    self.worker_attrs,
                    mode,
                    population=self._population(filters),
                )
                self._prologue_cache[key] = prologue
            return prologue

    def _baseline(self, attrs: tuple[str, ...], filters=()):
        """Cached (sdl_noisy, strata) arrays for one marginal.

        The SDL answers the marginal over the filtered population.
        ``strata`` is None for marginals without a ``place`` attribute
        (per-stratum metrics are undefined there); the overall metrics
        still work off the SDL answer.
        """
        key = (attrs, filters)
        with self._cache_lock:
            if key not in self._baseline_cache:
                marginal = Marginal(self.schema, attrs)
                sdl_noisy = self.sdl.answer_marginal(
                    self._population(filters), marginal
                ).noisy
                strata = (
                    cell_strata(marginal, self.dataset.geography.place_populations)
                    if "place" in attrs
                    else None
                )
                self._baseline_cache[key] = (sdl_noisy, strata)
            return self._baseline_cache[key]

    def _evaluation(
        self, attrs: tuple[str, ...], filters, mask: np.ndarray, true: np.ndarray
    ) -> EvaluationBaseline:
        """Cached SDL-side Sec-10 statistics for one evaluation mask.

        Keyed by (attrs, filters, mask content): the true counts and the
        SDL answers are fixed per marginal and population, so every
        release and figure point whose mask has this content — any
        seed, any mechanism — shares one read-only record, built on
        first use.
        """
        key = (attrs, filters, mask.tobytes())
        with self._cache_lock:
            evaluation = self._evaluation_cache.get(key)
            if evaluation is None:
                sdl_noisy, strata = self._baseline(attrs, filters)
                evaluation = EvaluationBaseline.build(mask, true, sdl_noisy, strata)
                self._evaluation_cache[key] = evaluation
            return evaluation

    # -- declarative execution -----------------------------------------

    def run(self, request: ReleaseRequest) -> ReleaseResult:
        """Validate and execute one release request, debiting the ledger.

        The noise stream for a given ``request.seed`` matches the
        historical :func:`repro.core.release.release_marginal` exactly —
        the session only adds caching, the SDL baseline for metrics, and
        ledger accounting.
        """
        result, spend = self.execute(request)
        self.ledger.record(spend)
        return result

    def execute(
        self, request: ReleaseRequest
    ) -> tuple[ReleaseResult, LedgerEntry]:
        """Execute one request *without* recording its privacy spend.

        Returns the result plus the detached spend record.  This is the
        engine's worker entry point: process drivers evaluate against
        rebuilt (budget-less) sessions and hand the records back for the
        parent ledger to :meth:`~repro.api.ledger.PrivacyLedger.merge`
        in deterministic order.  Callers wanting the historical one-step
        behavior use :meth:`run`.
        """
        request.validate(schema=self.schema, worker_attrs=self.worker_attrs)
        spec = request.spec
        if spec.kind == COMPOSITE:
            return self._run_composite(request)
        if spec.kind == BASELINE:
            return self._run_baseline(request)
        return self._run_calibrated(request)

    def spend_of(self, request: ReleaseRequest) -> tuple[float, float]:
        """The (ε, δ) ``request`` debits, known before any noise is drawn.

        The one preflight amount: the three execution paths below and
        the release service refuse an unaffordable request with it
        before paying compute.  Baseline (node-DP) releases spend the
        request ε alone; composite releases spend the request (ε, δ);
        calibrated releases spend the Sec-4 composed total of their
        marginal.  Pure arithmetic over the schema.
        """
        kind = request.spec.kind
        if kind == BASELINE:
            return float(request.epsilon), 0.0
        if kind == COMPOSITE:
            return float(request.epsilon), float(request.delta)
        total = marginal_budget(
            request.params,
            self.schema,
            request.attrs,
            self.worker_attrs,
            resolve_mode(request.attrs, self.worker_attrs, request.mode),
            request.budget_style,
        ).total
        return float(total.epsilon), float(total.delta)

    def _result(self, request, release, entry) -> ReleaseResult:
        attrs = tuple(request.attrs)
        sdl_noisy, strata = self._baseline(attrs)
        mask = release.released & (release.true > 0)
        return ReleaseResult(
            request=request,
            release=release,
            evaluation=self._evaluation(attrs, (), mask, release.true),
            seed=request.seed,
            ledger_entry=entry,
            sdl_noisy=sdl_noisy,
            strata=strata,
        )

    def _run_calibrated(
        self, request: ReleaseRequest
    ) -> tuple[ReleaseResult, LedgerEntry]:
        stats = self.release_statistics(request.attrs, request.mode)
        budget = marginal_budget(
            request.params,
            self.schema,
            request.attrs,
            self.worker_attrs,
            stats.mode,
            request.budget_style,
        )
        # Affordability gates the release; the spend is recorded only
        # after the noise draw succeeds, so a failed release never
        # leaves privacy spend on the books.
        self.ledger.preflight(
            *self.spend_of(request), label=request.ledger_label
        )
        release = release_from_statistics(
            stats,
            request.mechanism,
            budget,
            seed=request.seed,
            mechanism_options=dict(request.mechanism_options or {}),
            n_trials=request.n_trials,
        )
        entry = LedgerEntry.from_budget(
            budget,
            label=request.ledger_label,
            mechanism=request.mechanism,
            attrs=request.attrs,
        )
        return self._result(request, release, entry), entry

    def _run_baseline(
        self, request: ReleaseRequest
    ) -> tuple[ReleaseResult, LedgerEntry]:
        """Node-DP Truncated Laplace: θ from the options, ε from the request.

        α has no meaning under node DP; the release's budget records the
        request parameters for provenance and the spend is ε alone
        (pure DP, δ = 0).
        """
        from repro.core.composition import MarginalBudget
        from repro.core.release import MarginalRelease

        options = dict(request.mechanism_options or {})
        theta = options.pop("theta")
        mechanism = request.spec.factory(
            theta=theta, epsilon=request.epsilon, **options
        )
        marginal = Marginal(self.schema, request.attrs)
        self.ledger.preflight(
            *self.spend_of(request), label=request.ledger_label
        )
        result = mechanism.release_batch(
            self.worker_full,
            marginal,
            n_trials=request.n_trials,
            seed=request.seed,
        )
        entry = LedgerEntry(
            label=request.ledger_label,
            epsilon=float(request.epsilon),
            delta=0.0,
            mechanism=request.mechanism,
            attrs=tuple(request.attrs),
            mode="node-dp",
        )
        pseudo_params = EREEParams(
            request.alpha, request.epsilon, request.delta
        )
        release = MarginalRelease(
            marginal=marginal,
            true=result.true,
            noisy=result.noisy,
            released=np.ones(marginal.n_cells, dtype=bool),
            max_single=np.full(marginal.n_cells, theta, dtype=np.int64),
            budget=MarginalBudget(
                per_cell=pseudo_params,
                total=pseudo_params,
                mode="node-dp",
                worker_domain=1,
            ),
            mechanism_name=request.mechanism,
        )
        return self._result(request, release, entry), entry

    def _run_composite(
        self, request: ReleaseRequest
    ) -> tuple[ReleaseResult, LedgerEntry]:
        """The weighted-split procedure (or any registered composite)."""
        options = dict(request.mechanism_options or {})
        base_mechanism = options.pop("base_mechanism", "smooth-laplace")
        self.ledger.preflight(
            *self.spend_of(request), label=request.ledger_label
        )
        weighted = request.spec.factory(
            self.worker_full,
            request.attrs,
            base_mechanism,
            request.params,
            worker_attrs=self.worker_attrs,
            seed=request.seed,
            n_trials=request.n_trials,
            **options,
        )
        entry = LedgerEntry.from_budget(
            weighted.release.budget,
            label=request.ledger_label,
            mechanism=request.mechanism,
            attrs=request.attrs,
        )
        return self._result(request, weighted.release, entry), entry

    def run_grid(
        self, requests: Sequence[ReleaseRequest]
    ) -> list[ReleaseResult]:
        """Execute a request list (e.g. a ``ReleaseRequest.grid`` product).

        Trial-invariant statistics are shared across points through the
        session caches, so an m-point grid over one marginal computes the
        marginal's true counts, mask and xv exactly once and each point
        only draws its ``(n_trials, n_cells)`` noise matrix.  Requests
        run in order, each debiting as it executes.
        """
        return [self.run(request) for request in requests]

    # -- figure-point evaluation ---------------------------------------

    def evaluate_point(
        self,
        workload: Workload,
        mechanism: str,
        params: EREEParams | None = None,
        *,
        metric: str = "l1-ratio",
        n_trials: int | None = None,
        seed=None,
        theta: int | None = None,
        epsilon: float | None = None,
    ) -> SeriesPoint:
        """One figure point (overall + per-stratum) with ledger accounting.

        Delegates to the streaming reducers of
        :mod:`repro.engine.evaluate`; a feasible point debits the
        workload's composed budget, an infeasible point (shown as a gap
        in the figures) debits nothing.  ``mechanism="truncated-laplace"``
        takes ``theta`` and ``epsilon`` instead of ``params``.
        """
        point, spend = self.evaluate_point_outcome(
            workload,
            mechanism,
            params,
            metric=metric,
            n_trials=n_trials,
            seed=seed,
            theta=theta,
            epsilon=epsilon,
        )
        if spend is not None:
            self.ledger.record(spend)
        return point

    def evaluate_point_outcome(
        self,
        workload: Workload,
        mechanism: str,
        params: EREEParams | None = None,
        *,
        metric: str = "l1-ratio",
        n_trials: int | None = None,
        seed=None,
        theta: int | None = None,
        epsilon: float | None = None,
    ) -> tuple[SeriesPoint, LedgerEntry | None]:
        """One figure point plus its detached spend record (no debit).

        The sweep engine's worker entry point
        (:func:`repro.engine.sweep.evaluate_point_spec` calls this):
        nothing is recorded on this session's ledger — the spend record
        travels back with the point, and the parent merges the records
        of all computed points in plan order.  An infeasible point's
        spend is ``None``.
        """
        if n_trials is None:
            n_trials = self.config.n_trials
        stats = self.statistics(workload)

        if mechanism == "truncated-laplace":
            if theta is None or epsilon is None:
                raise ValueError(
                    "truncated-laplace points need theta and epsilon"
                )
            point = point_kernels.truncated_laplace_point(
                self, stats, theta, epsilon, n_trials, seed, metric
            )
            spend = LedgerEntry(
                label=f"{workload.name}:truncated-laplace:theta={theta}:eps={epsilon}",
                epsilon=float(epsilon),
                delta=0.0,
                mechanism=mechanism,
                attrs=tuple(workload.attrs),
                mode="node-dp",
            )
            return point, spend

        if params is None:
            raise ValueError("calibrated mechanism points need params")
        if metric == "l1-ratio":
            point = point_kernels.error_ratio_point(
                stats, mechanism, params, n_trials, seed
            )
        elif metric == "spearman":
            point = point_kernels.spearman_point(
                stats, mechanism, params, n_trials, seed
            )
        else:
            raise ValueError(
                f"metric must be 'l1-ratio' or 'spearman', got {metric!r}"
            )
        spend = None
        if point.feasible:
            spend = LedgerEntry.from_budget(
                stats.budget_of(params),
                label=(
                    f"{workload.name}:{mechanism}:"
                    f"alpha={params.alpha}:eps={params.epsilon}"
                ),
                mechanism=mechanism,
                attrs=tuple(workload.attrs),
            )
        return point, spend

    def evaluate_family_outcome(
        self,
        workload: Workload,
        mechanism: str,
        *,
        members: Sequence[tuple[float, float]],
        delta: float,
        metrics: Sequence[str] = ("l1-ratio",),
        n_trials: int | None = None,
        seed=None,
        evaluate: Sequence[bool] | None = None,
        threads: int = 1,
    ) -> tuple[dict[str, list[SeriesPoint | None]], list[LedgerEntry | None]]:
        """Every (α, ε) point of one mechanism's α×ε family, one draw.

        The fused counterpart of :meth:`evaluate_point_outcome`: the
        unit noise of Theorem 8.4 is independent of α *and* ε, so one
        unit matrix serves the full ``members`` list of (α, ε) pairs and
        every requested metric through
        :func:`repro.engine.evaluate.fused_family_points`.  Returns
        ``{metric: [SeriesPoint | None, ...]}`` aligned with ``members``.
        ``evaluate`` masks which members to reduce (resume support);
        masked-out members return ``None`` points and ``None`` spends.
        ``threads`` lets a Spearman-only family rank its members on that
        many threads; the values do not depend on it.  The sweep engine
        passes :func:`~repro.runtime.kernel_threads` of its drain width.
        Nothing is debited here — spends come back detached, one per
        member, and equal the unfused point spends: sharing the draw
        changes which bits are drawn, not the composed (ε, δ) total.
        """
        if n_trials is None:
            n_trials = self.config.n_trials
        stats = self.statistics(workload)
        values = point_kernels.fused_family_points(
            stats,
            mechanism,
            members=list(members),
            delta=delta,
            n_trials=n_trials,
            seed=seed,
            metrics=metrics,
            evaluate=evaluate,
            threads=threads,
        )
        spends: list[LedgerEntry | None] = []
        for point in values[tuple(metrics)[0]]:
            if point is None or not point.feasible:
                spends.append(None)
                continue
            params = EREEParams(point.alpha, point.epsilon, delta)
            spends.append(
                LedgerEntry.from_budget(
                    stats.budget_of(params),
                    label=(
                        f"{workload.name}:{mechanism}:"
                        f"alpha={params.alpha}:eps={params.epsilon}"
                    ),
                    mechanism=mechanism,
                    attrs=tuple(workload.attrs),
                )
            )
        return values, spends


def _worker_session(config, worker_attrs, store_spec) -> ReleaseSession:
    """Rebuild (or reuse) this process's session from a pickled recipe.

    One session per (config, worker_attrs, snapshot source) per process:
    a worker that receives several shards of the same sweep regenerates
    nothing.  With ``store_spec`` (the parent's
    :meth:`~repro.scenarios.SnapshotStore.spec` — a plain picklable dict
    naming the backend, so local roots reattach and remote backends
    reconnect) the worker *opens* the parent's persisted snapshot as a
    read-only memory map instead of regenerating it — the parent saved
    it before the pool spun up, so workers share physical pages and pay
    only the SDL fit.  Either way the session is bit-identical to the
    parent's (same fingerprint ⇒ same bytes), and its ledger has no
    budget and stays untouched — spend records flow back to the parent
    for merging.
    """
    global _WORKER_SESSION
    key = (repr(config), tuple(worker_attrs), repr(store_spec))
    cached = _WORKER_SESSION
    if cached is not None and cached[0] == key:
        return cached[1]
    store = None
    if store_spec is not None:
        from repro.scenarios.store import SnapshotStore

        store = SnapshotStore.from_spec(store_spec)
    session = ReleaseSession(
        config, worker_attrs=worker_attrs, snapshot_store=store
    )
    _WORKER_SESSION = (key, session)
    return session


_WORKER_SESSION: tuple | None = None
