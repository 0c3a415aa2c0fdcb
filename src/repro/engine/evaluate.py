"""Figure-point evaluation kernels over cached workload statistics.

These functions are the computational core of every figure and table
sweep: given one workload's trial-invariant
:class:`~repro.engine.points.WorkloadStatistics`, they draw the
``(n_trials, n_cells)`` noise matrix for one (mechanism, α, ε) grid
point through the batched mechanism engine and stream-reduce it to the
paper's Sec-10 metrics (L1 error ratio or Spearman correlation, overall
and per place-population stratum).

This module depends only on the registry, the mechanism kernels and
:mod:`repro.engine.points`, never on the session, so the release session
imports it at module level without a cycle.

Error ratios and Spearman correlations follow Sec 10's definitions: the
ratio is mean private L1 over trials divided by SDL L1; Spearman compares
the private ordering to the SDL ordering; both are reported overall and
per place-population stratum, over the cells with positive true count.

Two reduction strategies coexist:

- The **per-point** kernels (:func:`error_ratio_point`,
  :func:`spearman_point`, :func:`truncated_laplace_point`) draw one
  ``(n_trials, n_cells)`` noise matrix per grid point and reduce it
  through :func:`_point_values` — one |error| pass, scattered into the
  overall + per-stratum sums through precomputed ascending index sets,
  bit-identical to the historical per-stratum slicing; or one gather
  of the matrix into the workload's Spearman set order, ranked for the
  overall set and every stratum by one multi-set kernel call.
- The **family** kernel (:func:`fused_family_points`) exploits the
  Theorem 8.4 release form ``q(x) + S(x,α)/a(ε) · Z``: the unit noise
  ``Z`` depends on neither α nor ε, so one unit matrix per (workload,
  mechanism) family serves every (α, ε) point of the grid via a scale
  multiply (linear mechanisms) or one transform pass (Log-Laplace).
  Members build their noisy rows one cache-sized block at a time into
  reused buffers — ranked in set order by the multi-set kernel, folded
  into L1 column sums, or both — so no member holds a trials×cells
  matrix; a family reduces shares of its members on ``threads``
  threads, with values that do not depend on the thread count.  The
  family stream is statistically identical but not bit-identical to
  the per-point streams, so it only runs behind
  ``run_plan(fused=True)``.

Both read the SDL side of the metrics from one record, the
:class:`~repro.engine.points.EvaluationBaseline` on
:attr:`~repro.engine.points.WorkloadStatistics.evaluation` that the
session shares with release results: its per-set SDL L1 divides every
error ratio, and its rank layout feeds
:class:`~repro.metrics.ranking.SetRanker`, whose values equal the
tie-averaging kernel's bit for bit, so the pinned figures do not move.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.api.registry import create_mechanism, mechanism_spec
from repro.core.params import EREEParams
from repro.core.smooth_sensitivity import sample_gamma4_fast
from repro.dp.truncation import TruncatedLaplace
from repro.engine import profile
from repro.engine.points import (
    N_STRATA,
    EvaluationBaseline,
    SeriesPoint,
    WorkloadStatistics,
)
from repro.metrics.ranking import SetRanker, block_rows
from repro.runtime.drivers import ThreadDriver
from repro.util import as_generator

if TYPE_CHECKING:  # annotation only; the session imports this module
    from repro.api.session import ReleaseSession

__all__ = [
    "mechanism_is_feasible",
    "release_trials",
    "release_trials_looped",
    "error_ratio_point",
    "spearman_point",
    "truncated_laplace_point",
    "sample_unit_noise",
    "fused_family_points",
]


def mechanism_is_feasible(
    name: str, params: EREEParams, require_bounded_mean: bool = True
) -> bool:
    """Whether the paper would plot this (mechanism, α, ε) combination.

    Feasibility predicates live on the registry specs: Smooth Gamma and
    Smooth Laplace have hard constraints; Log-Laplace is skipped where
    its expectation is unbounded (the paper does not plot those points,
    Lemma 8.2) unless ``require_bounded_mean=False``.
    """
    if name == "log-laplace" and not require_bounded_mean:
        return True
    return mechanism_spec(name).is_feasible(params)


def release_trials(
    stats: WorkloadStatistics,
    mechanism_name: str,
    params: EREEParams,
    n_trials: int,
    seed,
) -> np.ndarray | None:
    """``(n_trials, n_cells)`` noisy matrix over the evaluation cells.

    All trials come from a single vectorized RNG draw (the batched
    mechanism path).  Returns None when the per-cell parameters are
    infeasible for the mechanism (the figure shows a gap there, as in
    the paper).  Iterating the result yields one noisy vector per
    trial, like the historical list.
    """
    per_cell = stats.per_cell_params_of(params)
    if not mechanism_is_feasible(mechanism_name, per_cell):
        return None
    mechanism = create_mechanism(mechanism_name, per_cell)
    cells = (stats.eval_true,)
    if mechanism_spec(mechanism_name).needs_xv:
        cells += (stats.eval_xv,)
    return mechanism.release_counts_batch(*cells, n_trials, as_generator(seed))


def release_trials_looped(
    stats: WorkloadStatistics,
    mechanism_name: str,
    params: EREEParams,
    n_trials: int,
    seed,
) -> list[np.ndarray] | None:
    """The historical per-trial Python loop (one RNG draw per trial).

    Kept as the reference implementation for the batched-engine
    equivalence tests and throughput benchmarks; production paths use
    :func:`release_trials`.
    """
    per_cell = stats.per_cell_params_of(params)
    if not mechanism_is_feasible(mechanism_name, per_cell):
        return None
    needs_xv = mechanism_spec(mechanism_name).needs_xv
    mechanism = create_mechanism(mechanism_name, per_cell)
    rng = as_generator(seed)
    true = stats.eval_true
    xv = stats.eval_xv
    trials = []
    for _ in range(n_trials):
        if needs_xv:
            trials.append(mechanism.release_counts(true, xv, rng))
        else:
            trials.append(mechanism.release_counts(true, rng))
    return trials


def _l1_ratio_results(
    sums: np.ndarray, n_trials: int, evaluation: EvaluationBaseline
) -> list[float]:
    """Sec-10 error ratios from accumulated per-set |error| totals,
    against the record's stored SDL L1 per set."""
    results = []
    for j, idx in enumerate(evaluation.index_sets):
        if idx.size == 0:
            results.append(float("nan"))
            continue
        sdl_l1 = evaluation.sdl_l1[j]
        private_l1 = float(sums[j]) / n_trials
        if sdl_l1 == 0.0:
            results.append(math.inf if private_l1 > 0 else float("nan"))
        else:
            results.append(private_l1 / sdl_l1)
    return results


def _point_values(
    noisy: np.ndarray,
    true,
    metric: str,
    evaluation: EvaluationBaseline,
) -> tuple[float, tuple[float, ...]]:
    """Reduce one ``(n_trials, n_cells)`` noisy matrix to (overall,
    by-stratum) point values.

    The L1 reduction is one pass: ``|noisy - true|`` is computed once
    and gathered into the overall + per-stratum sums through the
    ascending index sets of ``evaluation`` (the session's shared SDL
    record), and the ratios divide by its stored SDL L1 per set.  The
    gather always copies — even for the full-size overall set — because
    a ``m[:, indices]`` gather is Fortran-ordered exactly like the
    historical ``m[:, boolean_mask]`` slices, and the axis-1 float
    summation order depends on that layout; reducing the C-ordered
    ``abs_err`` directly would shift the overall value by last-ULP
    reassociation.  Values are therefore bit-identical to the slicing
    reducer while the subtraction runs once instead of once per set.

    The Spearman reduction gathers the matrix into the set order of the
    record's rank layout once, block by block, and ranks the overall
    set and every stratum through one
    :class:`~repro.metrics.ranking.SetRanker` — bit-identical, per trial
    and set, to the tie-averaging kernel on that set's cells.
    """
    index_sets = evaluation.index_sets
    sums = np.zeros(len(index_sets))
    if metric == "l1-ratio":
        abs_err = np.abs(noisy - true)
        for j, idx in enumerate(index_sets):
            if idx.size:
                sums[j] += abs_err[:, idx].sum(axis=1).sum()
        results = _l1_ratio_results(sums, noisy.shape[0], evaluation)
    else:
        counts = np.zeros(len(index_sets))
        _fold_rhos(
            SetRanker(evaluation.rank_layout).rank_cells(noisy), sums, counts
        )
        results = [
            float(sums[j] / counts[j]) if counts[j] else float("nan")
            for j in range(len(index_sets))
        ]
    return results[0], tuple(results[1:])


def _fold_rhos(rhos: np.ndarray, sums: np.ndarray, counts: np.ndarray) -> None:
    """Add per-trial ρ, ``(n_sets, n_trials)``, to the running per-set
    ``np.nansum`` totals and non-NaN counts.

    ``np.nansum`` sums a NaN-zeroed contiguous copy, so a row without NaN
    sums bit-identically as itself, without the copy.
    """
    valid = ~np.isnan(rhos)
    counts += np.count_nonzero(valid, axis=1)
    for j, values in enumerate(rhos):
        sums[j] += values.sum() if valid[j].all() else np.nansum(values)


def _infeasible_point(mechanism_name: str, params: EREEParams) -> SeriesPoint:
    nan = float("nan")
    return SeriesPoint(
        mechanism=mechanism_name,
        alpha=params.alpha,
        epsilon=params.epsilon,
        overall=nan,
        by_stratum=(nan,) * N_STRATA,
        feasible=False,
    )


def _calibrated_point(
    stats: WorkloadStatistics,
    mechanism_name: str,
    params: EREEParams,
    n_trials: int,
    seed,
    metric: str,
) -> SeriesPoint:
    """One calibrated-mechanism point: one draw, reduced under ``metric``."""
    with profile.stage("draw"):
        noisy = release_trials(stats, mechanism_name, params, n_trials, seed)
    if noisy is None:
        return _infeasible_point(mechanism_name, params)
    with profile.stage("reduce"):
        overall, by_stratum = _point_values(
            noisy, stats.eval_true, metric, stats.evaluation
        )
    return SeriesPoint(
        mechanism=mechanism_name,
        alpha=params.alpha,
        epsilon=params.epsilon,
        overall=overall,
        by_stratum=by_stratum,
    )


def error_ratio_point(
    stats: WorkloadStatistics,
    mechanism_name: str,
    params: EREEParams,
    n_trials: int,
    seed,
) -> SeriesPoint:
    """One L1-error-ratio point (overall + per-stratum)."""
    return _calibrated_point(stats, mechanism_name, params, n_trials, seed, "l1-ratio")


def spearman_point(
    stats: WorkloadStatistics,
    mechanism_name: str,
    params: EREEParams,
    n_trials: int,
    seed,
) -> SeriesPoint:
    """One Spearman-correlation point (overall + per-stratum)."""
    return _calibrated_point(stats, mechanism_name, params, n_trials, seed, "spearman")


def truncated_laplace_point(
    context: "ReleaseSession",
    stats: WorkloadStatistics,
    theta: int,
    epsilon: float,
    n_trials: int,
    seed,
    metric: str = "l1-ratio",
) -> SeriesPoint:
    """One node-DP Truncated-Laplace point on a workload (Finding 6).

    The truncation projection is trial-invariant, so it runs exactly
    once, and the whole ``(n_trials, n_cells)`` noise matrix is a single
    vectorized draw.
    """
    mechanism = TruncatedLaplace(theta=theta, epsilon=epsilon)
    with profile.stage("draw"):
        release = mechanism.release_batch(
            context.worker_full, stats.marginal, n_trials, seed
        )
    with profile.stage("reduce"):
        overall, by_stratum = _point_values(
            release.noisy[:, stats.mask], stats.eval_true, metric,
            stats.evaluation,
        )
    return SeriesPoint(
        mechanism="truncated-laplace",
        alpha=None,
        epsilon=epsilon,
        overall=overall,
        by_stratum=by_stratum,
        theta=theta,
    )


# -- fused evaluation ------------------------------------------------------


def sample_unit_noise(kind: str, shape, seed=None) -> np.ndarray:
    """One unscaled matrix from a mechanism family's unit distribution.

    ``kind`` is a registry ``unit_noise`` tag: ``"gamma4"`` draws the
    Smooth Gamma h(z) ∝ 1/(1+z⁴) noise (through the oversampled
    single-round sampler — same distribution as the default sampler,
    different bit stream), ``"laplace"`` draws Laplace(1).

    A Laplace draw allocates only its output; a γ4 draw peaks at about
    3× its output (the output, one rejection round's proposals and a
    few fixed-size slice buffers, see
    :func:`~repro.core.smooth_sensitivity.sample_gamma4_fast`).
    """
    rng = as_generator(seed)
    if kind == "gamma4":
        return sample_gamma4_fast(shape, rng)
    if kind == "laplace":
        return rng.laplace(0.0, 1.0, size=shape)
    raise ValueError(f"unknown unit-noise family {kind!r}")


def fused_family_points(
    stats: WorkloadStatistics,
    mechanism_name: str,
    *,
    members: Sequence[tuple[float, float]],
    delta: float,
    n_trials: int,
    seed,
    metrics: Sequence[str] = ("l1-ratio",),
    evaluate: Sequence[bool] | None = None,
    threads: int = 1,
) -> dict[str, list[SeriesPoint | None]]:
    """Every (α, ε) point of one mechanism's whole grid from one draw.

    Theorem 8.4 releases are ``q(x) + S(x,α)/a(ε) · Z`` with the unit
    noise ``Z`` independent of α *and* ε — α enters only through the
    smooth-sensitivity envelope ``max(xv·α, 1)`` — so a single unit
    matrix serves the full family of ``members`` (α, ε) pairs.

    - **Linear mechanisms** reporting only the L1 ratio reduce the whole
      family analytically in one O(trials·cells) pass: the unit |Z|
      column sums accumulate once and every member is an envelope-scale
      multiply plus a ``bincount`` scatter, the envelope coming from the
      per-α cache on ``stats`` shared by all mechanisms of the sweep.
    - Otherwise each member builds its noisy rows from the shared unit
      matrix one cache-sized block at a time
      (:func:`~repro.metrics.ranking.block_rows`), into a buffer its
      share reuses, so no member ever holds a full trials×cells noisy
      matrix.  Spearman members rank the overall set and every stratum
      through a :class:`~repro.metrics.ranking.SetRanker`, in the set
      order of the workload's shared SDL record
      (:attr:`WorkloadStatistics.evaluation`): the unit matrix is
      permuted into that order once and a member's blocks go straight
      into the ranker's buffer.  L1 members fold each block's
      |noisy − true| rows into per-cell column sums carried as the
      block buffer's first row, so the sums equal a whole-matrix
      ``sum(axis=0)`` bit for bit; they go back to cell order at the
      end.  Table 3's fused rows ask for both metrics, and each block
      serves both.

    Memory is bounded by the unit draw, the family's one
    ``(n_trials, n_cells)`` matrix: the analytic path takes |Z| in
    place, so it holds the unit matrix (plus the draw's own transients,
    about 3× the matrix for γ4 noise), and the member loop holds the
    matrix, its set-order copy when ranking, and one block buffer per
    share.  ``--profile`` counts the member builds under ``reduce`` on
    every path, the draw alone under ``draw``.

    ``threads`` reduces the members in parallel: the live members are
    dealt round-robin into up to ``threads`` shares, and
    each share builds and reduces its members through its own buffers
    on a :class:`~repro.runtime.ThreadDriver` thread (the sorts,
    gathers and transforms release the GIL).  A member's sums are
    written by its share alone, and the unit draw, the set-order
    permutation and the profile stay in the calling thread, so every
    member folds its blocks in the same order and the values are
    bit-identical at any thread count.  The analytic L1
    reduction ignores ``threads``.

    ``evaluate`` masks which members to reduce (a resumed family
    recomputes only its missing members).  The unit draw never depends
    on the mask — the full matrix is drawn regardless — so a subset
    evaluation reproduces the full run's member values bit-for-bit.
    Masked-out members come back as ``None`` placeholders.

    The family stream draws different random bits than the per-point
    kernels (one stream per family instead of one per point), so
    results are statistically — not bit — identical to the unfused
    path; the sweep engine stores them under family member keys.
    """
    spec = mechanism_spec(mechanism_name)
    unit_kind = spec.unit_noise
    if unit_kind is None:
        raise ValueError(
            f"{mechanism_name!r} declares no unit-noise family; "
            "family evaluation needs a registry unit_noise tag"
        )
    metrics = tuple(metrics)
    for metric in metrics:
        if metric not in ("l1-ratio", "spearman"):
            raise ValueError(
                f"metric must be 'l1-ratio' or 'spearman', got {metric!r}"
            )
    members = [(float(alpha), float(epsilon)) for alpha, epsilon in members]
    if evaluate is None:
        evaluate = [True] * len(members)
    elif len(evaluate) != len(members):
        raise ValueError(
            f"evaluate mask length {len(evaluate)} != {len(members)} members"
        )

    true = stats.eval_true
    strata = stats.eval_strata
    evaluation = stats.evaluation
    n_cells = true.size
    n_sets = len(evaluation.index_sets)

    # Per-member setup: feasibility, the mechanism, and — for linear
    # mechanisms — the unit-noise scale envelope(α)/a(ε).  The envelope
    # is the per-α cached vector, so m members over k distinct α values
    # compute it k times, not m.
    per_member: list[tuple[EREEParams, object, np.ndarray | None]] = []
    for alpha, epsilon in members:
        params = EREEParams(alpha, epsilon, delta)
        per_cell = stats.per_cell_params_of(params)
        mechanism = (
            create_mechanism(mechanism_name, per_cell)
            if mechanism_is_feasible(mechanism_name, per_cell)
            else None
        )
        scale = None
        if mechanism is not None and spec.linear_unit_scale:
            scale = stats.envelope(per_cell.alpha) / mechanism.distribution.a
        per_member.append((params, mechanism, scale))

    rng = as_generator(seed)
    l1_sums = np.zeros((len(per_member), n_sets))
    rho_sums = np.zeros((len(per_member), n_sets))
    rho_counts = np.zeros((len(per_member), n_sets))
    if metrics == ("l1-ratio",) and spec.linear_unit_scale:
        # Whole-family analytic reduction: one pass over the unit draw
        # accumulates Σ|Z| per cell; every member — any α, any ε — then
        # reduces in O(cells) from the shared column sums.
        with profile.stage("draw"):
            unit = sample_unit_noise(unit_kind, (n_trials, n_cells), rng)
        with profile.stage("reduce"):
            unit_colsum = np.abs(unit, out=unit).sum(axis=0)
        for e, (do_eval, (_, mechanism, scale)) in enumerate(
            zip(evaluate, per_member)
        ):
            if do_eval and mechanism is not None:
                _fold_cell_totals(scale * unit_colsum, strata, l1_sums[e])
    else:
        # Members build their noisy rows one block at a time.  Spearman
        # ranks them in the layout's set order, so the unit matrix is
        # permuted into that order once, and the L1 column sums go back
        # to cell order at the end.
        order = evaluation.rank_layout.order if "spearman" in metrics else None
        xv = stats.eval_xv if spec.needs_xv else None
        live = [
            (e, mechanism, scale)
            for e, (do_eval, (_, mechanism, scale)) in enumerate(
                zip(evaluate, per_member)
            )
            if do_eval and mechanism is not None
        ]
        positions = None
        if order is not None:
            positions = np.argsort(order)
            true = true[order]
            xv = None if xv is None else xv[order]
            live = [
                (e, mechanism, None if scale is None else scale[order])
                for e, mechanism, scale in live
            ]
        n_shares = max(1, min(threads, len(live)))
        shares = [
            (
                SetRanker(evaluation.rank_layout) if order is not None else None,
                np.empty((block_rows(n_cells) + 1, n_cells))
                if "l1-ratio" in metrics
                else None,
                live[s::n_shares],
            )
            for s in range(n_shares)
        ]
        with profile.stage("draw"):
            unit = sample_unit_noise(unit_kind, (n_trials, n_cells), rng)
        with profile.stage("reduce"):
            if order is not None:
                unit = np.take(unit, order, axis=1)
            ThreadDriver(n_shares).map(
                _reduce_share,
                (n_trials, unit, true, xv, positions, strata, l1_sums,
                 rho_sums, rho_counts),
                shares,
            )

    results: dict[str, list[SeriesPoint | None]] = {
        metric: [] for metric in metrics
    }
    for e, (do_eval, (params, mechanism, _)) in enumerate(
        zip(evaluate, per_member)
    ):
        for metric in metrics:
            if not do_eval:
                point = None
            elif mechanism is None:
                point = _infeasible_point(mechanism_name, params)
            else:
                values = (
                    _l1_ratio_results(l1_sums[e], n_trials, evaluation)
                    if metric == "l1-ratio"
                    else [
                        float(total / count) if count else float("nan")
                        for total, count in zip(rho_sums[e], rho_counts[e])
                    ]
                )
                point = SeriesPoint(
                    mechanism=mechanism_name,
                    alpha=params.alpha,
                    epsilon=params.epsilon,
                    overall=values[0],
                    by_stratum=tuple(values[1:]),
                )
            results[metric].append(point)
    return results


def _fold_cell_totals(cell_tot, strata, sums) -> None:
    """Add per-cell |error| totals to one member's overall + per-stratum
    L1 sums."""
    sums[0] += cell_tot.sum()
    sums[1:] += np.bincount(strata, weights=cell_tot, minlength=N_STRATA)


def _rows_from_unit(
    mechanism, scale, true, xv, unit, start, stop, out, shifted_log=None
):
    """:meth:`SetRanker.rank` fill: a family member's noisy rows
    ``start:stop`` from the unit-noise rows.

    ``true + scale · unit`` for linear mechanisms; otherwise the
    mechanism's own transform, with ``xv`` ``None`` unless the mechanism
    needs it.  The transform without ``xv`` (Log-Laplace's) is given the
    member's ``shifted_log`` of ``true``.  Written into ``out`` when
    given, except by a transform that needs ``xv``.  Every operation is
    per-cell, so permuting the cells of all inputs permutes the output.
    """
    rows = unit[start:stop]
    if scale is not None:
        return np.add(np.multiply(rows, scale, out=out), true, out=out)
    if xv is None:
        return mechanism.release_counts_from_unit(
            true, rows, out=out, shifted_log=shifted_log
        )
    return mechanism.release_counts_from_unit(true, xv, rows)


def _fill_and_fold(fill, true, l1_rows, col_tot, start, stop, out):
    """A fill that also folds the rows' |noisy − true| into ``col_tot``.

    The block's |error| rows go below the running column sums, which
    ride as row 0 of ``l1_rows``, so one ``sum(axis=0)`` per block adds
    the rows in the order a sum over the whole matrix would, bit for
    bit.
    """
    x = fill(start, stop, out)
    block = l1_rows[: stop - start + 1]
    block[0] = col_tot
    np.subtract(x, true, out=block[1:])
    np.abs(block[1:], out=block[1:])
    block.sum(axis=0, out=col_tot)
    return x


def _reduce_share(draw_state, share) -> None:
    """:class:`~repro.runtime.ThreadDriver` task: reduce one share of a
    family's members over the unit draw.

    ``draw_state`` is ``(n_rows, unit matrix, true counts, xv or None,
    each cell's set position or None, strata, L1 sums, ρ sums, ρ
    counts)``: given positions, the unit matrix and the per-cell vectors
    are in set order, and the L1 column sums go back to cell order
    through them.  ``share`` is ``(ranker or None, L1 block buffer or
    None, [(member index, mechanism, scale), ...])``.  A member's noisy
    rows are built one block at a time — into the ranker's block when it
    ranks them, else into the L1 buffer — so no member holds a
    trials×cells matrix.  Each member's statistics fold into its own
    rows of the sums, so shares write disjoint memory.  Nothing here touches
    :mod:`repro.engine.profile`, whose state is a process global.
    """
    n_rows, unit, true, xv, positions, strata, l1_sums, rho_sums, rho_counts = (
        draw_state
    )
    ranker, l1_rows, members = share
    for e, mechanism, scale in members:
        # The transform without xv perturbs a per-cell shifted log: one
        # per member serves every block.
        shifted_log = (
            mechanism.shifted_log(true) if scale is None and xv is None else None
        )
        fill = partial(
            _rows_from_unit, mechanism, scale, true, xv, unit,
            shifted_log=shifted_log,
        )
        if l1_rows is None:
            _fold_rhos(ranker.rank(n_rows, fill), rho_sums[e], rho_counts[e])
            continue
        col_tot = np.zeros(true.size)
        fill = partial(_fill_and_fold, fill, true, l1_rows, col_tot)
        # A ranker with no live set builds no rows (ρ stays nan).
        if ranker is None or not ranker.denominators:
            step = l1_rows.shape[0] - 1
            for start in range(0, n_rows, step):
                stop = min(start + step, n_rows)
                fill(start, stop, l1_rows[1 : stop - start + 1])
        else:
            _fold_rhos(ranker.rank(n_rows, fill), rho_sums[e], rho_counts[e])
        if positions is not None:
            col_tot = col_tot[positions]
        _fold_cell_totals(col_tot, strata, l1_sums[e])
