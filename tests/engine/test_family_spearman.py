"""Family Spearman members against the per-set reducer they replaced.

``fused_family_points`` ranks every Spearman member through the
multi-set kernel: the unit matrix is permuted into set order once, each
member builds its noisy rows block by block, and one key build per
block ranks the overall set and all four strata.  The reference below
is the earlier reducer: it builds each member's full trials×cells
noisy matrix and gathers, keys and sorts it once per index set.
Member values must agree bit for bit, including trial counts that end
mid-block, resumed subsets (``evaluate`` masks), infeasible members,
and members ranked in shares on several threads.
"""

import sys

import numpy as np
import pytest

from repro.api.registry import create_mechanism, mechanism_spec
from repro.core.params import EREEParams
from repro.engine.evaluate import (
    _l1_ratio_results,
    fused_family_points,
    mechanism_is_feasible,
    sample_unit_noise,
)
from repro.engine.points import N_STRATA, SeriesPoint, points_identical
from repro.experiments.workloads import WORKLOAD_1, WORKLOAD_2
from repro.metrics.ranking import block_rows, spearman_distinct_batch
from repro.util import as_generator

# (0.2, 0.5) is infeasible for both smooth mechanisms on this snapshot.
MEMBERS = [(0.05, 0.5), (0.05, 2.0), (0.2, 0.5), (0.2, 2.0), (0.1, 1.0)]


def _reduce_spearman_family(
    noisy: np.ndarray,
    index_sets,
    rank_stats,
    sums: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Fold one member's Spearman statistics into running sums.

    Every index set ranks through the sorted-key kernel against the
    cached SDL rank statistics; rows it cannot rank from one value sort
    (ties, ±inf, NaN) fall back to the tie-averaging kernel inside it,
    so each row's ρ is the exact tie-averaging value.
    """
    n_cells = noisy.shape[1]
    for j, idx in enumerate(index_sets):
        if idx.size < 2:
            continue
        sub = noisy if idx.size == n_cells else noisy[:, idx]
        values = spearman_distinct_batch(sub, *rank_stats[j])
        sums[j] += np.nansum(values)
        counts[j] += np.count_nonzero(~np.isnan(values))


def _reference_family(
    stats, mechanism_name, *, members, delta, n_trials, seed, metrics,
    evaluate,
):
    """The generic family loop with one full noisy matrix per member."""
    spec = mechanism_spec(mechanism_name)
    true, strata, xv = stats.eval_true, stats.eval_strata, stats.eval_xv
    evaluation = stats.evaluation
    index_sets = evaluation.index_sets
    per_member = []
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
    unit = sample_unit_noise(
        spec.unit_noise, (n_trials, true.size), as_generator(seed)
    )
    shape = (len(members), len(metrics), len(index_sets))
    sums, counts = np.zeros(shape), np.zeros(shape)
    for e, (params, mechanism, scale) in enumerate(per_member):
        if not evaluate[e] or mechanism is None:
            continue
        if scale is not None:
            noisy = true + scale * unit
        elif spec.needs_xv:
            noisy = mechanism.release_counts_from_unit(true, xv, unit)
        else:
            noisy = mechanism.release_counts_from_unit(true, unit)
        for m, metric in enumerate(metrics):
            if metric == "l1-ratio":
                cell_tot = np.abs(noisy - true).sum(axis=0)
                sums[e, m, 0] += cell_tot.sum()
                sums[e, m, 1:] += np.bincount(
                    strata, weights=cell_tot, minlength=N_STRATA
                )
            else:
                _reduce_spearman_family(
                    noisy, index_sets, evaluation.rank_stats,
                    sums[e, m], counts[e, m],
                )
    results = {metric: [] for metric in metrics}
    for e, (params, mechanism, _) in enumerate(per_member):
        for m, metric in enumerate(metrics):
            if not evaluate[e]:
                results[metric].append(None)
                continue
            if mechanism is None:
                results[metric].append("infeasible")
                continue
            if metric == "l1-ratio":
                values = _l1_ratio_results(sums[e, m], n_trials, evaluation)
            else:
                values = [
                    float(sums[e, m, j] / counts[e, m, j])
                    if counts[e, m, j]
                    else float("nan")
                    for j in range(len(index_sets))
                ]
            results[metric].append(
                SeriesPoint(
                    mechanism=mechanism_name,
                    alpha=params.alpha,
                    epsilon=params.epsilon,
                    overall=values[0],
                    by_stratum=tuple(values[1:]),
                )
            )
    return results


# (workload, n_trials): each draw ends mid-block — after two whole
# blocks, before the first block fills, and after several blocks.
SHAPES = [
    (WORKLOAD_1, 1000),
    (WORKLOAD_2, 70),
    (WORKLOAD_2, 300),
]


class TestFamilySpearmanMatchesPerSetReducer:
    @pytest.mark.parametrize(
        "mechanism", ["smooth-laplace", "log-laplace", "smooth-gamma"]
    )
    @pytest.mark.parametrize(
        "metrics", [("spearman",), ("l1-ratio", "spearman")], ids="+".join
    )
    @pytest.mark.parametrize(
        "workload,n_trials", SHAPES, ids=["w1-1000", "w2-70", "w2-300"]
    )
    # 3 threads is more than a 2-core host has, and than the 4 live
    # members split evenly into.
    @pytest.mark.parametrize("threads", [1, 3])
    def test_member_values_bit_identical(
        self, session, mechanism, metrics, workload, n_trials, threads,
    ):
        stats = session.statistics(workload)
        assert n_trials % block_rows(stats.eval_true.size)
        evaluate = [True, False, True, True, True]
        kwargs = dict(
            members=MEMBERS,
            delta=0.05,
            n_trials=n_trials,
            seed=29,
            metrics=metrics,
            evaluate=evaluate,
        )
        got = fused_family_points(stats, mechanism, threads=threads, **kwargs)
        want = _reference_family(stats, mechanism, **kwargs)
        assert set(got) == set(metrics)
        for metric in metrics:
            pairs = zip(got[metric], want[metric])
            for e, (point, expected) in enumerate(pairs):
                if expected is None:
                    assert point is None
                elif expected == "infeasible":
                    assert not point.feasible
                else:
                    assert points_identical(point, expected), (metric, e)
        if mechanism != "log-laplace":
            infeasible = got["spearman"][2]
            assert infeasible is not None and not infeasible.feasible


# Seven members, so eight threads leave one share empty and three
# deal them unevenly.
STRESS_MEMBERS = [
    (0.05, 0.5), (0.05, 1.0), (0.05, 2.0),
    (0.1, 1.0), (0.1, 2.0), (0.2, 0.5), (0.2, 2.0),
]


# Every family that reduces its members in thread shares.  Smooth
# Laplace's L1-only family is the analytic reduction, which takes no
# threads.
THREADED_FAMILIES = [
    (mechanism, metrics)
    for mechanism in ("smooth-laplace", "log-laplace")
    for metrics in (("spearman",), ("l1-ratio",), ("l1-ratio", "spearman"))
    if (mechanism, metrics) != ("smooth-laplace", ("l1-ratio",))
]


@pytest.mark.parametrize(
    "mechanism,metrics",
    THREADED_FAMILIES,
    ids=[f"{m}-{'+'.join(ms)}" for m, ms in THREADED_FAMILIES],
)
@pytest.mark.parametrize("threads", [3, 8])
def test_threaded_shares_match_one_thread_under_fast_switching(
    session, mechanism, metrics, threads
):
    """Threads switching every microsecond fold every member's L1 sums
    and ρ exactly as one thread does; a lost update on the shared sums,
    or a share building through another's buffers, would show in the
    bits."""
    stats = session.statistics(WORKLOAD_2)
    kwargs = dict(
        members=STRESS_MEMBERS,
        delta=0.05,
        n_trials=400,
        seed=31,
        metrics=metrics,
        evaluate=[True, True, False, True, True, True, True],
    )
    want = fused_family_points(stats, mechanism, threads=1, **kwargs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = fused_family_points(stats, mechanism, threads=threads, **kwargs)
    finally:
        sys.setswitchinterval(interval)
    for metric in metrics:
        assert got[metric][2] is None
        for point, expected in zip(got[metric], want[metric]):
            if expected is None:
                assert point is None
            else:
                assert points_identical(point, expected)
