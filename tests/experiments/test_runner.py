"""Tests for the experiment runner: cached statistics, feasibility
filtering, and the error-ratio / Spearman trial loops."""

import math

import numpy as np
import pytest

from repro.api import ReleaseSession
from repro.core import EREEParams
from repro.engine.evaluate import (
    error_ratio_point,
    mechanism_is_feasible,
    release_trials,
    spearman_point,
    truncated_laplace_point,
)
from repro.experiments import ExperimentConfig, WORKLOAD_1, WORKLOAD_2, WORKLOAD_3
from repro.experiments.workloads import RANKING_2


@pytest.fixture(scope="module")
def context():
    return ReleaseSession(ExperimentConfig().small())


class TestStatistics:
    def test_cached_by_workload(self, context):
        assert context.statistics(WORKLOAD_1) is context.statistics(WORKLOAD_1)

    def test_workload1_mode_strong(self, context):
        assert context.statistics(WORKLOAD_1).mode == "strong"

    def test_workload3_mode_weak(self, context):
        assert context.statistics(WORKLOAD_3).mode == "weak"

    def test_mask_cells_positive(self, context):
        stats = context.statistics(WORKLOAD_1)
        assert np.all(stats.true[stats.mask] > 0)

    def test_workload3_budget_splits_by_8(self, context):
        stats = context.statistics(WORKLOAD_3)
        per_cell = stats.per_cell_params_of(EREEParams(0.1, 8.0, 0.05))
        assert per_cell.epsilon == pytest.approx(1.0)

    def test_workload2_budget_full_per_cell(self, context):
        stats = context.statistics(WORKLOAD_2)
        per_cell = stats.per_cell_params_of(EREEParams(0.1, 2.0, 0.05))
        assert per_cell.epsilon == 2.0

    def test_ranking2_filtered_counts(self, context):
        stats = context.statistics(RANKING_2.workload)
        full = context.statistics(WORKLOAD_1)
        assert stats.true.sum() < full.true.sum()
        assert np.all(stats.true <= full.true)

    def test_strata_shape(self, context):
        stats = context.statistics(WORKLOAD_1)
        assert stats.strata.shape == (stats.marginal.n_cells,)


class TestFeasibility:
    def test_smooth_gamma_infeasible_at_small_epsilon(self):
        assert not mechanism_is_feasible(
            "smooth-gamma", EREEParams(0.2, 0.5, 0.05)
        )

    def test_smooth_laplace_table2_rule(self):
        assert not mechanism_is_feasible(
            "smooth-laplace", EREEParams(0.2, 0.5, 0.05)
        )
        assert mechanism_is_feasible(
            "smooth-laplace", EREEParams(0.2, 4.0, 0.05)
        )

    def test_log_laplace_unbounded_mean_skipped(self):
        assert not mechanism_is_feasible("log-laplace", EREEParams(0.2, 0.25))
        assert mechanism_is_feasible("log-laplace", EREEParams(0.01, 0.25))


class TestTrials:
    def test_release_trials_count_and_shape(self, context):
        stats = context.statistics(WORKLOAD_1)
        trials = release_trials(
            stats, "smooth-laplace", EREEParams(0.1, 2.0, 0.05), 4, seed=1
        )
        assert len(trials) == 4
        assert all(t.shape == stats.true[stats.mask].shape for t in trials)

    def test_infeasible_returns_none(self, context):
        stats = context.statistics(WORKLOAD_1)
        assert (
            release_trials(stats, "smooth-gamma", EREEParams(0.2, 0.5), 2, seed=1)
            is None
        )

    def test_error_ratio_point_fields(self, context):
        stats = context.statistics(WORKLOAD_1)
        point = error_ratio_point(
            stats, "smooth-laplace", EREEParams(0.1, 2.0, 0.05), 3, seed=2
        )
        assert point.feasible
        assert point.overall > 0
        assert len(point.by_stratum) == 4

    def test_infeasible_point_is_nan(self, context):
        stats = context.statistics(WORKLOAD_1)
        point = error_ratio_point(
            stats, "smooth-gamma", EREEParams(0.2, 0.5), 3, seed=3
        )
        assert not point.feasible
        assert math.isnan(point.overall)

    def test_error_decreases_with_epsilon(self, context):
        stats = context.statistics(WORKLOAD_1)
        low = error_ratio_point(
            stats, "smooth-laplace", EREEParams(0.1, 1.0, 0.05), 5, seed=4
        )
        high = error_ratio_point(
            stats, "smooth-laplace", EREEParams(0.1, 4.0, 0.05), 5, seed=4
        )
        assert high.overall < low.overall

    def test_spearman_point_in_range(self, context):
        stats = context.statistics(WORKLOAD_1)
        point = spearman_point(
            stats, "smooth-laplace", EREEParams(0.1, 2.0, 0.05), 3, seed=5
        )
        assert -1.0 <= point.overall <= 1.0

    def test_spearman_improves_with_epsilon(self, context):
        stats = context.statistics(WORKLOAD_1)
        low = spearman_point(
            stats, "log-laplace", EREEParams(0.1, 0.5, 0.05), 5, seed=6
        )
        high = spearman_point(
            stats, "log-laplace", EREEParams(0.1, 4.0, 0.05), 5, seed=6
        )
        assert high.overall > low.overall

    def test_truncated_point(self, context):
        stats = context.statistics(WORKLOAD_1)
        point = truncated_laplace_point(
            context, stats, theta=50, epsilon=4.0, n_trials=2, seed=7
        )
        assert point.mechanism == "truncated-laplace"
        assert point.theta == 50
        assert point.overall > 0

    def test_reproducible(self, context):
        stats = context.statistics(WORKLOAD_1)
        a = error_ratio_point(
            stats, "log-laplace", EREEParams(0.1, 2.0), 2, seed=8
        )
        b = error_ratio_point(
            stats, "log-laplace", EREEParams(0.1, 2.0), 2, seed=8
        )
        assert a.overall == b.overall
