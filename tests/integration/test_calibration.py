"""Statistical calibration of the end-to-end release path.

The mechanisms publish analytic error formulas (Lemmas 8.8, 9.3); these
tests check that the *actual* releases produced by ``release_marginal``
— after budget splitting, cell masking and xv computation — match those
formulas, so the bookkeeping between the math and the pipeline is right.
"""

import numpy as np
import pytest

from repro.api import create_mechanism
from repro.core import EREEParams, release_marginal


class TestReleaseCalibration:
    @pytest.mark.parametrize("mechanism_name", ["smooth-laplace", "smooth-gamma"])
    def test_empirical_error_matches_formula(
        self, small_worker_full, mechanism_name
    ):
        params = EREEParams(alpha=0.1, epsilon=4.0, delta=0.05)
        releases = [
            release_marginal(
                small_worker_full, ["place", "naics", "ownership"],
                mechanism_name, params, seed=800 + t,
            )
            for t in range(40)
        ]
        first = releases[0]
        mask = first.released
        mechanism = create_mechanism(mechanism_name, first.budget.per_cell)
        predicted = mechanism.expected_l1_error(first.max_single[mask]).mean()
        empirical = np.mean(
            [np.abs(r.noisy[mask] - r.true[mask]).mean() for r in releases]
        )
        assert empirical == pytest.approx(predicted, rel=0.15)

    def test_weak_marginal_error_reflects_budget_split(self, small_worker_full):
        """Releasing the sex marginal (d=2) must double the per-cell noise
        scale relative to an establishment-only release at the same ε."""
        params = EREEParams(alpha=0.1, epsilon=4.0, delta=0.05)
        strong = release_marginal(
            small_worker_full, ["place", "naics"], "smooth-laplace",
            params, seed=1,
        )
        weak = release_marginal(
            small_worker_full, ["place", "naics", "sex"], "smooth-laplace",
            params, seed=1,
        )
        assert weak.budget.per_cell.epsilon == pytest.approx(
            strong.budget.per_cell.epsilon / 2
        )

    def test_log_laplace_relative_error_in_bound(self, small_worker_full):
        """Theorem 8.3: empirical squared relative error of released cells
        never exceeds the analytic worst-case bound."""
        params = EREEParams(alpha=0.05, epsilon=2.0)
        releases = [
            release_marginal(
                small_worker_full, ["naics"], "log-laplace", params,
                seed=900 + t,
            )
            for t in range(40)
        ]
        mechanism = create_mechanism("log-laplace", params)
        bound = mechanism.squared_relative_error_bound()
        mask = releases[0].true > 0
        squared_relative = np.mean(
            [
                (((r.noisy[mask] - r.true[mask]) / r.true[mask]) ** 2).mean()
                for r in releases
            ]
        )
        assert squared_relative <= bound


class TestDeterminism:
    def test_figure_series_deterministic(self):
        """The experiment harness derives all per-point seeds from the
        config seed, so two contexts produce identical series."""
        from repro.api import ReleaseSession
        from repro.experiments import ExperimentConfig, figure1

        config = ExperimentConfig().small()
        a = figure1(ReleaseSession(config))
        b = figure1(ReleaseSession(config))
        for point_a, point_b in zip(a.points, b.points):
            if point_a.feasible:
                assert point_a.overall == point_b.overall
                assert point_a.by_stratum == point_b.by_stratum

    def test_different_config_seed_changes_noise(self):
        from repro.api import ReleaseSession
        from repro.experiments import ExperimentConfig, figure1
        import dataclasses

        base = ExperimentConfig().small()
        other = dataclasses.replace(base, seed=base.seed + 1)
        a = figure1(ReleaseSession(base))
        b = figure1(ReleaseSession(other))
        differs = any(
            pa.feasible and pa.overall != pb.overall
            for pa, pb in zip(a.points, b.points)
        )
        assert differs
