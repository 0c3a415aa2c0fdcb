"""The batched trial engine reproduces the per-trial loop.

For the Laplace-based mechanisms the batched noise matrix is the same
bit stream as the historical loop (numpy fills the matrix row-major from
one generator), so the statistics match exactly; Smooth Gamma's
rejection sampler batches differently, so its agreement is Monte Carlo.
Everything is bit-for-bit reproducible for a fixed seed.
"""

import numpy as np
import pytest

from repro.api import ReleaseSession
from repro.api.registry import mechanism_spec
from repro.core import EREEParams, release_marginal
from repro.engine.evaluate import (
    error_ratio_point,
    release_trials,
    release_trials_looped,
    spearman_point,
)
from repro.experiments import ExperimentConfig, WORKLOAD_1
from repro.extensions import release_marginal_weighted

PARAMS = EREEParams(alpha=0.1, epsilon=2.0, delta=0.05)
GAMMA_PARAMS = EREEParams(alpha=0.05, epsilon=2.0, delta=0.05)


@pytest.fixture(scope="module")
def context():
    return ReleaseSession(ExperimentConfig().small())


@pytest.fixture(scope="module")
def stats(context):
    return context.statistics(WORKLOAD_1)


class TestBatchedVsLooped:
    @pytest.mark.parametrize("mechanism", ["log-laplace", "smooth-laplace"])
    def test_laplace_mechanisms_bitwise(self, stats, mechanism):
        batched = release_trials(stats, mechanism, PARAMS, 7, seed=101)
        looped = release_trials_looped(stats, mechanism, PARAMS, 7, seed=101)
        np.testing.assert_array_equal(batched, np.stack(looped))

    def test_smooth_gamma_statistics_agree(self, stats):
        n_trials = 400
        batched = release_trials(stats, "smooth-gamma", GAMMA_PARAMS, n_trials, seed=102)
        looped = np.stack(
            release_trials_looped(stats, "smooth-gamma", GAMMA_PARAMS, n_trials, seed=102)
        )
        assert batched.shape == looped.shape
        # Same per-cell means within Monte Carlo tolerance (the noise is
        # symmetric with finite variance; tolerance ~ few sigma of the
        # mean over trials, aggregated over cells).
        assert abs(batched.mean() - looped.mean()) < 0.15 * looped.std() / np.sqrt(
            n_trials
        ) * np.sqrt(batched.shape[1])

    def test_infeasible_matches(self, stats):
        infeasible = EREEParams(0.2, 0.5, 0.05)
        assert release_trials(stats, "smooth-gamma", infeasible, 3, seed=1) is None
        assert (
            release_trials_looped(stats, "smooth-gamma", infeasible, 3, seed=1)
            is None
        )

    @pytest.mark.parametrize("mechanism", ["log-laplace", "smooth-laplace"])
    def test_points_match_looped_statistics(self, stats, mechanism):
        """The figure-level statistics are identical to computing them
        from the per-trial loop (same seed, same stream)."""
        from repro.metrics.error import l1_error, l1_error_batch
        from repro.metrics.ranking import spearman_correlation_batch

        point = error_ratio_point(stats, mechanism, PARAMS, 5, seed=103)
        looped = np.stack(
            release_trials_looped(stats, mechanism, PARAMS, 5, seed=103)
        )
        mask = stats.mask
        true = stats.true[mask]
        sdl = stats.sdl_noisy[mask]
        # The full-cell set still gathers through a (Fortran-ordered)
        # column copy in the reducer, so the reference must slice the
        # same way — reducing `looped` directly shifts the sum by ULPs.
        cells = np.ones(len(true), dtype=bool)
        expected = float(
            l1_error_batch(true[cells], looped[:, cells]).mean()
        ) / l1_error(true[cells], sdl[cells])
        assert point.overall == expected

        spoint = spearman_point(stats, mechanism, PARAMS, 5, seed=103)
        expected_rho = float(
            np.nanmean(spearman_correlation_batch(looped[:, cells], sdl[cells]))
        )
        assert spoint.overall == expected_rho
        assert mask.sum() == len(true)


class TestReproducibility:
    @pytest.mark.parametrize(
        "mechanism", ["log-laplace", "smooth-laplace", "smooth-gamma"]
    )
    def test_bit_for_bit_fixed_seed(self, stats, mechanism):
        params = GAMMA_PARAMS if mechanism == "smooth-gamma" else PARAMS
        a = release_trials(stats, mechanism, params, 6, seed=104)
        b = release_trials(stats, mechanism, params, 6, seed=104)
        np.testing.assert_array_equal(a, b)

    def test_point_reproducible(self, stats):
        a = error_ratio_point(stats, "smooth-gamma", GAMMA_PARAMS, 4, seed=106)
        b = error_ratio_point(stats, "smooth-gamma", GAMMA_PARAMS, 4, seed=106)
        assert a.overall == b.overall
        assert a.by_stratum == b.by_stratum


class TestBatchedReleases:
    def test_release_marginal_trials_axis(self, context):
        worker_full = context.worker_full
        release = release_marginal(
            worker_full,
            ["place", "naics", "ownership"],
            "smooth-laplace",
            PARAMS,
            seed=107,
            n_trials=5,
        )
        assert release.noisy.shape == (5, release.marginal.n_cells)
        # Suppressed cells stay zero in every trial; released rows differ.
        assert np.all(release.noisy[:, ~release.released] == 0.0)
        assert not np.array_equal(release.noisy[0], release.noisy[1])

    @pytest.mark.parametrize(
        "mechanism", ["log-laplace", "smooth-gamma", "smooth-laplace"]
    )
    def test_release_marginal_single_matches_batch_stream(
        self, context, mechanism
    ):
        """A single release is row 0 of a one-row batch draw, and both
        equal the per-trial ``release_counts`` call on the released
        cells."""
        worker_full = context.worker_full
        attrs = ["place", "naics", "ownership"]
        single = release_marginal(worker_full, attrs, mechanism, PARAMS, seed=108)
        batched = release_marginal(
            worker_full, attrs, mechanism, PARAMS, seed=108, n_trials=1
        )
        spec = mechanism_spec(mechanism)
        released = single.released
        cells = (single.true[released],)
        if spec.needs_xv:
            cells += (single.max_single[released],)
        reference = np.zeros(single.marginal.n_cells)
        reference[released] = spec.create(
            single.budget.per_cell
        ).release_counts(*cells, 108)
        assert single.noisy.shape == reference.shape
        assert released.any() and not released.all()
        np.testing.assert_array_equal(single.noisy, reference)
        np.testing.assert_array_equal(batched.noisy, reference[None, :])

    def test_weighted_release_trials_axis(self, context):
        worker_full = context.worker_full
        release = release_marginal_weighted(
            worker_full,
            ["place", "naics", "ownership", "sex", "education"],
            "smooth-laplace",
            EREEParams(alpha=0.05, epsilon=16.0, delta=0.05),
            seed=109,
            n_trials=4,
        )
        noisy = release.release.noisy
        assert noisy.shape == (4, release.release.marginal.n_cells)
        assert np.all(noisy[:, ~release.release.released] == 0.0)
