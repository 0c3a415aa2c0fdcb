"""Tests for end-to-end marginal release (cell selection, budget wiring,
xv statistics, and the strong-mode worker-attribute ablation)."""

import numpy as np
import pytest

from repro.core import EREEParams, release_marginal
from repro.db import Marginal, per_establishment_counts


@pytest.fixture()
def params():
    return EREEParams(alpha=0.1, epsilon=2.0, delta=0.05)


class TestReleaseMarginal:
    def test_establishment_marginal_strong_mode(self, small_worker_full, params):
        release = release_marginal(
            small_worker_full, ["place", "naics", "ownership"],
            "smooth-laplace", params, seed=1,
        )
        assert release.budget.mode == "strong"
        assert release.budget.per_cell.epsilon == 2.0

    def test_worker_marginal_defaults_to_weak(self, small_worker_full, params):
        release = release_marginal(
            small_worker_full, ["place", "naics", "ownership", "sex"],
            "smooth-laplace", params.with_epsilon(4.0), seed=1,
        )
        assert release.budget.mode == "weak"
        assert release.budget.per_cell.epsilon == pytest.approx(2.0)

    def test_released_cells_have_establishments(self, small_worker_full, params):
        release = release_marginal(
            small_worker_full, ["place", "naics", "ownership"],
            "log-laplace", params, seed=2,
        )
        # Released iff >= 1 establishment: counts of unreleased cells are 0.
        assert np.all(release.true[~release.released] == 0)
        # Here every cell with jobs is released.
        assert np.all(release.released[release.true > 0])

    def test_worker_zero_cells_released(self, small_worker_full, params):
        """Worker-attribute slices of a published workplace cell must be
        released even when empty (zeros are confidential for workers)."""
        release = release_marginal(
            small_worker_full, ["place", "naics", "ownership", "sex", "education"],
            "smooth-laplace", params.with_epsilon(16.0), seed=3,
        )
        zero_released = (release.true == 0) & release.released
        assert zero_released.any()
        # Noise must actually be added to those zeros.
        assert np.abs(release.noisy[zero_released]).max() > 0

    def test_suppressed_cells_zero(self, small_worker_full, params):
        release = release_marginal(
            small_worker_full, ["place", "naics", "ownership"],
            "smooth-gamma", params, seed=4,
        )
        assert np.all(release.noisy[~release.released] == 0)

    def test_xv_matches_query_engine(self, small_worker_full, params):
        release = release_marginal(
            small_worker_full, ["place", "naics", "ownership"],
            "smooth-laplace", params, seed=5,
        )
        marginal = Marginal(
            small_worker_full.table.schema, ["place", "naics", "ownership"]
        )
        stats = per_establishment_counts(
            marginal.cell_index(small_worker_full.table),
            small_worker_full.establishment,
            marginal.n_cells,
        )
        np.testing.assert_array_equal(release.max_single, stats.max_single)

    def test_strong_worker_mode_uses_total_sizes(self, small_worker_full, params):
        """The strong-neighbor ablation: xv becomes the max establishment
        TOTAL size in the workplace cell, inflating the noise."""
        weak = release_marginal(
            small_worker_full, ["place", "naics", "ownership", "sex"],
            "smooth-laplace", params.with_epsilon(8.0), mode="weak", seed=6,
        )
        strong = release_marginal(
            small_worker_full, ["place", "naics", "ownership", "sex"],
            "smooth-laplace", params.with_epsilon(8.0), mode="strong", seed=6,
        )
        # Strong xv >= weak xv everywhere, strictly greater somewhere.
        assert np.all(strong.max_single >= weak.max_single)
        assert (strong.max_single > weak.max_single).any()

    def test_strong_worker_mode_rejects_log_laplace(self, small_worker_full, params):
        with pytest.raises(ValueError, match="no strong-mode guarantee"):
            release_marginal(
                small_worker_full, ["place", "sex"],
                "log-laplace", params, mode="strong", seed=7,
            )

    def test_invalid_mode_rejected(self, small_worker_full, params):
        with pytest.raises(ValueError, match="mode"):
            release_marginal(
                small_worker_full, ["place"], "log-laplace", params,
                mode="paranoid", seed=8,
            )

    def test_reproducible_given_seed(self, small_worker_full, params):
        a = release_marginal(
            small_worker_full, ["naics"], "smooth-laplace", params, seed=9
        )
        b = release_marginal(
            small_worker_full, ["naics"], "smooth-laplace", params, seed=9
        )
        np.testing.assert_array_equal(a.noisy, b.noisy)

    def test_n_released(self, small_worker_full, params):
        release = release_marginal(
            small_worker_full, ["naics"], "log-laplace", params, seed=10
        )
        assert release.n_released == int(release.released.sum())
