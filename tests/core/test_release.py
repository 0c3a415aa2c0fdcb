"""Tests for end-to-end marginal release (cell selection, budget wiring,
xv statistics, and the strong-mode worker-attribute ablation)."""

import numpy as np
import pytest

from repro.api.registry import mechanism_spec
from repro.core import (
    EREEParams,
    compute_release_statistics,
    marginal_budget,
    release_marginal,
    release_marginal_stack,
)
from repro.core.release import DEFAULT_WORKER_ATTRS
from repro.data.generator import SyntheticConfig
from repro.data.panel import PanelConfig, generate_panel
from repro.db import Marginal, per_establishment_counts
from repro.util import as_generator


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


class TestReleaseMarginalStack:
    """The stacked panel release is the per-year prologues plus one draw."""

    @pytest.fixture(scope="class")
    def years(self):
        panel = generate_panel(
            PanelConfig(base=SyntheticConfig(target_jobs=4_000, seed=31), n_years=3)
        )
        return [panel.year(t).worker_full() for t in range(3)]

    @pytest.mark.parametrize(
        "attrs, mechanism, epsilon",
        [
            (("place", "naics", "ownership"), "log-laplace", 2.0),
            (("place", "naics", "ownership"), "smooth-gamma", 2.0),
            (("place", "naics", "ownership", "sex"), "smooth-laplace", 4.0),
        ],
    )
    def test_equals_stacked_prologues_and_one_batch_draw(
        self, years, attrs, mechanism, epsilon
    ):
        params = EREEParams(alpha=0.1, epsilon=epsilon, delta=0.05)
        releases = release_marginal_stack(years, attrs, mechanism, params, seed=9)

        prologues = [compute_release_statistics(year, attrs) for year in years]
        budget = marginal_budget(
            params, years[0].table.schema, attrs, DEFAULT_WORKER_ATTRS,
            prologues[0].mode,
        )
        spec = mechanism_spec(mechanism)
        drawer = spec.create(budget.per_cell)
        true = np.stack([p.true for p in prologues])
        xv = np.stack([p.xv for p in prologues])
        released = np.stack([p.released for p in prologues])
        rng = as_generator(9)
        if spec.needs_xv:
            noisy = drawer.release_counts_batch(true, xv, 1, rng)
        else:
            noisy = drawer.release_counts_batch(true, 1, rng)
        noisy = np.where(released, noisy, 0.0)

        assert len(releases) == len(years)
        assert not np.array_equal(true[0], true[1])  # the years differ
        for t, release in enumerate(releases):
            assert release.budget == budget
            assert release.mechanism_name == mechanism
            np.testing.assert_array_equal(release.true, true[t])
            np.testing.assert_array_equal(release.released, released[t])
            np.testing.assert_array_equal(release.max_single, xv[t])
            np.testing.assert_array_equal(release.noisy, noisy[t])

    def test_mixed_schemas_rejected(self, years, small_worker_full, params):
        with pytest.raises(ValueError, match="share one schema"):
            release_marginal_stack(
                [years[0], small_worker_full], ["place"], "smooth-laplace", params
            )
