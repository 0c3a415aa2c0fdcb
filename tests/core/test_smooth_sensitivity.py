"""Tests for the smooth-sensitivity framework: Lemma 8.5's bound, the
gamma-4 sampler, and numeric admissibility (Definition 8.3) checks."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from repro.core import (
    GammaAdmissible,
    LaplaceAdmissible,
    sample_gamma4,
    smooth_sensitivity,
    smooth_sensitivity_of_counts,
)
from repro.core.smooth_sensitivity import (
    GAMMA4_ACCEPT_RATE,
    GAMMA4_EXPECTED_ABS,
    GAMMA4_NORMALIZER,
    _REJECTION_BOUND,
    _gamma4_round_size,
    add_smooth_noise,
    gamma4_density,
    gamma4_quantile,
    sample_gamma4_fast,
    smooth_envelope,
)
from repro.util import as_generator


class TestSmoothEnvelope:
    """The shared one-pass envelope kernel ``max(xv·α, 1)``."""

    def test_formula(self):
        xv = np.array([0, 3, 50, 1000])
        np.testing.assert_allclose(
            smooth_envelope(xv, 0.1), [1.0, 1.0, 5.0, 100.0]
        )

    def test_bit_identical_to_checked_path(self):
        """`smooth_sensitivity_of_counts` delegates here — same ufunc
        sequence, so the two entry points can never drift."""
        rng = np.random.default_rng(3)
        xv = rng.integers(0, 5_000, size=400).astype(float)
        for alpha in (0.01, 0.1, 0.2):
            np.testing.assert_array_equal(
                smooth_envelope(xv, alpha),
                smooth_sensitivity_of_counts(xv, alpha, b=math.log(2.0)),
            )

    def test_out_buffer_reused(self):
        xv = np.array([10.0, 200.0])
        out = np.empty(2)
        result = smooth_envelope(xv, 0.1, out=out)
        assert result is out
        np.testing.assert_allclose(out, [1.0, 20.0])

    def test_no_b_check(self):
        """The envelope is mechanism-free: feasibility (Lemma 8.5's
        exp(b) >= 1+α) is the caller's check, not the kernel's."""
        np.testing.assert_allclose(smooth_envelope(np.array([5.0]), 0.2), [1.0])

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            smooth_envelope(np.array([1.0]), 0.0)


class TestSmoothSensitivityBound:
    def test_lemma_8_5_formula(self):
        xv = np.array([0, 3, 50, 1000])
        s = smooth_sensitivity_of_counts(xv, alpha=0.1, b=math.log(1.1))
        np.testing.assert_allclose(s, [1.0, 1.0, 5.0, 100.0])

    def test_unbounded_below_threshold(self):
        with pytest.raises(ValueError, match="unbounded"):
            smooth_sensitivity_of_counts(np.array([5]), alpha=0.2, b=math.log(1.1))

    def test_boundary_b_exactly_log1p_alpha(self):
        s = smooth_sensitivity_of_counts(np.array([10]), alpha=0.2, b=math.log(1.2))
        np.testing.assert_allclose(s, [2.0])

    def test_floor_of_one(self):
        """max(xv*alpha, 1): the +1 neighbor step keeps sensitivity >= 1."""
        s = smooth_sensitivity_of_counts(np.array([2]), alpha=0.01, b=0.1)
        assert s[0] == 1.0


class TestGamma4Density:
    def test_normalizer(self):
        integral, _ = integrate.quad(lambda z: 1.0 / (1.0 + z**4), -np.inf, np.inf)
        assert integral == pytest.approx(GAMMA4_NORMALIZER, rel=1e-9)

    def test_density_integrates_to_one(self):
        integral, _ = integrate.quad(gamma4_density, -np.inf, np.inf)
        assert integral == pytest.approx(1.0, rel=1e-9)

    def test_expected_abs_is_inverse_sqrt2(self):
        """Lemma 8.8 quotes the unnormalized pi/2; normalized it is 1/sqrt2."""
        integral, _ = integrate.quad(
            lambda z: abs(z) * gamma4_density(z), -np.inf, np.inf
        )
        assert integral == pytest.approx(GAMMA4_EXPECTED_ABS, rel=1e-9)
        assert GAMMA4_EXPECTED_ABS == pytest.approx(1 / math.sqrt(2))

    def test_variance_finite(self):
        integral, _ = integrate.quad(
            lambda z: z * z * gamma4_density(z), -np.inf, np.inf
        )
        assert integral == pytest.approx(1.0, rel=1e-6)  # E[Z^2] = 1 for gamma=4


class TestGamma4Sampler:
    @pytest.fixture(scope="class")
    def samples(self):
        return sample_gamma4(400_000, seed=7)

    def test_mean_zero(self, samples):
        assert abs(samples.mean()) < 0.01

    def test_expected_abs(self, samples):
        assert abs(np.abs(samples).mean() - GAMMA4_EXPECTED_ABS) < 0.01

    def test_quantiles_match_cdf_inversion(self, samples):
        for p in (0.1, 0.25, 0.75, 0.9):
            empirical = np.quantile(samples, p)
            analytic = gamma4_quantile(p)
            assert abs(empirical - analytic) < 0.02

    def test_median_zero(self):
        assert gamma4_quantile(0.5) == 0.0

    def test_heavy_tail_relative_to_gaussian(self, samples):
        """P(|Z| > 3) for h is ~ 0.0095, far above the Gaussian 0.0027."""
        assert (np.abs(samples) > 3).mean() > 0.005

    def test_histogram_matches_density(self, samples):
        grid = np.linspace(-2, 2, 21)
        histogram, _ = np.histogram(samples, bins=grid, density=True)
        centers = (grid[:-1] + grid[1:]) / 2
        np.testing.assert_allclose(histogram, gamma4_density(centers), atol=0.02)

    def test_exact_size_returned(self):
        assert sample_gamma4(1, seed=1).shape == (1,)
        assert sample_gamma4(1000, seed=1).shape == (1000,)


class TestGamma4FastSampler:
    """The oversampled single-round sampler: same target distribution as
    :func:`sample_gamma4` (the rejection test is identical), different
    bit stream (one uniform block instead of interleaved Cauchy/uniform
    draws), so it must pass the same distributional checks."""

    @pytest.fixture(scope="class")
    def samples(self):
        return sample_gamma4_fast(400_000, seed=7)

    def test_mean_zero(self, samples):
        assert abs(samples.mean()) < 0.01

    def test_expected_abs(self, samples):
        assert abs(np.abs(samples).mean() - GAMMA4_EXPECTED_ABS) < 0.01

    def test_quantiles_match_cdf_inversion(self, samples):
        for p in (0.1, 0.25, 0.75, 0.9):
            empirical = np.quantile(samples, p)
            analytic = gamma4_quantile(p)
            assert abs(empirical - analytic) < 0.02

    def test_histogram_matches_density(self, samples):
        grid = np.linspace(-2, 2, 21)
        histogram, _ = np.histogram(samples, bins=grid, density=True)
        centers = (grid[:-1] + grid[1:]) / 2
        np.testing.assert_allclose(histogram, gamma4_density(centers), atol=0.02)

    def test_shapes(self):
        assert sample_gamma4_fast(1, seed=1).shape == (1,)
        assert sample_gamma4_fast(1000, seed=1).shape == (1000,)
        assert sample_gamma4_fast((3, 5), seed=1).shape == (3, 5)

    def test_deterministic_for_fixed_seed(self):
        np.testing.assert_array_equal(
            sample_gamma4_fast(257, seed=3), sample_gamma4_fast(257, seed=3)
        )

    def test_acceptance_rate_is_exact(self):
        """P(accept) = E_Cauchy[(1+z²)/((1+z⁴)B)] = 2 - √2 exactly."""
        assert GAMMA4_ACCEPT_RATE == pytest.approx(2.0 - math.sqrt(2.0))
        integral, _ = integrate.quad(
            lambda z: 1.0 / (math.pi * (1.0 + z**4)), -np.inf, np.inf
        )
        assert integral / _REJECTION_BOUND == pytest.approx(
            GAMMA4_ACCEPT_RATE, rel=1e-9
        )

    def test_round_size_oversamples(self):
        """One round's expected yield covers the need with a ~4σ margin,
        so the tail-fill loop almost never runs a second round."""
        for need in (1, 10, 1_000, 50_000, 1_000_000):
            m = _gamma4_round_size(need)
            expected = m * GAMMA4_ACCEPT_RATE
            sigma = math.sqrt(m * GAMMA4_ACCEPT_RATE * (1 - GAMMA4_ACCEPT_RATE))
            assert expected - 3.9 * sigma >= need


def _reference_gamma4_fast(size, seed=None):
    """The sampler's earlier round code, kept verbatim: one
    ``rng.random((2, m))`` block and whole-round temporaries per round."""
    rng = as_generator(seed)
    shape = (size,) if np.isscalar(size) else tuple(size)
    total = int(np.prod(shape)) if shape else 1
    out = np.empty(total, dtype=np.float64)
    filled = 0
    while filled < total:
        m = smooth_sensitivity._gamma4_round_size(total - filled)
        u = rng.random((2, m))
        z = np.tan(np.pi * (u[0] - 0.5))
        z2 = z * z
        z4 = z2 * z2
        accepted = z[u[1] * ((1.0 + z4) * _REJECTION_BOUND) < (1.0 + z2)]
        take = min(len(accepted), total - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
    return out.reshape(shape)


class TestGamma4FastSamplerStream:
    """The sliced sampler draws the same bits as the whole-round one:
    same values, and the generator left at the same place."""

    SIZES = [1, 10, (7, 3), (1500, 503), (300, 3281)]

    @staticmethod
    def _assert_same_stream(size, seed):
        want_rng = np.random.default_rng(seed)
        got_rng = np.random.default_rng(seed)
        want = _reference_gamma4_fast(size, want_rng)
        got = sample_gamma4_fast(size, got_rng)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("size", SIZES, ids=str)
    def test_single_round_matches_reference(self, size):
        for seed in (0, 41):
            self._assert_same_stream(size, seed)

    @pytest.mark.parametrize(
        "round_size",
        [
            # Several short rounds per draw.
            lambda need: need // 2 + 1,
            # One long round whose output fills in its first slice, so
            # the rest of its slices are drawn unused.
            lambda need: 3 * need + 2 * smooth_sensitivity._GAMMA4_SLICE,
        ],
        ids=["many-rounds", "fills-early"],
    )
    @pytest.mark.parametrize("slice_size", [7, None], ids=["slice-7", "slice-default"])
    def test_rounds_and_slices_match_reference(
        self, monkeypatch, round_size, slice_size
    ):
        monkeypatch.setattr(smooth_sensitivity, "_gamma4_round_size", round_size)
        if slice_size is not None:
            monkeypatch.setattr(smooth_sensitivity, "_GAMMA4_SLICE", slice_size)
        for size in (1, 10, (7, 3), (40, 503)):
            self._assert_same_stream(size, 5)

    def test_peak_memory_is_a_few_outputs(self):
        """A (1500, 503) draw holds its output, one round's proposals
        and slice buffers — not whole-round temporaries (13× before)."""
        shape = (1500, 503)
        sample_gamma4_fast(shape, 1)
        tracemalloc.start()
        try:
            sample_gamma4_fast(shape, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * shape[0] * shape[1] * 8, peak


def _sliding_holds(density, a, epsilon1, grid):
    """Density-level sliding property: h(z) <= e^eps1 h(z + Δ) for |Δ| <= a."""
    for delta in (a, -a, a / 2):
        ratio = density(grid) / density(grid + delta)
        if ratio.max() > math.exp(epsilon1) * (1 + 1e-9):
            return False
    return True


def _dilation_holds(density, b, epsilon2, grid):
    """Density-level dilation: h(z) <= e^eps2 e^lam h(e^lam z) for |lam| <= b."""
    for lam in (b, -b, b / 2):
        ratio = density(grid) / (math.exp(lam) * density(np.exp(lam) * grid))
        if ratio.max() > math.exp(epsilon2) * (1 + 1e-9):
            return False
    return True


class TestAdmissibility:
    """Numeric verification of Definition 8.3 for both distributions."""

    GRID = np.linspace(-50, 50, 20_001)

    def test_gamma_admissible_sliding(self):
        dist = GammaAdmissible(epsilon1=1.0, epsilon2=0.5)
        assert _sliding_holds(gamma4_density, dist.a, 1.0, self.GRID)

    def test_gamma_admissible_dilation(self):
        dist = GammaAdmissible(epsilon1=1.0, epsilon2=0.5)
        assert _dilation_holds(gamma4_density, dist.b, 0.5, self.GRID)

    def test_gamma_sliding_fails_beyond_radius(self):
        """The bound is tight up to the (1+gamma) factor: sliding by a much
        larger shift must break the eps1 bound."""
        dist = GammaAdmissible(epsilon1=1.0, epsilon2=0.5)
        big_shift = 40 * dist.a
        ratio = gamma4_density(self.GRID) / gamma4_density(self.GRID + big_shift)
        assert ratio.max() > math.exp(1.0)

    def test_gamma_budget_split(self):
        dist = GammaAdmissible(epsilon1=2.0, epsilon2=1.0, gamma=4.0)
        assert dist.a == pytest.approx(0.4)
        assert dist.b == pytest.approx(0.2)
        assert dist.delta == 0.0

    def test_gamma_requires_tail_heavier_than_two(self):
        with pytest.raises(ValueError, match="gamma"):
            GammaAdmissible(epsilon1=1.0, epsilon2=1.0, gamma=2.0)

    def test_laplace_admissible_radii(self):
        dist = LaplaceAdmissible(epsilon=1.0, delta=0.05)
        assert dist.a == pytest.approx(0.5)
        assert dist.b == pytest.approx(1.0 / (2 * math.log(20)))

    def test_laplace_sliding_exact(self):
        """Laplace(1) satisfies sliding with NO failure: ratio e^{|Δ|}."""
        dist = LaplaceAdmissible(epsilon=1.0, delta=0.05)

        def laplace_density(z):
            return 0.5 * np.exp(-np.abs(z))

        assert _sliding_holds(laplace_density, dist.a, 0.5, self.GRID)

    def test_laplace_dilation_holds_within_failure_region(self):
        """Dilation for Laplace holds only up to the delta/2 failure mass:
        check the set-level inequality on tail sets numerically."""
        epsilon, delta = 1.0, 0.05
        dist = LaplaceAdmissible(epsilon=epsilon, delta=delta)
        lam = dist.b
        # Pr[Z > t] for Laplace(1) is 0.5 e^{-t}; compare tail masses.
        thresholds = np.linspace(0, 20, 400)
        mass = 0.5 * np.exp(-thresholds)
        dilated_mass = 0.5 * np.exp(-thresholds * math.exp(lam))
        violation = mass - np.exp(epsilon / 2) * dilated_mass
        assert violation.max() <= delta / 2 + 1e-12

    def test_laplace_expected_abs(self):
        assert LaplaceAdmissible(epsilon=1.0, delta=0.05).expected_abs() == 1.0


class TestAddSmoothNoise:
    def test_scales_by_sensitivity_over_a(self):
        dist = GammaAdmissible(epsilon1=2.5, epsilon2=1.0)  # a = 0.5
        counts = np.zeros(100_000)
        sensitivity = np.full(100_000, 3.0)
        noisy = add_smooth_noise(counts, sensitivity, dist, seed=3)
        expected_mean_abs = 3.0 / dist.a * GAMMA4_EXPECTED_ABS
        assert abs(np.abs(noisy).mean() - expected_mean_abs) < 0.1

    def test_unbiased(self):
        dist = LaplaceAdmissible(epsilon=2.0, delta=0.05)
        noisy = add_smooth_noise(
            np.full(100_000, 42.0), np.ones(100_000), dist, seed=4
        )
        assert abs(noisy.mean() - 42.0) < 0.05
