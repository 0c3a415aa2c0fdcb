"""Tests for Algorithm 1 (Log-Laplace): privacy density ratios across
strong α-neighbor counts, the Lemma 8.2 bias formula, and the Theorem 8.3
relative-error bound."""

import math

import numpy as np
import pytest

from repro.core import EREEParams, LogLaplace


@pytest.fixture()
def mechanism():
    return LogLaplace(EREEParams(alpha=0.1, epsilon=2.0))


class TestBasics:
    def test_gamma_is_inverse_alpha(self, mechanism):
        assert mechanism.gamma == pytest.approx(10.0)

    def test_scale_matches_algorithm_box(self, mechanism):
        assert mechanism.scale == pytest.approx(2 * math.log(1.1) / 2.0)

    def test_tight_scale_halves(self):
        tight = LogLaplace(EREEParams(alpha=0.1, epsilon=2.0), tight_scale=True)
        assert tight.scale == pytest.approx(math.log(1.1) / 2.0)

    def test_outputs_above_negative_gamma(self, mechanism):
        noisy = mechanism.release_counts(np.zeros(10_000), seed=1)
        assert noisy.min() > -mechanism.gamma

    def test_reproducible(self, mechanism):
        a = mechanism.release_counts(np.arange(100.0), seed=9)
        b = mechanism.release_counts(np.arange(100.0), seed=9)
        np.testing.assert_array_equal(a, b)


class TestReleaseFromUnit:
    @pytest.mark.parametrize("debias", [False, True])
    def test_out_matches_the_allocating_call_bit_for_bit(self, debias):
        """The family kernel writes rows into a ranker's scratch block."""
        mechanism = LogLaplace(EREEParams(alpha=0.1, epsilon=2.0), debias=debias)
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 500, size=40).astype(np.float64)
        unit = rng.laplace(size=(7, 40))
        unit_before = unit.copy()
        expected = mechanism.release_counts_from_unit(counts, unit)
        out = np.full_like(unit, np.nan)
        got = mechanism.release_counts_from_unit(counts, unit, out=out)
        assert got is out
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
        np.testing.assert_array_equal(unit, unit_before)


class TestPrivacyInequality:
    """Theorem 8.1 at density level: for strong α-neighbor counts n, n'
    the output density ratio is bounded by e^eps everywhere."""

    @pytest.mark.parametrize("alpha,epsilon", [(0.1, 2.0), (0.05, 0.5), (0.2, 4.0)])
    @pytest.mark.parametrize("base", [0, 1, 7, 100, 5000])
    def test_density_ratio_bounded(self, alpha, epsilon, base):
        mechanism = LogLaplace(EREEParams(alpha=alpha, epsilon=epsilon))
        neighbors = {base + 1, math.ceil((1 + alpha) * base)} - {base}
        outputs = np.concatenate(
            [
                np.linspace(-mechanism.gamma + 1e-6, base * 2 + 50, 4001),
                np.geomspace(base + 1.0, (base + 10) * 100, 200),
            ]
        )
        for other in neighbors:
            log_ratio = mechanism.log_density(outputs, base) - mechanism.log_density(
                outputs, other
            )
            assert np.abs(log_ratio).max() <= epsilon + 1e-9

    def test_density_ratio_violated_for_non_neighbors(self):
        """Counts several α-steps apart exceed e^eps (they cost d·eps,
        Equation 8); checked with the proof-tight scale where one step
        costs exactly eps."""
        mechanism = LogLaplace(
            EREEParams(alpha=0.1, epsilon=2.0), tight_scale=True
        )
        base = 1000
        far = math.ceil(1.1 * 1.1 * base)
        outputs = np.linspace(500, 2000, 2001)
        log_ratio = mechanism.log_density(outputs, base) - mechanism.log_density(
            outputs, far
        )
        assert np.abs(log_ratio).max() > 2.0

    def test_density_integrates_to_one(self):
        mechanism = LogLaplace(EREEParams(alpha=0.1, epsilon=2.0))
        from scipy import integrate

        value, _ = integrate.quad(
            lambda o: math.exp(mechanism.log_density(np.array([o]), 50.0)[0]),
            -mechanism.gamma + 1e-12,
            5e4,
            limit=200,
        )
        assert value == pytest.approx(1.0, abs=1e-4)


class TestBias:
    def test_lemma_8_2_expectation(self):
        mechanism = LogLaplace(EREEParams(alpha=0.1, epsilon=1.0))
        x = 100.0
        draws = mechanism.release_counts(np.full(400_000, x), seed=5)
        lam = mechanism.scale
        expected = (x + mechanism.gamma) / (1 - lam**2) - mechanism.gamma
        assert mechanism.expected_value(x) == pytest.approx(expected)
        assert abs(draws.mean() - expected) < 0.25

    def test_unbounded_mean_when_scale_ge_one(self):
        mechanism = LogLaplace(EREEParams(alpha=0.2, epsilon=0.25))
        assert mechanism.scale > 1
        assert mechanism.expected_value(10.0) == math.inf

    def test_debias_recovers_truth_in_expectation(self):
        mechanism = LogLaplace(EREEParams(alpha=0.1, epsilon=1.0), debias=True)
        x = 100.0
        draws = mechanism.release_counts(np.full(400_000, x), seed=6)
        assert abs(draws.mean() - x) < 0.25

    def test_debias_rejected_when_mean_unbounded(self):
        mechanism = LogLaplace(EREEParams(alpha=0.2, epsilon=0.25))
        with pytest.raises(ValueError, match="unbounded"):
            mechanism.debiased(np.array([1.0]))


class TestRelativeErrorBound:
    def test_theorem_8_3_bound_holds_empirically(self):
        params = EREEParams(alpha=0.05, epsilon=2.0)
        mechanism = LogLaplace(params)
        assert mechanism.scale < 0.5
        bound = mechanism.squared_relative_error_bound()
        x = 1.0  # worst case: the bound's (1+gamma)^2 factor covers x = 1
        draws = mechanism.release_counts(np.full(400_000, x), seed=7)
        empirical = (((x - draws) / x) ** 2).mean()
        assert empirical <= bound

    def test_bound_infinite_beyond_half(self):
        mechanism = LogLaplace(EREEParams(alpha=0.3, epsilon=1.0))
        assert mechanism.scale > 0.5
        assert mechanism.squared_relative_error_bound() == math.inf

    def test_bound_decreases_with_epsilon(self):
        low = LogLaplace(EREEParams(alpha=0.05, epsilon=1.0))
        high = LogLaplace(EREEParams(alpha=0.05, epsilon=4.0))
        assert (
            high.squared_relative_error_bound()
            < low.squared_relative_error_bound()
        )
