"""Equivalence guard: the facade must reproduce the pre-redesign arrays.

``ReleaseSession.run`` and the ``release_marginal`` path must produce
*identical* noisy arrays for a fixed seed — the API redesign re-routes
the plumbing but may not change a single published number.  These tests
pin that bit-for-bit, per mechanism, for single and batched releases,
and across the session's statistics cache (a cache hit must not shift
the noise stream).
"""

import numpy as np
import pytest

from repro.api import ReleaseRequest, ReleaseSession
from repro.core import EREEParams, release_marginal
from repro.data import SyntheticConfig
from repro.experiments import ExperimentConfig

PARAMS = EREEParams(alpha=0.1, epsilon=2.0, delta=0.05)
ATTRS = ("place", "naics", "ownership")
WORKER_ATTRS = ("place", "sex", "education")


@pytest.fixture(scope="module")
def session():
    config = ExperimentConfig(
        data=SyntheticConfig(target_jobs=8_000, seed=123), n_trials=3, seed=7
    )
    return ReleaseSession(config)


def _facade(session, attrs, mechanism, seed, n_trials=None, mode=None, **kw):
    return session.run(
        ReleaseRequest(
            attrs=attrs,
            mechanism=mechanism,
            alpha=PARAMS.alpha,
            epsilon=PARAMS.epsilon,
            delta=PARAMS.delta,
            mode=mode,
            seed=seed,
            n_trials=n_trials,
            **kw,
        )
    )


class TestBitForBit:
    @pytest.mark.parametrize(
        "mechanism", ["log-laplace", "smooth-gamma", "smooth-laplace"]
    )
    def test_single_release_identical(self, session, mechanism):
        old = release_marginal(
            session.worker_full, ATTRS, mechanism, PARAMS, seed=42
        )
        new = _facade(session, ATTRS, mechanism, seed=42)
        np.testing.assert_array_equal(new.noisy, old.noisy)
        np.testing.assert_array_equal(new.true, old.true)
        np.testing.assert_array_equal(new.released, old.released)
        np.testing.assert_array_equal(new.release.max_single, old.max_single)
        assert new.budget.per_cell == old.budget.per_cell

    @pytest.mark.parametrize(
        "mechanism", ["log-laplace", "smooth-gamma", "smooth-laplace"]
    )
    def test_batched_release_identical(self, session, mechanism):
        old = release_marginal(
            session.worker_full, ATTRS, mechanism, PARAMS, seed=43, n_trials=5
        )
        new = _facade(session, ATTRS, mechanism, seed=43, n_trials=5)
        np.testing.assert_array_equal(new.noisy, old.noisy)

    def test_weak_worker_marginal_identical(self, session):
        # ε large enough that the d=8 weak split stays feasible per cell.
        params = EREEParams(alpha=0.1, epsilon=16.0, delta=0.05)
        old = release_marginal(
            session.worker_full, WORKER_ATTRS, "smooth-laplace", params, seed=44
        )
        new = session.run(
            ReleaseRequest(
                attrs=WORKER_ATTRS,
                mechanism="smooth-laplace",
                alpha=params.alpha,
                epsilon=params.epsilon,
                delta=params.delta,
                seed=44,
            )
        )
        np.testing.assert_array_equal(new.noisy, old.noisy)
        assert new.budget.mode == "weak"
        assert new.budget.worker_domain == old.budget.worker_domain

    def test_strong_ablation_identical(self, session):
        old = release_marginal(
            session.worker_full,
            WORKER_ATTRS,
            "smooth-laplace",
            PARAMS,
            mode="strong",
            seed=45,
        )
        new = _facade(
            session, WORKER_ATTRS, "smooth-laplace", seed=45, mode="strong"
        )
        np.testing.assert_array_equal(new.noisy, old.noisy)
        np.testing.assert_array_equal(new.release.max_single, old.max_single)

    def test_cache_hit_does_not_shift_the_stream(self, session):
        """Two identical requests must agree with two shim calls even
        though the second session run hits the statistics cache."""
        shim = [
            release_marginal(
                session.worker_full, ATTRS, "smooth-gamma", PARAMS, seed=s
            ).noisy
            for s in (46, 47)
        ]
        facade = [
            _facade(session, ATTRS, "smooth-gamma", seed=s).noisy
            for s in (46, 47)
        ]
        np.testing.assert_array_equal(facade[0], shim[0])
        np.testing.assert_array_equal(facade[1], shim[1])
