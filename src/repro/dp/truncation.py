"""Node-differentially-private Truncated Laplace baseline (Sec 6, Finding 6).

Node DP (neighbors differ in one establishment with all its jobs) has
unbounded marginal sensitivity, so the standard recourse is projection:
delete establishments until every remaining one has degree below θ, after
which the marginal has sensitivity θ and Laplace(θ/ε) noise applies.

The projection removes the large establishments that dominate skewed
employment counts, so the release carries a large, ε-independent bias —
the paper measures ≥10× the SDL error at ε = 4 with little improvement at
higher ε.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.registry import BASELINE, register_mechanism
from repro.db.join import WorkerFull
from repro.db.query import Marginal
from repro.dp.primitives import LaplaceMechanism
from repro.util import as_generator, check_positive


@dataclass(frozen=True)
class TruncationResult:
    """One Truncated-Laplace release with its bias diagnostics."""

    noisy: np.ndarray
    truncated_true: np.ndarray
    true: np.ndarray
    n_establishments_removed: int
    n_jobs_removed: int

    @property
    def truncation_bias(self) -> np.ndarray:
        """Per-cell employment removed by the projection (true - truncated)."""
        return self.true - self.truncated_true


@dataclass(frozen=True)
class TruncationProjection:
    """The deterministic, trial-invariant half of a Truncated-Laplace
    release: the degree-θ projection and its marginal tabulations.
    Compute once, reuse across noise draws."""

    true: np.ndarray
    truncated_true: np.ndarray
    n_establishments_removed: int
    n_jobs_removed: int


@register_mechanism(
    "truncated-laplace",
    kind=BASELINE,
    needs_xv=False,
    description="Node-DP baseline: degree-θ truncation projection plus "
    "Laplace(θ/ε) noise (Finding 6)",
)
@dataclass(frozen=True)
class TruncatedLaplace:
    """Node-DP marginal release via degree-θ truncation plus Laplace noise.

    Establishments with total employment ≥ θ are deleted (the truncation
    projection of [32] applied to the employer side); every cell then gets
    Laplace(θ/ε) noise.
    """

    theta: int
    epsilon: float

    def __post_init__(self):
        check_positive("theta", self.theta)
        check_positive("epsilon", self.epsilon)

    def project(
        self, worker_full: WorkerFull, marginal: Marginal
    ) -> TruncationProjection:
        """Run the (deterministic) degree-θ projection and tabulate the
        true and truncated marginals."""
        sizes = worker_full.establishment_sizes()
        keep_establishment = sizes < self.theta
        keep_job = keep_establishment[worker_full.establishment]

        true = marginal.counts(worker_full.table).astype(np.float64)
        kept = worker_full.filter(keep_job)
        truncated_true = marginal.counts(kept.table).astype(np.float64)
        return TruncationProjection(
            true=true,
            truncated_true=truncated_true,
            n_establishments_removed=int((~keep_establishment).sum()),
            n_jobs_removed=int(worker_full.n_jobs - kept.n_jobs),
        )

    def release(
        self, worker_full: WorkerFull, marginal: Marginal, seed=None
    ) -> TruncationResult:
        return self.release_batch(worker_full, marginal, n_trials=None, seed=seed)

    def release_batch(
        self,
        worker_full: WorkerFull,
        marginal: Marginal,
        n_trials: int | None = 1,
        seed=None,
    ) -> TruncationResult:
        """Release ``n_trials`` independent noisy vectors in one draw.

        The truncation projection is deterministic, so it (and the
        marginal tabulations) run once per call, whatever ``n_trials``.
        ``noisy`` is ``(n_trials, n_cells)``, or the single
        ``(n_cells,)`` vector when ``n_trials`` is None (the
        :meth:`release` behavior, same bit stream).
        """
        rng = as_generator(seed)
        projection = self.project(worker_full, marginal)
        truncated_true = projection.truncated_true

        mechanism = LaplaceMechanism(epsilon=self.epsilon, sensitivity=self.theta)
        if n_trials is None:
            noisy = mechanism.release(truncated_true, rng)
        else:
            if n_trials < 1:
                raise ValueError(f"n_trials must be >= 1, got {n_trials}")
            noisy = truncated_true + rng.laplace(
                0.0, mechanism.scale, size=(n_trials, truncated_true.size)
            )
        return TruncationResult(
            noisy=noisy,
            truncated_true=truncated_true,
            true=projection.true,
            n_establishments_removed=projection.n_establishments_removed,
            n_jobs_removed=projection.n_jobs_removed,
        )
