"""Algorithm 1: the Log-Laplace mechanism.

A count query has unbounded global sensitivity under α-neighbors (a count
of x can move by α·x), but its *logarithm* has global sensitivity
ln(1+α) once shifted by γ = 1/α:

    ln(x' + γ) - ln(x + γ) <= ln(1+α)   for every strong α-neighbor step,

covering both the multiplicative case (x' = (1+α)x) and the +1 case
(x' = x + 1, where the shift γ = 1/α makes ln(1 + 1/(x+γ)) <= ln(1+α)).

The mechanism perturbs ℓ = ln(n+γ) with Laplace(λ), λ = 2·ln(1+α)/ε as in
the paper's Algorithm 1 box, and returns exp(ℓ+η) - γ.  (The privacy
proof of Theorem 8.1 only needs λ = ln(1+α)/ε; we keep the published
factor 2 by default and expose ``tight_scale`` for the proof-sufficient
variant as an ablation.)

The mechanism is biased (Lemma 8.2): E[ñ] + γ = (n+γ)/(1-λ²) for λ < 1.
``debias=True`` applies the exact multiplicative correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.api.registry import register_mechanism
from repro.core.params import EREEParams
from repro.util import as_generator


@register_mechanism(
    "log-laplace",
    needs_xv=False,
    strong_worker_ok=False,
    feasible=EREEParams.log_laplace_has_bounded_mean,
    description="Algorithm 1: multiplicative Laplace noise on the shifted "
    "log count; needs no per-cell statistics",
    unit_noise="laplace",
)
@dataclass(frozen=True)
class LogLaplace:
    """The Log-Laplace mechanism for (α, ε)-ER-EE private counts.

    Satisfies (α, ε)-ER-EE privacy for establishment-attribute queries
    and weak (α, ε)-ER-EE privacy for queries that also involve worker
    attributes (Theorem 8.1).  Requires no per-cell data statistics
    (unlike the smooth-sensitivity mechanisms).
    """

    params: EREEParams
    tight_scale: bool = False
    debias: bool = False

    @property
    def name(self) -> str:
        return "Log-Laplace"

    @property
    def gamma(self) -> float:
        """The count shift γ = 1/α."""
        return 1.0 / self.params.alpha

    @property
    def scale(self) -> float:
        """Laplace scale on the log count."""
        scale = self.params.log_laplace_scale()
        return scale / 2.0 if self.tight_scale else scale

    def has_bounded_mean(self) -> bool:
        """Lemma 8.2: the output expectation is finite iff scale < 1."""
        return self.scale < 1.0

    def release_counts(self, counts: np.ndarray, seed=None) -> np.ndarray:
        """Release noisy counts for a vector of true counts (one draw each)."""
        rng = as_generator(seed)
        counts = np.asarray(counts, dtype=np.float64)
        log_shifted = self.shifted_log(counts)
        eta = rng.laplace(0.0, self.scale, size=counts.shape)
        noisy = np.exp(log_shifted + eta) - self.gamma
        if self.debias:
            noisy = self.debiased(noisy)
        return noisy

    def release_counts_batch(
        self, counts: np.ndarray, n_trials: int = 1, seed=None
    ) -> np.ndarray:
        """``(n_trials, n_cells)`` noisy matrix from one vectorized draw.

        ``counts`` is a per-cell vector replicated across trials, or a
        ``(k, n_cells)`` stack of distinct truths sharing one draw (the
        stacked form carries its own leading axis, so ``n_trials`` must
        stay 1 or equal k).  The
        Laplace matrix is filled row-major from the same bit stream the
        per-trial loop consumes, so for a fixed seed the batch is
        bit-for-bit the concatenation of ``n_trials`` sequential
        :meth:`release_counts` calls.
        """
        rng = as_generator(seed)
        counts = np.asarray(counts, dtype=np.float64)
        if n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {n_trials}")
        shape = np.broadcast_shapes(counts.shape, (n_trials, counts.shape[-1]))
        eta = rng.laplace(0.0, self.scale, size=shape)
        noisy = np.exp(self.shifted_log(counts) + eta) - self.gamma
        if self.debias:
            noisy = self.debiased(noisy)
        return noisy

    def shifted_log(self, counts: np.ndarray) -> np.ndarray:
        """The shifted log count ℓ = ln(n + γ) that Algorithm 1 perturbs."""
        return np.log(np.asarray(counts, dtype=np.float64) + self.gamma)

    def release_counts_from_unit(
        self,
        counts: np.ndarray,
        unit: np.ndarray,
        out: np.ndarray | None = None,
        *,
        shifted_log: np.ndarray | None = None,
    ) -> np.ndarray:
        """Algorithm 1 release from an externally drawn Laplace(1) matrix.

        ``η = scale · unit`` reproduces the Laplace(scale) perturbation,
        so the fused sweep path can share one unit draw across an α
        group's ε points; unlike the smooth mechanisms the transform is
        nonlinear (the exp), so each ε still pays its own apply pass.
        Every step runs in place in ``out`` (allocated when not given,
        never ``unit``), which is returned; the values do not depend on
        whether ``out`` was passed.  A caller that applies the transform
        to many blocks of unit rows passes ``shifted_log``, the
        :meth:`shifted_log` of ``counts``, so it is taken once, not per
        block; the values are the same either way.
        """
        counts = np.asarray(counts, dtype=np.float64)
        unit = np.asarray(unit, dtype=np.float64)
        if out is None:
            out = np.empty(np.broadcast_shapes(counts.shape, unit.shape))
        if shifted_log is None:
            shifted_log = self.shifted_log(counts)
        gamma = self.gamma
        np.multiply(self.scale, unit, out=out)
        out += shifted_log
        np.exp(out, out=out)
        out -= gamma
        if self.debias:
            self.debiased(out, out=out)
        return out

    def debiased(
        self, noisy: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Exact multiplicative bias correction from Lemma 8.2.

        E[ñ + γ] = (n + γ)/(1 - λ²), so (ñ + γ)(1 - λ²) - γ is unbiased.
        Only valid when the mean is bounded (λ < 1).  Written into
        ``out`` when given.
        """
        scale = self.scale
        if scale >= 1.0:
            raise ValueError(
                f"Log-Laplace mean is unbounded at scale {scale:.4g} >= 1; "
                "debiasing undefined (Lemma 8.2)"
            )
        out = np.add(np.asarray(noisy, dtype=np.float64), self.gamma, out=out)
        out *= 1.0 - scale**2
        out -= self.gamma
        return out

    def expected_value(self, count: float) -> float:
        """E[ñ] for a true count (Lemma 8.2); inf when λ >= 1."""
        scale = self.scale
        if scale >= 1.0:
            return math.inf
        return (count + self.gamma) / (1.0 - scale**2) - self.gamma

    def squared_relative_error_bound(self) -> float:
        """Theorem 8.3's bound on E[((x - ñ)/x)²]; inf when λ >= 1/2.

        The bound is (2λ² + 4λ⁴)(1+γ)²/((1-4λ²)(1-λ²)); the (1+γ)² factor
        covers the worst case x = 1.
        """
        scale = self.scale
        if scale >= 0.5:
            return math.inf
        lam2 = scale * scale
        core = (2.0 * lam2 + 4.0 * lam2 * lam2) / ((1.0 - 4.0 * lam2) * (1.0 - lam2))
        return core * (1.0 + self.gamma) ** 2

    def log_density(self, output: np.ndarray, count: float) -> np.ndarray:
        """Log density of the released value at ``output`` for true ``count``.

        Change of variables from η: for ñ = exp(ln(n+γ)+η) - γ the density
        at o is Laplace(λ) at η = ln(o+γ) - ln(n+γ) divided by (o+γ).
        Only defined for o > -γ; used by the privacy-verification tests.
        """
        output = np.asarray(output, dtype=np.float64)
        gamma = self.gamma
        shifted = output + gamma
        if np.any(shifted <= 0):
            raise ValueError("Log-Laplace outputs always exceed -gamma")
        eta = np.log(shifted) - math.log(count + gamma)
        scale = self.scale
        return -np.abs(eta) / scale - math.log(2.0 * scale) - np.log(shifted)
