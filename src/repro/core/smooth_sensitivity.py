"""Extended smooth-sensitivity framework (Sec 8.2 of the paper).

Local sensitivity of a count under α-neighbors depends on the data: if
``xv`` is the largest number of workers a single establishment contributes
to the cell, one neighbor step can change the count by up to
``max(xv·α, 1)`` (Lemma 8.5).  Adding noise scaled to *local* sensitivity
is not private by itself, so Nissim et al.'s smooth-sensitivity upper
bound is used; Lemma 8.5 shows that for these count queries the local
sensitivity is already b-smooth whenever ``exp(b) >= 1 + α`` (and the
smooth bound is infinite otherwise).

Noise comes from an *(a, b)-admissible* distribution (Definition 8.3 —
the paper's flexible-budget-split generalization of [38]):

- the heavy-tailed ``h(z) ∝ 1/(1 + z^4)`` is (ε1/5, ε2/5)-admissible for
  any split ε1 + ε2 <= ε with δ = 0 (Lemma 8.6 with γ = 4);
- Laplace(1) is (ε/2, ε/(2 ln(1/δ)))-admissible with failure δ
  (Lemma 9.1).

Theorem 8.4: releasing ``q(x) + S(x)/a · Z`` with Z admissible and S a
b-smooth upper bound on local sensitivity is (α, ε)-ER-EE private.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.util import as_generator, check_fraction, check_positive

# Normalizing constant of 1/(1+z^4) over the real line: ∫ dz/(1+z^4) = π/√2.
GAMMA4_NORMALIZER = math.pi / math.sqrt(2.0)

# E|Z| for the normalized density (√2/π)/(1+z^4): (π/2)/(π/√2) = 1/√2.
# (Lemma 8.8 quotes π/2, the unnormalized integral; the normalized value
# is what the error actually scales with.)
GAMMA4_EXPECTED_ABS = 1.0 / math.sqrt(2.0)

# Rejection bound: max over z of (1+z²)/(1+z⁴) = (1+√2)/2 at z² = √2 - 1.
_REJECTION_BOUND = (1.0 + math.sqrt(2.0)) / 2.0

# Exact acceptance probability of the Cauchy-proposal rejection sampler:
# E[(1+Z²)/((1+Z⁴)·B)] under the Cauchy = (π/√2)/(π·B) = 2 - √2 ≈ 0.5858.
GAMMA4_ACCEPT_RATE = 2.0 - math.sqrt(2.0)


def smooth_envelope(
    max_single: np.ndarray, alpha: float, out: np.ndarray | None = None
) -> np.ndarray:
    """The smooth-sensitivity envelope ``max(xv·α, 1)`` as one kernel.

    The single vectorized pass behind every smooth-sensitivity value in
    the library: two ufunc calls (a multiply and an in-place maximum),
    no intermediate beyond the output buffer, no per-point Python.  Both
    the per-point release path (:func:`smooth_sensitivity_of_counts`,
    which adds the Lemma 8.5 b-check) and the sweep engine's per-α
    envelope cache (:meth:`repro.engine.points.WorkloadStatistics.envelope`)
    call this, so the two paths can never drift apart numerically.

    ``out`` reuses a caller-owned buffer of ``max_single``'s shape.
    Note the envelope itself is mechanism-free — the dilation-radius
    feasibility check belongs to the mechanism's b, not to S*.
    """
    check_positive("alpha", alpha)
    max_single = np.asarray(max_single, dtype=np.float64)
    scaled = np.multiply(max_single, alpha, out=out)
    return np.maximum(scaled, 1.0, out=scaled)


def smooth_sensitivity_of_counts(
    max_single: np.ndarray, alpha: float, b: float
) -> np.ndarray:
    """Per-cell b-smooth sensitivity ``S* = max(xv·α, 1)`` (Lemma 8.5).

    ``max_single`` holds ``xv`` per cell: the largest count any single
    establishment contributes to the cell.  Raises when ``exp(b) < 1+α``,
    where the smooth sensitivity is unbounded and no finite noise scale is
    private.
    """
    check_positive("alpha", alpha)
    if math.exp(b) < (1.0 + alpha) * (1.0 - 1e-12):
        raise ValueError(
            f"smooth sensitivity is unbounded: exp(b)={math.exp(b):.6g} < "
            f"1+alpha={1 + alpha:.6g} (Lemma 8.5)"
        )
    return smooth_envelope(max_single, alpha)


def gamma4_density(z: np.ndarray) -> np.ndarray:
    """Normalized density h(z) = (√2/π) / (1 + z⁴)."""
    z = np.asarray(z, dtype=np.float64)
    z2 = z * z
    return 1.0 / (GAMMA4_NORMALIZER * (1.0 + z2 * z2))


def sample_gamma4(size, seed=None) -> np.ndarray:
    """Draw from h(z) ∝ 1/(1 + z⁴) by rejection from a standard Cauchy.

    The ratio of the target to the Cauchy proposal is proportional to
    ``(1+z²)/(1+z⁴)``, maximized at ``z² = √2 - 1`` with value (1+√2)/2,
    giving acceptance probability ≈ 0.586 per proposal.

    ``size`` may be an int or a shape tuple such as ``(n_trials, n_cells)``;
    the whole batch is filled from one rejection stream, so a matrix draw
    costs the same randomness as the equivalent flat draw.
    """
    rng = as_generator(seed)
    shape = (size,) if np.isscalar(size) else tuple(size)
    total = int(np.prod(shape)) if shape else 1
    out = np.empty(total, dtype=np.float64)
    filled = 0
    while filled < total:
        need = total - filled
        # Draw ~1.8x the need so most batches finish in one round.
        batch = max(32, int(need / 0.55) + 8)
        z = rng.standard_cauchy(batch)
        # Explicit multiplies: np.power's generic pow is ~50x slower than
        # two multiplications on this hot path.
        z2 = z * z
        z4 = z2 * z2
        accept_probability = (1.0 + z2) / ((1.0 + z4) * _REJECTION_BOUND)
        accepted = z[rng.random(batch) < accept_probability]
        take = min(len(accepted), need)
        out[filled : filled + take] = accepted[:take]
        filled += take
    return out.reshape(shape)


def _gamma4_round_size(need: int) -> int:
    """Proposals for one rejection round sized so the round almost
    always yields ``need`` acceptances: the mean need/p plus four
    binomial standard deviations (shortfall probability ~3e-5)."""
    p = GAMMA4_ACCEPT_RATE
    return int(need / p + 4.0 * math.sqrt(need * (1.0 - p)) / p) + 16


# Acceptance uniforms per slice of a :func:`sample_gamma4_fast` round.
_GAMMA4_SLICE = 1 << 16


def sample_gamma4_fast(size, seed=None) -> np.ndarray:
    """Draw from h(z) ∝ 1/(1 + z⁴): same rejection scheme as
    :func:`sample_gamma4`, restructured for throughput.

    Two changes, neither affecting exactness: a round of ``m`` proposals
    reads ``2m`` uniforms, the first ``m`` turned into Cauchy proposals
    by the inverse-CDF transform ``tan(π(u - ½))`` and the next ``m``
    used for the acceptance tests, and the round is sized from the exact
    acceptance rate 2 - √2 with a ~4σ margin so nearly every draw
    completes in a single round, with a short tail fill for the rare
    shortfall.

    Memory stays bounded: the proposals are transformed in place, and
    the acceptance uniforms are drawn and tested in fixed slices of
    reused buffers, so a draw holds its output, one round's proposals
    (about 1.7× the output) and a few slice buffers — about 3× its
    output in all.  Every slice is drawn even once the output is full,
    so the generator ends a draw where one ``rng.random((2, m))`` per
    round leaves it.

    The output distribution is identical to :func:`sample_gamma4` but the
    bit *stream* is not — callers pinning byte-identical releases (the
    default sweep path) must keep using :func:`sample_gamma4`; the fused
    sweep path, whose streams are new by construction, uses this one.
    """
    rng = as_generator(seed)
    shape = (size,) if np.isscalar(size) else tuple(size)
    total = int(np.prod(shape)) if shape else 1
    out = np.empty(total, dtype=np.float64)
    filled = 0
    while filled < total:
        m = _gamma4_round_size(total - filled)
        z = rng.random(m)
        z -= 0.5
        z *= np.pi
        np.tan(z, out=z)
        width = min(m, _GAMMA4_SLICE)
        buffers = np.empty((3, width))
        accept = np.empty(width, dtype=bool)
        for start in range(0, m, width):
            stop = min(start + width, m)
            u, z2, bound = buffers[:, : stop - start]
            rng.random(out=u)
            if filled == total:
                continue
            proposals = z[start:stop]
            np.multiply(proposals, proposals, out=z2)
            np.multiply(z2, z2, out=bound)
            bound += 1.0
            bound *= _REJECTION_BOUND
            u *= bound
            z2 += 1.0
            accepted = proposals[np.less(u, z2, out=accept[: stop - start])]
            take = min(len(accepted), total - filled)
            out[filled : filled + take] = accepted[:take]
            filled += take
    return out.reshape(shape)


def gamma4_quantile(p: float) -> float:
    """Numeric inverse CDF of the normalized h (bisection; tests/analysis)."""
    check_fraction("p", p)
    if abs(p - 0.5) < 1e-15:
        return 0.0

    def cdf(x: float) -> float:
        # CDF via the closed-form antiderivative of 1/(1+z^4).
        return 0.5 + _gamma4_signed_integral(x) / GAMMA4_NORMALIZER

    low, high = -1e8, 1e8
    for _ in range(200):
        mid = (low + high) / 2.0
        if cdf(mid) < p:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


def _gamma4_signed_integral(x: float) -> float:
    """∫_0^x dz/(1+z⁴), odd in x (closed form with atan and log)."""
    sign = 1.0 if x >= 0 else -1.0
    x = abs(x)
    r2 = math.sqrt(2.0)
    # Standard antiderivative; the atan term is written with atan2 to stay
    # continuous across x = 1.
    log_term = math.log((x * x + r2 * x + 1.0) / (x * x - r2 * x + 1.0))
    atan_term = math.atan2(r2 * x, 1.0 - x * x)
    return sign * (log_term + 2.0 * atan_term) / (4.0 * r2)


@dataclass(frozen=True)
class GammaAdmissible:
    """The (ε1/(1+γ), ε2/(1+γ))-admissible heavy-tailed noise (Lemma 8.6).

    Only γ = 4 guarantees finite mean and variance among small even
    integer exponents, and it is the paper's choice; other γ > 2 values
    are allowed for experimentation (mean exists for γ > 2).
    """

    epsilon1: float
    epsilon2: float
    gamma: float = 4.0

    def __post_init__(self):
        check_positive("epsilon1", self.epsilon1)
        check_positive("epsilon2", self.epsilon2)
        if self.gamma <= 2.0:
            raise ValueError(
                f"gamma must exceed 2 for finite expected error, got {self.gamma}"
            )

    @property
    def a(self) -> float:
        """Sliding radius: noise scaled by S/a tolerates |Δ| <= a shifts."""
        return self.epsilon1 / (1.0 + self.gamma)

    @property
    def b(self) -> float:
        """Dilation radius: the smoothing parameter the scale may vary by."""
        return self.epsilon2 / (1.0 + self.gamma)

    @property
    def delta(self) -> float:
        return 0.0

    def sample(self, size, seed=None) -> np.ndarray:
        """Unit noise of shape ``size`` (int or tuple) from one stream."""
        if self.gamma != 4.0:
            raise NotImplementedError("sampling implemented for gamma = 4 only")
        return sample_gamma4(size, seed)

    def expected_abs(self) -> float:
        if self.gamma != 4.0:
            raise NotImplementedError("moments implemented for gamma = 4 only")
        return GAMMA4_EXPECTED_ABS


@dataclass(frozen=True)
class LaplaceAdmissible:
    """Laplace(1): (ε/2, ε/(2 ln(1/δ)))-admissible with failure δ (Lemma 9.1)."""

    epsilon: float
    delta: float

    def __post_init__(self):
        check_positive("epsilon", self.epsilon)
        check_fraction("delta", self.delta)

    @property
    def a(self) -> float:
        return self.epsilon / 2.0

    @property
    def b(self) -> float:
        return self.epsilon / (2.0 * math.log(1.0 / self.delta))

    def sample(self, size, seed=None) -> np.ndarray:
        rng = as_generator(seed)
        return rng.laplace(0.0, 1.0, size=size)

    def expected_abs(self) -> float:
        return 1.0


def add_smooth_noise(
    counts: np.ndarray,
    smooth_sensitivity: np.ndarray,
    distribution,
    seed=None,
) -> np.ndarray:
    """Theorem 8.4 release: ``q(x) + S(x)/a · Z`` per cell.

    ``distribution`` is an admissible distribution exposing ``a`` and
    ``sample``; ``smooth_sensitivity`` must be a b-smooth upper bound for
    the distribution's dilation radius ``b``.
    """
    counts = np.asarray(counts, dtype=np.float64)
    smooth_sensitivity = np.asarray(smooth_sensitivity, dtype=np.float64)
    noise = distribution.sample(counts.size, seed).reshape(counts.shape)
    return counts + smooth_sensitivity / distribution.a * noise


def add_smooth_noise_batch(
    counts: np.ndarray,
    smooth_sensitivity: np.ndarray,
    distribution,
    n_trials: int = 1,
    seed=None,
) -> np.ndarray:
    """Batched Theorem 8.4 release: a ``(n_trials, n_cells)`` noise matrix
    from a single vectorized draw of the admissible distribution.

    ``counts`` and ``smooth_sensitivity`` are per-cell vectors (broadcast
    across trials) or ``(k, n_cells)`` stacks of distinct truths (e.g. the
    years of a panel); in the stacked case ``n_trials`` must broadcast with
    the leading axis.  The noise matrix is one ``distribution.sample``
    call, so the bit stream matches ``n_trials`` successive per-trial draws
    for distributions sampled by inversion (Laplace).
    """
    counts = np.asarray(counts, dtype=np.float64)
    smooth_sensitivity = np.asarray(smooth_sensitivity, dtype=np.float64)
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    shape = np.broadcast_shapes(
        counts.shape, smooth_sensitivity.shape, (n_trials, counts.shape[-1])
    )
    noise = distribution.sample(shape, seed)
    return counts + smooth_sensitivity / distribution.a * noise
