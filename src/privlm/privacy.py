"""Differentially private gradient machinery and the privacy accountant.

The private update on a batch of sensitive sequences is the classic recipe:
clip each per-example gradient to L2 norm C, sum, add one spherical Gaussian
draw with per-coordinate std sigma*C, divide by the batch size, and take an
SGD step. Noise comes from a dedicated seeded stream, independent of data
shuffling, so runs are bit-reproducible.

The noise is P standard normals scaled by sigma*C in place, which gives the
bits of ``normal(0, sigma*C)``. ``dp_sgd_step`` takes that (P,) draw from its
caller; ``experiment`` tells how ``train`` draws it. Both steps run
``lm.backprop`` on an ``lm.Workspace`` (one sized for the batch when the
caller passes none) and return the theta ``lm.apply_update`` makes of their
weighted sum; ``lm`` tells what each of them holds.

Clipping never materialises the per-example gradients: the step takes each
example's norm n from the backward pass's factors (``lm.GradientFactors``),
turns it into a scale s = 1 if n <= C, else C * (1 - CLIP_SLACK) / n, and
contracts the factors once with those scales as weights. The plain step is
the same contraction with unit weights. CLIP_SLACK absorbs the rounding of n
and of scaling the entries, so a clipped example's scaled gradient has float
norm <= C; an example left unscaled has n <= C, so its norm is at most C up
to the rounding of n (ghost norms match materialised ones to ~1e-15).

Accounting: a single private step is (alpha, alpha/(2*sigma^2))-RDP.
``selective_dp_budget`` composes this linearly over epochs and the
sensitive-set size and converts to (eps, delta)-DP by adding
log(1/delta)/(alpha-1); delta must exceed one minus the detector's
true-positive rate gamma, because undetected sensitive sequences receive no
protection at all.

Natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lm
from .corpus import TokenSequence
from .lm import LMParameters


# Clipped examples are scaled to norm C * (1 - CLIP_SLACK), not C, so that the
# float norm of every scaled gradient stays <= C. The relative rounding it
# covers (Gram sums or np.linalg.norm's sum of squares, then scaling each
# entry) was at most 1e-14 in the oracle tests, 1e5 times below the slack.
CLIP_SLACK = 1e-9


class PrivacyError(ValueError):
    """Raised for invalid privacy parameters or misuse of the private step."""


class NonFiniteGradient(PrivacyError):
    """Raised when a per-example gradient norm is inf or nan, so no clip applies."""


@dataclass(frozen=True)
class PrivacySpec:
    """Noise multiplier, clipping bound and learning rate of the private step."""

    sigma: float
    clip_bound: float
    eta: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise PrivacyError(f"sigma must be > 0, got {self.sigma}")
        if self.clip_bound <= 0:
            raise PrivacyError(f"clip_bound must be > 0, got {self.clip_bound}")


def scales_for_norms(norms: np.ndarray, clip_bound: float) -> np.ndarray:
    """The clipping rule: s = 1 where norm <= C, else C * (1 - CLIP_SLACK) / norm."""
    if clip_bound <= 0:
        raise PrivacyError(f"clip bound must be > 0, got {clip_bound}")
    # A non-finite entry anywhere makes its row norm inf or nan.
    if not np.all(np.isfinite(norms)):
        raise NonFiniteGradient("gradient contains non-finite entries")
    scales = np.ones_like(norms)
    over = norms > clip_bound
    scales[over] = clip_bound * (1.0 - CLIP_SLACK) / norms[over]
    return scales


def clip_scales(stacked: np.ndarray, clip_bound: float) -> np.ndarray:
    """Per-example clip factors for materialised flat gradients (B, P)."""
    return scales_for_norms(np.linalg.norm(stacked, axis=1), clip_bound)


def _noisy_mean(total: np.ndarray, batch_size: int, clip_bound: float, sigma: float,
                noise: np.ndarray) -> np.ndarray:
    """(total + sigma*C * noise) / batch_size, computed in ``total`` and ``noise``."""
    # normal(0, s) computes 0.0 + s * z, so only an exact-zero product could
    # differ (in the sign of the zero).
    noise *= sigma * clip_bound
    total += noise
    total /= batch_size
    return total


def noisy_clipped_mean(
    stacked: np.ndarray, clip_bound: float, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """(sum of clipped gradients + one Gaussian draw) / batch size.

    The noise has per-coordinate std sigma*clip_bound and is drawn exactly
    once, so the result is an unbiased estimate of the clipped mean.
    """
    scales = clip_scales(stacked, clip_bound)
    noise = rng.standard_normal(stacked.shape[1])
    return _noisy_mean(scales @ stacked, stacked.shape[0], clip_bound, sigma, noise)


def dp_sgd_step(
    params: LMParameters,
    batch_S: list[TokenSequence],
    spec: PrivacySpec,
    noise: np.ndarray,
    workspace: lm.Workspace | None = None,
) -> LMParameters:
    """One private update on a batch of sensitive sequences.

    Clip scales come from the ghost norms and weight one contraction of the
    BPTT factors; the noise is the same single draw as in
    :func:`noisy_clipped_mean`. ``noise`` is the step's (P,) float64
    standard-normal draw, which the step scales in place and does not keep,
    so its caller may refill it for a later step; anything else raises
    ``PrivacyError``. ``backprop`` runs on ``workspace``, or one sized for the batch.
    """
    if not batch_S:
        raise PrivacyError("dp_sgd_step requires a non-empty batch; skip the step instead")
    size = params.theta.size
    if not (isinstance(noise, np.ndarray) and noise.shape == (size,) and noise.dtype == np.float64):
        got = getattr(noise, "dtype", type(noise).__name__)
        raise PrivacyError(f"noise draw must be a ({size},) float64 array, got {np.shape(noise)} {got}")
    factors = lm.backprop(params, batch_S, workspace)
    scales = scales_for_norms(factors.norms(), spec.clip_bound)
    update_flat = _noisy_mean(
        factors.weighted_sum(scales), len(batch_S), spec.clip_bound, spec.sigma, noise
    )
    return lm.apply_update(params, update_flat, spec.eta)


def plain_sgd_step(params: LMParameters, batch: list[TokenSequence], eta: float,
                   workspace: lm.Workspace | None = None) -> LMParameters:
    """Ordinary SGD on the batch mean gradient.

    The same contraction as the private step with unit weights and no noise
    term, so the two coincide bit-for-bit when clipping is inactive and
    sigma is zero. ``backprop`` runs on ``workspace``, or one sized for the batch.
    """
    if not batch:
        raise PrivacyError("plain_sgd_step requires a non-empty batch")
    factors = lm.backprop(params, batch, workspace)
    update_flat = factors.weighted_sum(np.ones(len(batch)))
    update_flat /= len(batch)
    return lm.apply_update(params, update_flat, eta)


def gaussian_rdp_epsilon(sigma: float, alpha: float) -> float:
    """Order-alpha RDP of one clipped-and-noised step: alpha / (2 * sigma^2).

    This is the Renyi divergence of order alpha between unit-separated
    Gaussians with std sigma; the clipping bound cancels because the noise
    std is sigma times the bound.
    """
    if sigma <= 0:
        raise PrivacyError(f"sigma must be > 0, got {sigma}")
    if alpha <= 1:
        raise PrivacyError(f"alpha must be > 1, got {alpha}")
    return alpha / (2.0 * sigma * sigma)


def rdp_to_dp(eps_rdp: float, alpha: float, delta: float) -> float:
    """Convert (alpha, eps_rdp)-RDP to (eps, delta)-DP: add ln(1/delta)/(alpha-1)."""
    if alpha <= 1:
        raise PrivacyError(f"alpha must be > 1, got {alpha}")
    if not (0.0 < delta < 1.0):
        raise PrivacyError(f"delta must be in (0, 1), got {delta}")
    if eps_rdp < 0:
        raise PrivacyError(f"eps_rdp must be >= 0, got {eps_rdp}")
    return eps_rdp + math.log(1.0 / delta) / (alpha - 1.0)


def selective_dp_budget(*, epochs: int, sensitive_count: int, batch_size: int,
                        per_step_epsilon: float, alpha: float, gamma: float,
                        delta: float) -> float:
    """Total eps of selective training at ``delta``, per the composition bound.

    eps = T * N_S * eps_step / |B| + ln(1/delta)/(alpha - 1) for T ``epochs``,
    N_S ``sensitive_count`` privately trained sequences and eps_step the
    order-``alpha`` RDP cost of one private step. It is valid only for delta
    in (1 - gamma, 1), gamma being the partition's true-positive rate: a
    missed sensitive sequence is trained without noise.
    """
    if min(epochs, sensitive_count) < 0:
        raise PrivacyError("accountant counts must be >= 0")
    if batch_size < 1:
        raise PrivacyError(f"batch_size must be >= 1, got {batch_size}")
    if per_step_epsilon < 0:
        raise PrivacyError("per_step_epsilon must be >= 0")
    if not (0.0 <= gamma <= 1.0):
        raise PrivacyError(f"gamma must be in [0, 1], got {gamma}")
    eps_total = rdp_to_dp(epochs * sensitive_count * per_step_epsilon / batch_size, alpha, delta)
    floor = 1.0 - gamma
    if delta <= floor:
        raise PrivacyError(
            f"delta={delta} violates the detector true-positive-rate constraint: "
            f"delta must exceed 1 - gamma = {floor} (gamma={gamma})"
        )
    return eps_total
