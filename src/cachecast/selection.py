"""Threshold-based user selection with one-bit feedback.

The base station multicasts at ln(1 + s) to the users whose instantaneous
SNR clears the threshold s; for Rayleigh SNR the rate-maximizing threshold
has the closed form s* = P / W(P) - 1.  All thresholds here are linear SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from .caching import selection_rate_samples
from .channel import RngStream, SystemConfig
from .mathx import DEFAULT_TOL, ToleranceSpec, lambert_w, maximize_1d, reg_upper_gamma
from .results import RateEstimate

__all__ = [
    "SelectionEstimate",
    "optimal_threshold_rayleigh",
    "optimal_threshold_general",
    "simulated_selection_rate",
    "empirical_optimal_threshold",
    "snr_above_probability",
]


@dataclass(frozen=True)
class SelectionEstimate:
    rate: RateEstimate
    selected_fraction: float


# stopping rule of the simulated threshold search (empirical_optimal_threshold)
_SEARCH_TOL = ToleranceSpec(rel_tol=1e-4, abs_tol=1e-6, max_iter=60)


def optimal_threshold_rayleigh(total_power: float) -> float:
    """Closed-form maximizer of exp(-s/P) ln(1 + s): s* = P / W(P) - 1."""
    if total_power <= 0.0:
        raise ValueError("total_power must be positive")
    return total_power / lambert_w(total_power) - 1.0


def optimal_threshold_general(
    cdf: Callable[[float], float],
    pdf: Callable[[float], float],
    bracket: Tuple[float, float],
) -> float:
    """Optimal threshold for an arbitrary differentiable SNR distribution.

    Solves ln(1 + s) = W((1 - F(s)) / F'(s)) by bisection on the residual;
    raises if the residual does not change sign over the bracket.
    """
    lo, hi = bracket
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")

    def residual(s: float) -> float:
        hazard_inv = (1.0 - cdf(s)) / pdf(s)
        return math.log1p(s) - lambert_w(max(hazard_inv, 0.0))

    r_lo, r_hi = residual(lo), residual(hi)
    if r_lo == 0.0:
        return lo
    if r_hi == 0.0:
        return hi
    if r_lo * r_hi > 0.0:
        raise ValueError("no sign change of the optimality condition in the bracket")
    tol = DEFAULT_TOL
    for _ in range(tol.max_iter):
        mid = 0.5 * (lo + hi)
        r_mid = residual(mid)
        if r_mid == 0.0 or hi - lo <= tol.abs_tol + tol.rel_tol * abs(mid):
            return mid
        if r_lo * r_mid < 0.0:
            hi, r_hi = mid, r_mid
        else:
            lo, r_lo = mid, r_mid
    return 0.5 * (lo + hi)


def snr_above_probability(cfg: SystemConfig, threshold: float) -> float:
    """P(snr >= s) for the Gamma-distributed per-user SNR."""
    if threshold == 0.0:
        return 1.0
    nt = cfg.num_tx_antennas
    return reg_upper_gamma(nt, nt * threshold / cfg.total_power)


def simulated_selection_rate(
    cfg: SystemConfig,
    threshold: float,
    rng: RngStream,
    samples: int,
) -> SelectionEstimate:
    """MC delivery rate at a fixed threshold plus the selected-user fraction.

    Works for any antenna count through the Gamma SNR tail; placement is
    decentralized by construction of the selection scheme.
    """
    if cfg.num_subchannels != 1:
        raise ValueError("selection runs on the quasi-static channel (L = 1)")
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    above = snr_above_probability(cfg, threshold)
    values, counts = selection_rate_samples(
        cfg.normalized_cache,
        cfg.num_users,
        above,
        math.log1p(threshold),
        rng.generator(),
        samples,
    )
    return SelectionEstimate(
        rate=RateEstimate.from_values(values, seed=rng.seed),
        selected_fraction=float(counts.mean()) / cfg.num_users,
    )


def empirical_optimal_threshold(
    cfg: SystemConfig,
    rng: RngStream,
    samples: int,
    bracket: Tuple[float, float],
) -> float:
    """Simulated argmax of the selection delivery rate over the bracket.

    Every candidate threshold is evaluated on the same restarted stream
    (common random numbers), which keeps the argmax well conditioned at
    finite sample counts and makes repeated calls identical.
    """

    def rate_at(s: float) -> float:
        return simulated_selection_rate(cfg, s, rng, samples).rate.mean

    best_s, _ = maximize_1d(rate_at, bracket[0], bracket[1], tol=_SEARCH_TOL, grid_points=41)
    return best_s
