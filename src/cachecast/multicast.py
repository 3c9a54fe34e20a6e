"""Average multicast rate: Monte-Carlo estimators and large-K asymptotics.

Under isotropic signaling the instantaneous multicast rate is the log-rate
of the worst user, averaged over the L sub-channels a codeword spans.  The
asymptotic table is driven by the extreme-value normalizer
a_K = nt * (K / nt!)^(1/nt).  The estimators reduce each sub-stack of
`channel.draw_stacks` into preallocated (samples,) outputs, so a batch
holds its estimate tensor plus one sub-stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .channel import (
    RngStream,
    SystemConfig,
    draw_channel_batch,  # not called here; bench/test_bench.py checks this binding is traced
    draw_stacks,
    squared_row_norms,
)
from .results import RateEstimate, rates_overflow_by_power

__all__ = [
    "AsymptoticRate",
    "extreme_value_scale",
    "avg_rate_quasistatic",
    "avg_rate_parallel",
    "parallel_rate_bounds",
    "asymptotic_rate",
]


def extreme_value_scale(nt: int, num_users: int) -> float:
    """a_K = nt * (K / nt!)^(1/nt), evaluated in log space."""
    return nt * math.exp((math.log(num_users) - math.lgamma(nt + 1)) / nt)


@dataclass(frozen=True)
class AsymptoticRate:
    value: float
    regime: str
    power_regime: str
    a_k: float


def avg_rate_parallel(cfg: SystemConfig, rng: RngStream, samples: int) -> RateEstimate:
    """MC mean of min_k (1/L) sum_l ln(1 + snr_{k,l}) over fresh draws."""
    stacks = draw_stacks(cfg, rng, samples)
    values = np.empty(samples)
    with rates_overflow_by_power():
        for rows, true, _, _ in stacks:
            snr = squared_row_norms(true)  # (rows, L, K)
            snr *= cfg.total_power / cfg.num_tx_antennas
            values[rows] = np.log1p(snr, out=snr).mean(axis=1).min(axis=1)
    return RateEstimate.from_values(values)


def avg_rate_quasistatic(cfg: SystemConfig, rng: RngStream, samples: int) -> RateEstimate:
    """MC mean of ln(1 + (P/nt) min_k ||H_k||^2); quasi-static (L = 1) only."""
    L = cfg.num_subchannels
    if L != 1:
        raise ValueError(f"L: the quasi-static rate runs on one sub-channel (L = 1), got {L!r}")
    return avg_rate_parallel(cfg, rng, samples)


def parallel_rate_bounds(
    cfg: SystemConfig, rng: RngStream, samples: int
) -> Tuple[RateEstimate, RateEstimate]:
    """Jensen-style (lower, upper) bounds on the parallel multicast rate.

    Computed from the same draws, so paired-seed comparisons against
    avg_rate_parallel are sandwich-tight up to MC error.
    """
    stacks = draw_stacks(cfg, rng, samples)
    lower, upper = np.empty(samples), np.empty(samples)
    with rates_overflow_by_power():
        for rows, true, _, _ in stacks:
            # per-antenna SNR terms P * |h_{j,k,l}|^2, flattened over (l, j)
            per_antenna = cfg.total_power * (true.real**2 + true.imag**2)  # (rows, L, K, nt)
            avg_snr = per_antenna.mean(axis=(1, 3))  # (rows, K)
            lower[rows] = np.log1p(per_antenna).mean(axis=(1, 3)).min(axis=1)
            upper[rows] = np.log1p(avg_snr.min(axis=1))
    return RateEstimate.from_values(lower), RateEstimate.from_values(upper)


def asymptotic_rate(cfg: SystemConfig) -> AsymptoticRate:
    """Closed-form large-K representative of the average multicast rate.

    Small arrays return (P/a_K) Gamma(1 + 1/nt), or its ln(1 + .) once the
    power outgrows K^(1/nt); large arrays return the bounded-power
    representatives P and ln(1 + P).  Theta-rows carry a representative
    value, not a constant-accurate prediction.
    """
    nt, K, P = cfg.num_tx_antennas, cfg.num_users, cfg.total_power
    a_k = extreme_value_scale(nt, K)
    # large arrays split on P alone, small arrays on P relative to K^(1/nt)
    regime = "large_array" if nt >= math.log(K) else "small_array"
    ratio = P if regime == "large_array" else P * K ** (-1.0 / nt)
    power = "vanishing" if ratio < 1.0 else "growing" if ratio > 10.0 else "constant"
    if regime == "small_array":
        mean_snr = (P / a_k) * math.gamma(1.0 + 1.0 / nt)
        value = mean_snr if power == "vanishing" else math.log1p(mean_snr)
    else:
        value = P if power == "vanishing" else math.log1p(P)
    return AsymptoticRate(value=value, regime=regime, power_regime=power, a_k=a_k)
