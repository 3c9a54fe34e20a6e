"""Threshold-based user selection with one-bit feedback.

The base station multicasts at ln(1 + s) to the users whose instantaneous
SNR clears the threshold s; for Rayleigh SNR the rate-maximizing threshold
has the closed form s* = P / W(P) - 1.  All thresholds here are linear SNR.
The estimators pass the Gamma SNR tail to `caching.selection_rate_samples`,
the one selection sampler, with a `caching.SelectedCounts`, the one source
of selected-user counts: a fixed threshold makes one for its call, and a
threshold search draws its stream once, into one shared by all its
candidates.  Either way the counts equal numpy's binomial bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .caching import SelectedCounts, selection_rate_samples
from .channel import RngStream, SystemConfig, check_number, check_quasistatic
from .mathx import ToleranceSpec, lambert_w, maximize_1d, reg_upper_gamma
from .results import RateEstimate

__all__ = [
    "SelectionEstimate",
    "optimal_threshold_rayleigh",
    "simulated_selection_rate",
    "empirical_optimal_threshold",
    "snr_above_probability",
    "validate_selection_config",
]


@dataclass(frozen=True)
class SelectionEstimate:
    rate: RateEstimate
    selected_fraction: float


# stopping rule of the simulated threshold search (empirical_optimal_threshold)
_SEARCH_TOL = ToleranceSpec(rel_tol=1e-4, abs_tol=1e-6, max_iter=60)


def optimal_threshold_rayleigh(total_power: float) -> float:
    """Closed-form maximizer of exp(-s/P) ln(1 + s): s* = P / W(P) - 1."""
    check_number("P_dB", total_power, 0.0, math.inf, open=True)
    return total_power / lambert_w(total_power) - 1.0


def snr_above_probability(cfg: SystemConfig, threshold: float) -> float:
    """P(snr >= s) for the Gamma-distributed per-user SNR; 1.0 at s = 0."""
    check_number("threshold", threshold, 0.0, math.inf)
    nt = cfg.num_tx_antennas
    return reg_upper_gamma(nt, nt * threshold / cfg.total_power)


def validate_selection_config(cfg: SystemConfig) -> None:
    """The one threshold-selection scenario rule, keyed: 0 < m < 1 on the quasi-static channel."""
    check_number("m", cfg.normalized_cache, open=True)
    check_quasistatic(cfg, "selection")


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
    validate_selection_config(cfg)
    above = snr_above_probability(cfg, threshold)
    values, counts = selection_rate_samples(
        cfg.normalized_cache, cfg.num_users, above, threshold, SelectedCounts(rng, samples)
    )
    return SelectionEstimate(
        rate=RateEstimate.from_values(values),
        selected_fraction=float(counts.mean()) / cfg.num_users,
    )


def empirical_optimal_threshold(
    cfg: SystemConfig,
    rng: RngStream,
    samples: int,
    bracket: Tuple[float, float],
) -> float:
    """Simulated argmax of the selection delivery rate over the bracket.

    Every candidate threshold is evaluated on the same stream (common
    random numbers), which keeps the argmax well conditioned at finite
    sample counts and makes repeated calls identical; the search draws it
    once, into one `SelectedCounts`, and each candidate's counts equal a
    restarted `rng.generator().binomial` bit for bit.  The objective
    is the sample mean alone, the same float as
    `simulated_selection_rate(...).rate.mean`, and the scenario rule is
    checked once.  The bracket must satisfy 0 <= bracket[0] < bracket[1] < inf.
    """
    validate_selection_config(cfg)
    check_number("bracket", bracket[0], 0.0, math.inf)
    check_number("bracket", bracket[1], bracket[0], math.inf, open=True)
    m, K = cfg.normalized_cache, cfg.num_users
    draws = SelectedCounts(rng, samples)

    def rate_at(s: float) -> float:
        above = snr_above_probability(cfg, s)
        return float(selection_rate_samples(m, K, above, s, draws)[0].mean())

    best_s, _ = maximize_1d(rate_at, bracket[0], bracket[1], tol=_SEARCH_TOL, grid_points=41)
    return best_s
