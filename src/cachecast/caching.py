"""Coded-caching transmission load and delivery-rate composition.

The load T(m, K) counts file-size-normalized multicast transmissions needed
to serve all K demands; dividing any underlying link rate by T/K turns it
into an equivalent content delivery rate.  Rates are in nats/s/Hz and a full
cache (m = 1) yields an infinite delivery rate by convention.  Threshold
selection draws through one sampler, `selection_rate_samples`, which every
selection estimator calls with the tail probability of its channel model.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import RngStream, _check_placement, check_count, check_fraction
from .results import RateEstimate

__all__ = [
    "transmissions",
    "delivery_rate_multicast",
    "delivery_rate_unicast",
    "delivery_rate_selection",
    "selection_rate_samples",
]


def transmissions(placement: str, m: float, num_users: int) -> float:
    """Normalized number of multicast transmissions T(m, K).

    Centralized: (1 - m) / (1/K + m).  Decentralized:
    (1 - m)(1 - (1 - m)^K) / m, with the m -> 0 limit K and the m -> 1
    limit 0 applied by continuity.
    """
    check_fraction("m", m)
    check_count("K", num_users)
    _check_placement(placement)
    K = num_users
    if placement == "centralized":
        return (1.0 - m) / (1.0 / K + m)
    if m == 0.0:
        return float(K)
    if m == 1.0:
        return 0.0
    # -expm1(K log1p(-m)) = 1 - (1-m)^K without cancellation at small m
    return (1.0 - m) * -math.expm1(K * math.log1p(-m)) / m


def delivery_rate_multicast(load: float, multicast_rate: float, num_users: int) -> float:
    """Equivalent content delivery rate (K / T) * r0; +inf when T = 0."""
    if load < 0.0:
        raise ValueError("load must be nonnegative")
    if load == 0.0:
        return 0.0 if multicast_rate == 0.0 else math.inf
    return num_users * multicast_rate / load


def delivery_rate_unicast(m: float, symmetric_rate: float, num_users: int) -> float:
    """Equivalent content delivery rate K * rsym / (1 - m); +inf at m = 1."""
    check_fraction("m", m)
    if m == 1.0:
        return 0.0 if symmetric_rate == 0.0 else math.inf
    return num_users * symmetric_rate / (1.0 - m)


def selection_rate_samples(
    m: float,
    num_users: int,
    above_prob: float,
    threshold: float,
    rng: RngStream,
    samples: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample delivery rates and selected counts (decentralized load).

    The one selection sampler.  Each call draws from a fresh
    `rng.generator()`, so every threshold of a search sees the same draws
    (common random numbers).  Each sample draws the binomial number of
    selected users n, each above the threshold with probability
    `above_prob`, and takes (m/(1-m)) * n / (1 - (1-m)^n) * ln(1 + s), with
    the empty-selection samples contributing zero.  The expression is
    evaluated once per count in [min n, max n] and gathered by count when
    that range is narrower than the sample count (a few hundred counts
    against 10^4 samples at fig2's defaults), else once per sample; each
    value is the same float either way.
    """
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    if not 0.0 < m < 1.0:
        raise ValueError(f"m: selection requires 0 < m < 1, got {m!r}")
    check_count("samples", samples)
    counts = rng.generator().binomial(num_users, above_prob, size=samples)
    log_term = math.log1p(threshold)
    lo = int(counts.min())
    width = int(counts.max()) - lo + 1
    if width < samples:
        return _selection_rates(m, np.arange(lo, lo + width), log_term)[counts - lo], counts
    return _selection_rates(m, counts, log_term), counts


def _selection_rates(m: float, counts: np.ndarray, log_term: float) -> np.ndarray:
    """(m/(1-m)) * n / (1 - (1-m)^n) * log_term per count n, and 0.0 at n = 0."""
    rates = np.zeros(counts.size, dtype=np.float64)
    active = counts > 0
    n = counts[active].astype(np.float64)
    rates[active] = (m / (1.0 - m)) * n / (1.0 - (1.0 - m) ** n) * log_term
    return rates


def delivery_rate_selection(
    m: float,
    threshold: float,
    total_power: float,
    num_users: int,
    rng: RngStream,
    samples: int,
) -> RateEstimate:
    """Monte-Carlo delivery rate of single-antenna threshold selection.

    The random selected-user count enters both the numerator and the
    decentralized load, exactly as the finite-K expectation is written; the
    s = 0 threshold gives rate 0 through the vanishing log factor.
    """
    if total_power <= 0.0:
        raise ValueError("total_power must be positive")
    # the sampler rejects s < 0; the clamp only keeps exp from overflowing first
    above = math.exp(-max(threshold, 0.0) / total_power)
    values, _ = selection_rate_samples(m, num_users, above, threshold, rng, samples)
    return RateEstimate.from_values(values)
