"""Coded-caching transmission load and delivery-rate composition.

The load T(m, K) counts file-size-normalized multicast transmissions needed
to serve all K demands; dividing any underlying link rate by T/K turns it
into an equivalent content delivery rate.  Rates are in nats/s/Hz and a full
cache (m = 1) yields an infinite delivery rate by convention.  Threshold
selection draws through one sampler, `selection_rate_samples`, which every
selection estimator calls with the tail probability of its channel model.

Selected-user counts have one source, `SelectedCounts`, equal bit for bit
to `Generator.binomial` (see `SelectedCounts.binomial`).  A one-off rate
makes one per call; a threshold search, which evaluates every candidate on
the same restarted stream (common random numbers), makes one per search
and so draws the stream's uniforms once for all its candidates.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import RngStream, _check_placement, check_count, check_number
from .results import RateEstimate

__all__ = [
    "transmissions",
    "delivery_rate_multicast",
    "delivery_rate_unicast",
    "delivery_rate_selection",
    "selection_rate_samples",
    "SelectedCounts",
]


def transmissions(placement: str, m: float, num_users: int) -> float:
    """Normalized number of multicast transmissions T(m, K).

    Centralized: (1 - m) / (1/K + m).  Decentralized:
    (1 - m)(1 - (1 - m)^K) / m, with the m -> 0 limit K and the m -> 1
    limit 0 applied by continuity.
    """
    check_number("m", m)
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
    check_number("load", load, 0.0, math.inf)
    check_number("multicast_rate", multicast_rate, 0.0, math.inf)
    check_count("K", num_users)
    if load == 0.0:
        return 0.0 if multicast_rate == 0.0 else math.inf
    return num_users * multicast_rate / load


def delivery_rate_unicast(m: float, symmetric_rate: float, num_users: int) -> float:
    """Equivalent content delivery rate K * rsym / (1 - m); +inf at m = 1."""
    check_number("m", m)
    check_number("symmetric_rate", symmetric_rate, 0.0, math.inf)
    check_count("K", num_users)
    if m == 1.0:
        return 0.0 if symmetric_rate == 0.0 else math.inf
    return num_users * symmetric_rate / (1.0 - m)


# margin over the 2*(bound + 1) roundings that `SelectedCounts` compares across
_TOLERANCE_ULPS = 4


class SelectedCounts:
    """Binomial selected-user counts of one stream, drawn once for a whole search.

    `binomial(K, p)` equals `rng.generator().binomial(K, p, size=samples)`
    bit for bit.  It mirrors the dispatch of numpy's `random_binomial`:
    p <= 0.5 with p*K <= 30 is `random_binomial_inversion(K, p)`, p > 0.5
    with q*K <= 30 (q = 1.0 - p) is K - `random_binomial_inversion(K, q)`,
    and the rest is BTPE.  Inversion takes one uniform U = (raw >> 11) *
    2**-53 of the Philox stream per sample and returns the first X with
    U <= px_0 + ... + px_X, restarting on a fresh uniform past `bound`.  So
    the first inversion-regime call draws the uniforms with `random_raw` and
    sorts them, and every call rebuilds numpy's table with the same float
    operations (qn = exp(K*log1p(-p)), as numpy 2 computes it), takes its
    cumulative sum and counts the uniforms below each step by binary search.

    numpy subtracts px_0, px_1, ... from U one at a time, where the sum adds
    them one at a time; each rounding moves a value of at most 1 by at most
    2**-53, so the two sides of every comparison differ by less than
    2*(bound + 1)*2**-53.  A uniform within `_TOLERANCE_ULPS`*(bound + 2)*2**-53
    of a step, or past the last step (a restart), sends the whole call to
    `rng.generator().binomial`, as do p = 0 and the BTPE regime.  A numpy
    change to `random_binomial_inversion` shows up as a failure of the
    exactness table in the tests.  The state is 16 B per sample (the sorted
    uniforms and their order), owned by the search that made it.
    """

    def __init__(self, rng: RngStream, samples: int) -> None:
        check_count("samples", samples)
        self.rng = rng
        self.samples = samples
        self._sorted = None

    def binomial(self, num_users: int, above_prob: float) -> np.ndarray:
        """`self.rng.generator().binomial(num_users, above_prob, size=self.samples)`."""
        check_count("K", num_users)
        check_number("above_prob", above_prob)
        flip = above_prob > 0.5
        p = 1.0 - above_prob if flip else above_prob
        if above_prob != 0.0 and p * num_users <= 30.0:
            counts = self._inversion(num_users, p)
            if counts is not None:
                return num_users - counts if flip else counts
        return self.rng.generator().binomial(num_users, above_prob, size=self.samples)

    def _inversion(self, n: int, p: float):
        """numpy's `random_binomial_inversion(n, p)` per uniform; None on a close call."""
        if self._sorted is None:
            raw = self.rng.generator().bit_generator.random_raw(self.samples)
            uniforms = (raw >> np.uint64(11)) * 2.0**-53
            order = np.argsort(uniforms)
            self._sorted = uniforms[order], order
        uniforms, order = self._sorted
        # numpy's constants and recurrence, operation for operation
        q = 1.0 - p
        qn = math.exp(n * math.log1p(-p))
        mean = n * p
        bound = int(min(float(n), mean + 10.0 * math.sqrt(mean * q + 1)))
        px = [qn]
        for x in range(1, bound + 1):
            px.append(((n - x + 1) * p * px[-1]) / (x * q))
        steps = np.cumsum(px)
        tol = _TOLERANCE_ULPS * (bound + 2) * 2.0**-53
        below = np.searchsorted(uniforms, steps - tol, side="right")
        close = np.searchsorted(uniforms, steps + tol, side="right") != below
        if below[-1] < self.samples or close.any():
            return None
        counts = np.empty(self.samples, dtype=np.int64)
        counts[order] = np.repeat(np.arange(bound + 1, dtype=np.int64), np.diff(below, prepend=0))
        return counts


def selection_rate_samples(
    m: float,
    num_users: int,
    above_prob: float,
    threshold: float,
    draws: SelectedCounts,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample delivery rates and selected counts (decentralized load).

    The one selection sampler.  Its counts are `draws.binomial(num_users,
    above_prob)`, which reads the stream of `draws.rng` from its start, so
    every threshold of a search that passes one `draws` sees the same
    counts (common random numbers).  Each sample draws the binomial number
    of selected users n, each above the threshold with probability
    `above_prob`, and takes (m/(1-m)) * n / (1 - (1-m)^n) * ln(1 + s), with
    the empty-selection samples contributing zero.  The expression is
    evaluated once per count in [min n, max n] and gathered by count when
    that range is narrower than the sample count (a few hundred counts
    against 10^4 samples at fig2's defaults), else once per sample; each
    value is the same float either way.
    """
    check_number("threshold", threshold, 0.0, math.inf)
    check_number("m", m, open=True)
    counts = draws.binomial(num_users, above_prob)
    log_term = math.log1p(threshold)
    lo = int(counts.min())
    width = int(counts.max()) - lo + 1
    if width < draws.samples:
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
    check_number("threshold", threshold, 0.0, math.inf)
    check_number("P_dB", total_power, 0.0, math.inf, open=True)
    above = math.exp(-threshold / total_power)
    values, _ = selection_rate_samples(m, num_users, above, threshold, SelectedCounts(rng, samples))
    return RateEstimate.from_values(values)
