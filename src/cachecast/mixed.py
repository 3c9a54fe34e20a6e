"""Mixed delivery: a common multicast stream superposed on private ZF beams.

The common stream gets power P0 and is decoded first by everyone; the K
private streams share P - P0 uniformly.  The two flows carry independent
demands, so the aggregated content delivery rate is the sum of the two
equivalent rates, and the interesting knob is the split P0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .caching import delivery_rate_multicast, delivery_rate_unicast, transmissions
from .channel import RngStream, SystemConfig, sample_batches, scalars_per_draw
from .mathx import DEFAULT_TOL, ToleranceSpec, maximize_1d
from .multiplex import private_rate_values, validate_zf_config, zf_stats

__all__ = [
    "PowerSplit",
    "MixedRates",
    "SplitOptimum",
    "mixed_rates_mc",
    "mixed_rates_asymptotic",
    "optimal_split_numeric",
    "optimal_split_closed_form",
]


@dataclass(frozen=True)
class PowerSplit:
    """Common-stream power P0 out of P, plus the interference constants.

    Ic = ((nt-K+1)(1-sigma2) + (K-1) sigma2)/K scales the private-stream
    power seen in the common-stream SINR denominator; Ip = (K-1) sigma2 / K
    is the leakage part alone.
    """

    common_power: float
    total_power: float
    private_per_user: float
    interference_common: float
    interference_private: float

    @classmethod
    def compute(cls, cfg: SystemConfig, common_power: float) -> "PowerSplit":
        if not 0.0 <= common_power <= cfg.total_power:
            raise ValueError("common_power must lie in [0, total_power]")
        nt, K, s2 = cfg.num_tx_antennas, cfg.num_users, cfg.csit_error_var
        ip = (K - 1) * s2 / K
        ic = ((nt - K + 1) * (1.0 - s2) + (K - 1) * s2) / K
        return cls(
            common_power=common_power,
            total_power=cfg.total_power,
            private_per_user=(cfg.total_power - common_power) / K,
            interference_common=ic,
            interference_private=ip,
        )


@dataclass(frozen=True)
class MixedRates:
    """Link rates of the two flows and the aggregated delivery rate."""

    common_rate: float
    private_rate: float
    total: float
    flags: Tuple[str, ...] = ()

    @classmethod
    def compose(
        cls,
        cfg: SystemConfig,
        common_rate: float,
        private_rate: float,
        flags: Tuple[str, ...] = (),
    ) -> "MixedRates":
        load = transmissions(cfg.placement, cfg.normalized_cache, cfg.num_users)
        total = delivery_rate_multicast(load, common_rate, cfg.num_users) + (
            delivery_rate_unicast(cfg.normalized_cache, private_rate, cfg.num_users)
        )
        return cls(common_rate=common_rate, private_rate=private_rate, total=total, flags=flags)


@dataclass(frozen=True)
class SplitOptimum:
    common_power: float
    rate: float
    at_boundary: bool

    def saturated(self, total_power: float) -> bool:
        """Whether effectively all power goes to the common stream.

        At finite K a vanishing sliver of private power always buys a tiny
        bit of rate, so the exact-MC optimum sits a hair below P even where
        the large-system optimum is the boundary; fractions above the
        resolution threshold count as saturated.
        """
        return self.common_power >= SATURATION_FRAC * total_power


# common power fraction above which a split counts as "all multicast"
SATURATION_FRAC = 0.999

# stopping rule of the power-split search (optimal_split_numeric)
_SPLIT_TOL = ToleranceSpec(rel_tol=1e-4, abs_tol=1e-9, max_iter=60)


def _flow_values(
    split: PowerSplit,
    num_tx_antennas: int,
    norm2: np.ndarray,
    g2: np.ndarray,
    inter: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-draw (common, private) rate values from precomputed ZF statistics.

    Written so the endpoint splits collapse exactly: at P0 = P the private
    power is 0.0 and the common SINR denominator is literally 1.0, and at
    P0 = 0 the private values are the standalone symmetric rate's own
    `private_rate_values` at the same per-user power P/K.
    """
    p = split.private_per_user
    common = np.log1p(
        (split.common_power / num_tx_antennas) * norm2 / (1.0 + p * (g2 + inter))
    ).min(axis=1)
    return common, private_rate_values(g2, inter, p)


def mixed_rates_mc(
    cfg: SystemConfig, split: PowerSplit, rng: RngStream, samples: int
) -> MixedRates:
    """Exact MC of both flow rates under successive common-first decoding."""
    batches = sample_batches(rng, samples, scalars_per_draw(cfg))
    common, private = np.empty(samples), np.empty(samples)
    for gen, rows in batches:
        stats = zf_stats(cfg, gen, rows.stop - rows.start)
        common[rows], private[rows] = _flow_values(split, cfg.num_tx_antennas, *stats)
    return MixedRates.compose(cfg, float(common.mean()), float(private.mean()))


# the stream of mixed_rates_asymptotic's worst-user leakage sampler
_LEAKAGE_STREAM = RngStream(0)


def mixed_rates_asymptotic(
    cfg: SystemConfig, split: PowerSplit, simplified: bool = False
) -> MixedRates:
    """Large-system flow rates for a given split.

    The private flow has a closed form.  The common flow keeps an
    expectation over the worst-user interference sum; it is estimated with
    a small dedicated sampler (10^4 draws of the worst of K per-user
    leakages ~ Gamma(K-1, sigma2) on _LEAKAGE_STREAM) unless `simplified`
    drops the maximization, which together with the private term
    reproduces the tractable two-term objective used by the closed-form
    split.  A config that fails `validate_zf_config` raises.
    """
    validate_zf_config(cfg)
    nt, K, s2 = cfg.num_tx_antennas, cfg.num_users, cfg.csit_error_var
    flags: Tuple[str, ...] = ("extrapolated",) if nt == K else ()
    p = split.private_per_user
    gain = (nt - K + 1) * (1.0 - s2)
    if split.common_power == 0.0:
        common = 0.0
    elif simplified or s2 == 0.0 or K == 1 or p == 0.0:
        common = math.log1p(
            split.common_power / (1.0 + (split.total_power - split.common_power) * split.interference_common)
        )
    else:
        gen = _LEAKAGE_STREAM.generator()
        leak = gen.gamma(K - 1, scale=s2, size=(10_000, K)).max(axis=1)
        common = float(np.log1p(split.common_power / (1.0 + p * (gain + leak))).mean())
    private = 0.0 if p == 0.0 else math.log1p(gain / (1.0 / p + (K - 1) * s2))
    return MixedRates.compose(cfg, common, private, flags=flags)


def optimal_split_numeric(
    cfg: SystemConfig,
    rng: RngStream,
    samples: int,
) -> SplitOptimum:
    """Argmax of the aggregated MC delivery rate over P0 in [0, P].

    One set of channel draws is shared by every candidate split (common
    random numbers), so the sweep over P0 is smooth and rerunning with the
    same stream reproduces the optimum exactly.  The optimum is at the
    boundary when `maximize_1d` returns a scanned end, P0 = 0 or P.
    """
    validate_zf_config(cfg)
    P, nt = cfg.total_power, cfg.num_tx_antennas
    batches = sample_batches(rng, samples, scalars_per_draw(cfg))  # checks samples, also at m = 1
    if cfg.normalized_cache == 1.0:
        # a full cache makes the common flow infinitely efficient
        return SplitOptimum(common_power=P, rate=math.inf, at_boundary=True)
    norm2, g2, inter = (np.empty((samples, cfg.num_users)) for _ in range(3))
    for gen, rows in batches:
        norm2[rows], g2[rows], inter[rows] = zf_stats(cfg, gen, rows.stop - rows.start)

    def total_rate(common_power: float) -> float:
        split = PowerSplit.compute(cfg, common_power)
        c, pv = _flow_values(split, nt, norm2, g2, inter)
        return MixedRates.compose(cfg, float(c.mean()), float(pv.mean())).total

    # the last grid point is 32 * (P / 32) == P, so a tied end comes back exactly
    best_p0, best_rate = maximize_1d(total_rate, 0.0, P, tol=_SPLIT_TOL, grid_points=33)
    return SplitOptimum(common_power=best_p0, rate=best_rate, at_boundary=best_p0 in (0.0, P))


def optimal_split_closed_form(cfg: SystemConfig) -> float:
    """Stationary split of the simplified two-term objective, clamped to [0, P].

    P - P0 = ((-(1-m)(1+Ic P) + T (Ic-Ip)(1+P)) /
              ((1-m) Ip (1+Ic P) - T Ic (Ic-Ip)))^+,
    with negative prescriptions meaning all power to the common stream.
    Requires a strictly informative estimate (Ic > Ip) and a nondegenerate
    denominator.
    """
    nt, K, s2, P = cfg.num_tx_antennas, cfg.num_users, cfg.csit_error_var, cfg.total_power
    m = cfg.normalized_cache
    if (nt - K + 1) * (1.0 - s2) <= 0.0:
        raise ValueError("closed-form split needs (nt - K + 1)(1 - sigma2) > 0")
    split = PowerSplit.compute(cfg, 0.0)
    ic, ip = split.interference_common, split.interference_private
    load = transmissions(cfg.placement, m, K)
    num = -(1.0 - m) * (1.0 + ic * P) + load * (ic - ip) * (1.0 + P)
    den = (1.0 - m) * ip * (1.0 + ic * P) - load * ic * (ic - ip)
    if abs(den) <= DEFAULT_TOL.abs_tol:
        raise ValueError("degenerate split denominator; use the numeric optimizer")
    private_total = max(num / den, 0.0)
    return min(max(P - private_total, 0.0), P)

