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
from .channel import RngStream, SystemConfig, check_count, check_number
from .mathx import DEFAULT_TOL, ToleranceSpec, maximize_1d, reg_lower_gamma, tail_integral
from .multiplex import private_rate_values, validate_zf_config, zf_statistics
from .results import check_finite_rates, rates_overflow_by_power

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
    """Common-stream power P0 out of P, and the private power per user (P - P0)/K."""

    common_power: float
    total_power: float
    private_per_user: float

    @classmethod
    def compute(cls, cfg: SystemConfig, common_power: float) -> "PowerSplit":
        check_number("common_power", common_power, 0.0, cfg.total_power)
        return cls(
            common_power=common_power,
            total_power=cfg.total_power,
            private_per_user=(cfg.total_power - common_power) / cfg.num_users,
        )


def _check_split(cfg: SystemConfig, split: PowerSplit) -> None:
    if split != PowerSplit.compute(cfg, split.common_power):
        raise ValueError(f"common_power: {split} is not the split of P = {cfg.total_power!r}, K = {cfg.num_users!r}")


def _interference(cfg: SystemConfig) -> Tuple[float, float]:
    """(Ic, Ip): the private power's weight in the common-stream SINR denominator, and its leakage part."""
    nt, K, s2 = cfg.num_tx_antennas, cfg.num_users, cfg.csit_error_var
    return ((nt - K + 1) * (1.0 - s2) + (K - 1) * s2) / K, (K - 1) * s2 / K


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
        check_finite_rates((common_rate, private_rate))
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


def _mixed_rates(cfg: SystemConfig, split: PowerSplit, stats: tuple) -> MixedRates:
    """The one reduction of both mixed estimators: the mean flow rates, composed.

    `stats` is the (norm2, g2, inter) triple of `zf_statistics`.
    """
    with rates_overflow_by_power():
        common, private = _flow_values(split, cfg.num_tx_antennas, *stats)
    return MixedRates.compose(cfg, float(common.mean()), float(private.mean()))


def mixed_rates_mc(
    cfg: SystemConfig, split: PowerSplit, rng: RngStream, samples: int
) -> MixedRates:
    """Exact MC of both flow rates under common-first decoding; a split not computed for cfg raises."""
    _check_split(cfg, split)
    return _mixed_rates(cfg, split, zf_statistics(cfg, rng, samples))


def mixed_rates_asymptotic(
    cfg: SystemConfig, split: PowerSplit, simplified: bool = False
) -> MixedRates:
    """Large-system flow rates for a given split.

    The private flow has a closed form.  The common flow keeps an expectation
    over the worst of K per-user leakages sigma2 * Gamma(K-1, 1), integrated
    from its survival function 1 - P(K-1, u)^K, unless `simplified` drops the
    maximization, which together with the private term reproduces the tractable
    two-term objective used by the closed-form split.  A config that fails
    `validate_zf_config`, a split not computed for cfg, or K past the
    incomplete gamma's reach (about 1e5) raises.
    """
    validate_zf_config(cfg)
    _check_split(cfg, split)
    nt, K, s2 = cfg.num_tx_antennas, cfg.num_users, cfg.csit_error_var
    flags: Tuple[str, ...] = ("extrapolated",) if nt == K else ()
    p = split.private_per_user
    gain = (nt - K + 1) * (1.0 - s2)
    if split.common_power == 0.0:
        common = 0.0
    elif simplified or s2 == 0.0 or K == 1 or p == 0.0:
        common = math.log1p(
            split.common_power / (1.0 + (split.total_power - split.common_power) * _interference(cfg)[0])
        )
    else:
        # E[g(U)] = g(0) + integral of g' * tail, U the worst leakage over sigma2, g(u) = ln(1 + c / (b + s u))
        b, c, s = 1.0 + p * gain, split.common_power, p * s2

        def tail(u: float) -> float:
            try:
                return 1.0 - reg_lower_gamma(K - 1, u) ** K
            except ValueError as err:
                raise ValueError(f"K: {K!r} users are past the worst-user leakage's reach") from err

        common = math.log1p(c / b) + tail_integral(lambda u: -s * c / ((b + s * u) * (b + s * u + c)), tail, K - 1)
    private = 0.0 if p == 0.0 else math.log1p(gain / (1.0 / p + (K - 1) * s2))
    return MixedRates.compose(cfg, common, private, flags=flags)


def optimal_split_numeric(
    cfg: SystemConfig,
    rng: RngStream,
    samples: int,
) -> SplitOptimum:
    """Argmax of the aggregated MC delivery rate over P0 in [0, P].

    One `zf_statistics` pass is shared by every candidate split (common
    random numbers), and each split is reduced as `mixed_rates_mc` reduces
    it, so the sweep over P0 is smooth, rerunning with the same stream
    reproduces the optimum exactly, and the rate returned is the mixed MC
    total at the optimum.  The optimum is at the boundary when
    `maximize_1d` returns a scanned end, P0 = 0 or P.  A full cache
    (m = 1) returns before anything is drawn.
    """
    validate_zf_config(cfg)
    P = cfg.total_power
    if cfg.normalized_cache == 1.0:
        # a full cache makes the common flow infinitely efficient; nothing is drawn
        check_count("samples", samples)
        return SplitOptimum(common_power=P, rate=math.inf, at_boundary=True)
    stats = zf_statistics(cfg, rng, samples)

    def total_rate(common_power: float) -> float:
        return _mixed_rates(cfg, PowerSplit.compute(cfg, common_power), stats).total

    # the last grid point is 32 * (P / 32) == P, so a tied end comes back exactly
    best_p0, best_rate = maximize_1d(total_rate, 0.0, P, tol=_SPLIT_TOL, grid_points=33)
    return SplitOptimum(common_power=best_p0, rate=best_rate, at_boundary=best_p0 in (0.0, P))


def optimal_split_closed_form(cfg: SystemConfig) -> float:
    """Stationary split of the simplified two-term objective, clamped to [0, P].

    P - P0 = ((-(1-m)(1+Ic P) + T (Ic-Ip)(1+P)) /
              ((1-m) Ip (1+Ic P) - T Ic (Ic-Ip)))^+,
    with negative prescriptions meaning all power to the common stream.
    Requires a config that passes `validate_zf_config`, an informative
    estimate (sigma2 < 1) and a nondegenerate denominator.
    """
    validate_zf_config(cfg)
    K, s2, P, m = cfg.num_users, cfg.csit_error_var, cfg.total_power, cfg.normalized_cache
    if s2 == 1.0:
        raise ValueError(f"sigma2: the closed-form split needs an informative estimate (sigma2 < 1), got {s2!r}")
    ic, ip = _interference(cfg)
    load = transmissions(cfg.placement, m, K)
    num = -(1.0 - m) * (1.0 + ic * P) + load * (ic - ip) * (1.0 + P)
    den = (1.0 - m) * ip * (1.0 + ic * P) - load * ic * (ic - ip)
    if abs(den) <= DEFAULT_TOL.abs_tol:
        raise ValueError(f"m: the closed-form split's denominator vanishes at {m!r}; use the numeric optimizer")
    private_total = max(num / den, 0.0)
    return min(max(P - private_total, 0.0), P)

