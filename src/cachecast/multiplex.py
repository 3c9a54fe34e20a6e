"""Zero-forcing spatial multiplexing under imperfect transmitter CSIT.

Each private beam is forced into the null space of the other users'
*estimated* channels, so residual interference comes only from the
estimation error.  One batched kernel, `zf_beams`, builds the beams for a
whole stack of draws: an LU inverse when nt = K, a QR of est^H when
nt > K.  It also returns each user's gain through its own beam, so the
per-draw statistics need only the error seen through the beams.  The exact
Monte-Carlo path and the large-system closed form are both exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .channel import (
    RngStream,
    SystemConfig,
    channel_stacks,
    check_quasistatic,
    draw_channel_batch,  # not called here; bench/test_bench.py checks this binding is traced
    draw_stacks,
    squared_row_norms,
)
from .results import RateEstimate, rates_overflow_by_power

__all__ = [
    "ZfPrecoder",
    "AsymptoticSymmetricRate",
    "zf_beams",
    "validate_zf_config",
    "zf_stats",
    "zf_statistics",
    "private_rate_values",
    "build_zf_precoder",
    "symmetric_rate_mc",
    "symmetric_rate_asymptotic",
]

# a gain below this fraction of the largest estimate entry means the
# estimate rows were numerically dependent and the null-space projection is
# meaningless
_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class ZfPrecoder:
    """Unit-norm beamforming columns (nt, K)."""

    columns: np.ndarray


@dataclass(frozen=True)
class AsymptoticSymmetricRate:
    """Large-system symmetric rate with the case-selecting proxy recorded."""

    value: float
    regime: str  # "bounded_gain" | "growing_gain"
    proxy: float  # (nt - K + 1)(1 - sigma2), decides the case at finite size
    extrapolated: bool  # nt == K sits outside the nt/K > 1 guarantee


def _conj_t(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def zf_beams(est: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Zero-forcing beams for a stack of estimated channels (..., K, nt).

    Returns unit-norm beams w (..., nt, K) and real positive gains
    (..., K) with est @ w == diag(gain) up to rounding.  Beam w_k is the
    unit-norm projection of conj(est[k]) off the span of the other users'
    conjugated rows, i.e. the normalized k-th column of the right inverse
    est^H (est est^H)^-1.  With nt = K that inverse is est^-1 (LU).  With
    nt > K it is Q R^-H for the reduced QR est^H = Q R, which avoids the
    Gram matrix est est^H and so does not square the condition number.
    Raises ValueError when nt < K, on a NaN or inf entry, or when a draw's
    rows are numerically dependent (a gain below _RANK_RTOL times its largest entry).
    """
    est = np.asarray(est, dtype=np.complex128)
    K, nt = est.shape[-2:]
    _check_nt(K, nt)
    scale = np.abs(est).max(axis=(-2, -1))
    if not np.isfinite(scale).all():
        raise ValueError("est: expected finite entries, got a NaN or inf")
    try:
        if nt == K:
            w = np.linalg.inv(est)
        else:
            q, r = np.linalg.qr(_conj_t(est))
            w = q @ _conj_t(np.linalg.inv(r))
    except np.linalg.LinAlgError as exc:
        raise ValueError("estimated rows are numerically rank deficient") from exc
    gain = 1.0 / np.linalg.norm(w, axis=-2)
    if np.any(gain < _RANK_RTOL * scale[..., None]):
        raise ValueError("estimated rows are numerically rank deficient")
    w *= gain[..., None, :]
    return w, gain


def build_zf_precoder(est_h: np.ndarray) -> ZfPrecoder:
    """Beamformers w_k from one estimated channel matrix (K rows of length nt).

    `zf_beams` on a single matrix: est_h @ columns is diagonal.
    """
    est_h = np.asarray(est_h, dtype=np.complex128)
    if est_h.ndim != 2:
        raise ValueError(f"est_h: expected a (K, nt) matrix, got shape {est_h.shape}")
    return ZfPrecoder(columns=zf_beams(est_h)[0])


def validate_zf_config(cfg: SystemConfig) -> None:
    """The one zero-forcing scenario rule: nt >= K on the quasi-static channel.

    Every zero-forcing estimator and closed form calls it; each message
    leads with the config key the CLI reads.
    """
    _check_nt(cfg.num_users, cfg.num_tx_antennas)
    check_quasistatic(cfg, "zero forcing")


def _check_nt(K: int, nt: int) -> None:
    if nt < K:
        raise ValueError(f"nt: zero forcing requires nt >= K = {K}, got {nt!r}")


def zf_stats(
    cfg: SystemConfig, gen: np.random.Generator, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-draw (||H_k||^2, |G_k|^2, sum_{l!=k}|Gt_{k,l}|^2), each (n, K).

    G = H @ W is the true channel seen through the beams.  As H = est + err
    and est @ W = diag(gain), G = diag(gain) + Gt with Gt = err @ W: the
    signal gain is |gain_k + Gt_kk|^2 and the interference is the
    off-diagonal energy of Gt.  With perfect CSIT (sigma2 = 0) Gt is zero,
    so it is not formed.  When the estimate carries no information
    (sigma2 = 1) the beams come from the blind beams of `channel_stacks`,
    and the signal term is Gt_kk alone.  Every step runs per sub-stack and
    per draw, so the outputs equal the one-shot computation bit for bit.  A
    config that fails `validate_zf_config`, or an n that fails
    `check_count("n", n, 0)` in `channel_stacks`, raises before anything is
    drawn.
    """
    validate_zf_config(cfg)
    return _zf_fill(cfg, n, channel_stacks(cfg, gen, n, blind_beams=True))


def _zf_substack(cfg: SystemConfig, true, est, err) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`zf_stats` of one sub-stack of draws, each (rows, K)."""
    s2 = cfg.csit_error_var
    norm2 = squared_row_norms(true[:, 0])
    w, gain = zf_beams(est[:, 0])
    if s2 == 0.0:
        return norm2, gain**2, np.zeros_like(norm2)
    idx = np.arange(cfg.num_users)
    gt = err[:, 0] @ w
    g = gt[:, idx, idx] if s2 == 1.0 else gain + gt[:, idx, idx]
    gt2 = gt.real * gt.real + gt.imag * gt.imag
    return norm2, g.real * g.real + g.imag * g.imag, gt2.sum(axis=2) - gt2[:, idx, idx]


def _zf_fill(cfg: SystemConfig, n: int, stacks) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_zf_substack` of each (rows, true, est, err) of stacks, written into (n, K) outputs."""
    stats = tuple(np.empty((n, cfg.num_users)) for _ in range(3))
    for rows, *stack in stacks:
        for out, part in zip(stats, _zf_substack(cfg, *stack)):
            out[rows] = part
    return stats


def zf_statistics(
    cfg: SystemConfig, rng: RngStream, samples: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`zf_stats` of `samples` draws of `draw_stacks`: the mixed estimators' one pass."""
    validate_zf_config(cfg)
    return _zf_fill(cfg, samples, draw_stacks(cfg, rng, samples, blind_beams=True))


def private_rate_values(g2: np.ndarray, inter: np.ndarray, p: float) -> np.ndarray:
    """Per-draw user-averaged ln(1 + SINR_k) at private power p per user."""
    return np.log1p(g2 * p / (1.0 + inter * p)).mean(axis=1)


def symmetric_rate_mc(cfg: SystemConfig, rng: RngStream, samples: int) -> RateEstimate:
    """Exact MC mean of ln(1 + SINR_k) with uniform power p = P/K.

    The precoder is rebuilt from the estimate on every draw and applied to
    the true channel; the rate is averaged over users and draws.
    """
    validate_zf_config(cfg)
    p = cfg.total_power / cfg.num_users
    stacks = draw_stacks(cfg, rng, samples, blind_beams=True)
    values = np.empty(samples)
    for rows, *stack in stacks:
        _, g2, inter = _zf_substack(cfg, *stack)
        with rates_overflow_by_power():
            values[rows] = private_rate_values(g2, inter, p)
    return RateEstimate.from_values(values)


def symmetric_rate_asymptotic(cfg: SystemConfig) -> AsymptoticSymmetricRate:
    """Large-system symmetric rate with the two-case gain dichotomy.

    Bounded effective gain x = (nt-K+1)(1-sigma2):  (1 + x)/(1/p + K - 1);
    growing gain: ln(1 + x/(1/p + (K-1) sigma2)).  The finite proxy x <> 1
    selects the case; nt = K is served with an extrapolation flag since the
    derivation assumes strictly more antennas than users.  Zero power gives
    rate 0.  A config that fails `validate_zf_config` raises.
    """
    validate_zf_config(cfg)
    nt, K, s2 = cfg.num_tx_antennas, cfg.num_users, cfg.csit_error_var
    p = cfg.total_power / K
    proxy = (nt - K + 1) * (1.0 - s2)
    regime = "bounded_gain" if proxy < 1.0 else "growing_gain"
    if p == 0.0:
        value = 0.0
    elif proxy < 1.0:
        value = (1.0 + proxy) / (1.0 / p + K - 1.0)
    else:
        value = math.log1p(proxy / (1.0 / p + (K - 1) * s2))
    return AsymptoticSymmetricRate(
        value=value, regime=regime, proxy=proxy, extrapolated=nt == K
    )
