"""Independent correctness oracles for cachecast sweep rows.

Nothing here imports cachecast: every expected value is recomputed from the
model with numpy and scipy (quadrature, binomial sums, scipy's Lambert W),
so a defect in the package cannot hide behind the same defect in its check.

Rows are dicts of the CSV columns as strings.  `check_rows` returns one
failure reason (or None) per row.  Monte-Carlo rows are compared within
Z_TOL standard errors; `mixed_opt` rows print std_err=0.0, which is not an
error bar, so their tolerance comes from the multicast and multiplex rows
of the same grid point.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np
from scipy import integrate, optimize, special, stats

Z_TOL = 4.0
# relative tolerance of closed-form comparisons
EXACT_RTOL = 1e-9


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def decentralized_load(m: float, K: int) -> float:
    """T(m, K) = (1 - m)(1 - (1 - m)^K) / m of decentralized placement."""
    if m == 0.0:
        return float(K)
    return (1.0 - m) * (1.0 - (1.0 - m) ** K) / m


def worst_user_expectation(g: Callable[[float], float], nt: int, K: int) -> float:
    """E[g(min_k X_k)] for K i.i.d. X_k ~ Gamma(nt, 1), by quadrature.

    The density of the minimum, K f(y) S(y)^(K-1), is integrated between
    quantiles outside which its mass is below 1e-16.
    """
    lo = special.gammaincinv(nt, 1e-16 / K)
    hi = special.gammainccinv(nt, 1e-16 ** (1.0 / K))
    # the bulk of the minimum's density sits near its median
    median = special.gammainccinv(nt, 0.5 ** (1.0 / K))

    log_norm = math.log(K) - special.gammaln(nt)

    def density(y: float) -> float:
        survival = special.gammaincc(nt, y)
        if survival <= 0.0 or y <= 0.0:
            return 0.0
        return math.exp(log_norm + (nt - 1) * math.log(y) - y + (K - 1) * math.log(survival))

    value, _ = integrate.quad(
        lambda y: g(y) * density(y), lo, hi, points=[median], limit=200, epsabs=0.0, epsrel=1e-11
    )
    return value


def multicast_link_rate(P: float, nt: int, K: int) -> float:
    """E[ln(1 + (P/nt) min_k ||h_k||^2)] with ||h_k||^2 ~ Gamma(nt, 1)."""
    return worst_user_expectation(lambda y: math.log1p(P / nt * y), nt, K)


def selection_moments(m: float, K: int, above: float, threshold: float) -> tuple:
    """Exact (mean, variance) of one selection sample's delivery rate.

    The selected count n ~ Binomial(K, above) enters as
    (m/(1-m)) n / (1 - (1-m)^n) ln(1 + s); n = 0 contributes 0.
    """
    n = np.arange(1, K + 1, dtype=np.float64)
    pmf = stats.binom.pmf(n, K, above)
    value = (m / (1.0 - m)) * n / (-np.expm1(n * np.log1p(-m))) * math.log1p(threshold)
    mean = float(np.sum(pmf * value))
    second = float(np.sum(pmf * value * value))
    return mean, max(second - mean * mean, 0.0)


def rayleigh_threshold(P: float) -> float:
    """Closed-form optimal threshold P / W(P) - 1 via scipy's Lambert W."""
    return P / float(np.real(special.lambertw(P))) - 1.0


def _float(row: dict, key: str) -> float:
    return float(row[key])


def _within(mean: float, expected: float, se: float) -> bool:
    return abs(mean - expected) <= Z_TOL * se


def _check_fig1(row: dict) -> Optional[str]:
    K, nt, L = int(row["K"]), int(row["nt"]), int(row["L"])
    P, m = db_to_linear(_float(row, "P_dB")), _float(row, "m")
    mean, se = _float(row, "mean_nats"), _float(row, "std_err")
    scale = K / decentralized_load(m, K)
    n_log = max(1, int(math.floor(math.log(K))))
    scheme = row["scheme"]
    if scheme in ("mc_nt1", "mc_ntlog"):
        want_nt = 1 if scheme == "mc_nt1" else n_log
        if (nt, L) != (want_nt, 1):
            return f"expected nt={want_nt}, L=1"
        expected = scale * multicast_link_rate(P, nt, K)
        if not _within(mean, expected, se):
            return f"mean {mean!r} vs quadrature {expected!r} beyond {Z_TOL} SE"
        return None
    if scheme == "mc_parallel":
        if (nt, L) != (1, n_log):
            return f"expected nt=1, L={n_log}"
        # min_k mean_l ln(1+P X) lies between mean_l min_k ln(1+P X) and, by
        # Jensen, ln(1 + P min_k mean_l X) with mean_l X ~ Gamma(L, 1)/L
        lower = scale * multicast_link_rate(P, 1, K)
        upper = scale * multicast_link_rate(P, L, K)
        if not lower - Z_TOL * se <= mean <= upper + Z_TOL * se:
            return f"mean {mean!r} outside [{lower!r}, {upper!r}] +- {Z_TOL} SE"
        return None
    if scheme == "mc_select":
        s = rayleigh_threshold(P)
        expected, _ = selection_moments(m, K, math.exp(-s / P), s)
        if not _within(mean, expected, se):
            return f"mean {mean!r} vs binomial sum {expected!r} beyond {Z_TOL} SE"
        return None
    return f"unknown fig1 scheme {scheme!r}"


def _check_fig2(row: dict) -> Optional[str]:
    K, nt = int(row["K"]), int(row["nt"])
    P, m = db_to_linear(_float(row, "P_dB")), _float(row, "m")
    s_closed = rayleigh_threshold(P)
    value = _float(row, "mean_nats")
    if nt != 1:
        return "fig2 rows are single-antenna"
    if row["scheme"] == "threshold_closed":
        if abs(value - s_closed) > EXACT_RTOL * (1.0 + abs(s_closed)):
            return f"threshold {value!r} vs scipy lambertw {s_closed!r}"
        return None
    if row["scheme"] != "threshold_empirical":
        return f"unknown fig2 scheme {row['scheme']!r}"
    lo, hi = 1.0, 3.0 * s_closed
    if not lo <= value <= hi:
        return f"threshold {value!r} outside the search bracket [{lo}, {hi!r}]"

    def rate(s: float) -> float:
        return selection_moments(m, K, math.exp(-s / P), s)[0]

    best = optimize.minimize_scalar(lambda s: -rate(s), bounds=(lo, hi), method="bounded",
                                    options={"xatol": 1e-8 * hi})
    best_rate = max(-best.fun, rate(s_closed))
    _, var = selection_moments(m, K, math.exp(-best.x / P), best.x)
    se = math.sqrt(var / int(row["samples"]))
    regret = best_rate - rate(value)
    if regret > Z_TOL * se:
        return f"exact rate at {value!r} is {regret!r} below the optimum, beyond {Z_TOL} SE"
    return None


def _check_fig3_point(group: dict) -> dict:
    """Failures of one (P_dB, m) point: multicast, multiplex and mixed_opt rows."""
    bad = {}
    for scheme, row in group.items():
        mean, se, frac = _float(row, "mean_nats"), _float(row, "std_err"), _float(row, "P0_frac")
        if not (math.isfinite(mean) and math.isfinite(se) and se >= 0.0):
            bad[scheme] = f"non-finite value or error bar ({mean!r}, {se!r})"
        elif not 0.0 <= frac <= 1.0:
            bad[scheme] = f"P0_frac {frac!r} outside [0, 1]"
    if set(group) != {"multicast", "multiplex", "mixed_opt"}:
        missing = {"multicast", "multiplex", "mixed_opt"} - set(group)
        return {s: f"grid point lacks {sorted(missing)}" for s in group}
    if bad:
        return bad
    mc, mp, opt = group["multicast"], group["multiplex"], group["mixed_opt"]
    K, nt = int(mc["K"]), int(mc["nt"])
    P = db_to_linear(_float(mc, "P_dB")) * K  # fig3's P_dB column is per-user power
    m = _float(mc, "m")
    expected = K / decentralized_load(m, K) * multicast_link_rate(P, nt, K)
    if not _within(_float(mc, "mean_nats"), expected, _float(mc, "std_err")):
        bad["multicast"] = f"mean {mc['mean_nats']} vs quadrature {expected!r} beyond {Z_TOL} SE"
    floor = max(_float(mc, "mean_nats"), _float(mp, "mean_nats"))
    floor -= Z_TOL * max(_float(mc, "std_err"), _float(mp, "std_err"))
    if _float(opt, "mean_nats") < floor:
        bad["mixed_opt"] = f"mixed optimum {opt['mean_nats']} below both schemes minus {Z_TOL} SE"
    return bad


def check_rows(rows: list, samples: int, seed: int) -> list:
    """One failure reason (or None) per row, in row order."""
    reasons: list = [None] * len(rows)
    points: dict = {}
    for i, row in enumerate(rows):
        try:
            if int(row["samples"]) != samples or int(row["seed"]) != seed:
                reasons[i] = "samples/seed columns differ from the config"
            elif row["scheme"] in ("multicast", "multiplex", "mixed_opt"):
                points.setdefault((row["P_dB"], row["m"]), {})[row["scheme"]] = i
            elif row["scheme"].startswith("threshold_"):
                reasons[i] = _check_fig2(row)
            else:
                reasons[i] = _check_fig1(row)
        except (KeyError, ValueError, OverflowError) as exc:
            reasons[i] = f"unparseable row: {exc!r}"
    for members in points.values():
        try:
            bad = _check_fig3_point({s: rows[i] for s, i in members.items()})
        except (KeyError, ValueError, OverflowError) as exc:
            bad = {s: f"unparseable row: {exc!r}" for s in members}
        for scheme, reason in bad.items():
            reasons[members[scheme]] = reason
    return reasons
