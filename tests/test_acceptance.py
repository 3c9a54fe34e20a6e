"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single verdict line;
tolerances are stated inline next to the checks they guard.
"""

import math

import numpy as np
import pytest
from scipy import stats

from cachecast.caching import delivery_rate_selection, transmissions
from cachecast.channel import RngStream, SystemConfig, _complex_normal, min_norm_statistic
from cachecast.experiments import fig345_config
from cachecast.mathx import lambert_w, maximize_1d, reg_lower_gamma
from cachecast.mixed import (
    PowerSplit,
    mixed_rates_asymptotic,
    mixed_rates_mc,
    optimal_split_closed_form,
    optimal_split_numeric,
)
from cachecast.multicast import avg_rate_parallel, avg_rate_quasistatic, extreme_value_scale
from cachecast.multiplex import (
    build_zf_precoder,
    symmetric_rate_asymptotic,
    symmetric_rate_mc,
    zf_stats,
)
from cachecast.selection import (
    empirical_optimal_threshold,
    optimal_threshold_rayleigh,
    simulated_selection_rate,
)

SEED = 42


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail


def test_criterion_01_selection_threshold():
    P = 1000.0  # 30 dB
    s_star = optimal_threshold_rayleigh(P)
    f = lambda s: math.exp(-s / P) * math.log1p(s)
    h = 1e-3 * (1.0 + s_star)
    residual = abs(f(s_star + h) - f(s_star - h)) / (2 * h)
    cfg = SystemConfig(num_users=10_000, num_tx_antennas=1, total_power=P, normalized_cache=0.05)
    s_emp = empirical_optimal_threshold(
        cfg, RngStream(SEED), 100_000, bracket=(0.3 * s_star, 3.0 * s_star)
    )
    rel = abs(s_emp - s_star) / s_star
    _verdict(
        1,
        residual < 1e-6 and rel < 0.10,
        f"stationarity {residual:.2e} (< 1e-6), empirical argmax off by {rel:.1%} (< 10%)",
    )


def test_criterion_02_gain_tail_bound():
    worst = max(reg_lower_gamma(nt, 0.1586 * nt) * math.exp(nt) for nt in range(1, 65))
    _verdict(2, worst <= 1.0, f"max bound ratio {worst:.4f} over nt in [1, 64] (<= 1)")


def test_criterion_03_extreme_value_limit():
    est = min_norm_statistic(2, 10_000, RngStream(SEED), 100_000, dtype=np.float32)
    value = extreme_value_scale(2, 10_000) * est.mean
    target = math.gamma(1.5)
    rel = abs(value - target) / target
    _verdict(3, rel < 0.02, f"a_K * E[min] = {value:.5f} vs {target:.5f} ({rel:.2%} < 2%)")


def test_criterion_04_small_array_rate_law():
    P = 10.0
    worst_lo, worst_hi = math.inf, 0.0
    for i, K in enumerate((100, 1_000, 10_000)):
        cfg = SystemConfig(num_users=K, num_tx_antennas=1, total_power=P)
        n = 20_000 if K <= 1_000 else 5_000
        ratio = avg_rate_quasistatic(cfg, RngStream(SEED).derive(i), n).mean / (P / K)
        worst_lo, worst_hi = min(worst_lo, ratio), max(worst_hi, ratio)
    _verdict(
        4,
        0.8 <= worst_lo and worst_hi <= 1.2,
        f"R0 / (P/K) in [{worst_lo:.3f}, {worst_hi:.3f}] (within [0.8, 1.2])",
    )


def test_criterion_05_constant_rate_bands():
    P = 10.0
    spreads = []
    for scheme in ("antennas", "subchannels"):
        rates = []
        for i, K in enumerate((100, 1_000, 10_000)):
            n_log = math.ceil(math.log(K)) + 1
            if scheme == "antennas":
                cfg = SystemConfig(num_users=K, num_tx_antennas=n_log, total_power=P)
            else:
                cfg = SystemConfig(
                    num_users=K, num_tx_antennas=1, total_power=P, num_subchannels=n_log
                )
            n = 10_000 if K <= 1_000 else 2_000
            rates.append(avg_rate_parallel(cfg, RngStream(SEED).derive(10 + i), n).mean)
        spreads.append(max(max(rates) / rates[0], rates[0] / min(rates)))
    ok = all(s <= 2.0 for s in spreads)
    _verdict(
        5,
        ok,
        f"band spread vs K=100 value: antennas {spreads[0]:.2f}x, "
        f"sub-channels {spreads[1]:.2f}x (<= 2x)",
    )


def test_criterion_06_selection_linear_scaling():
    P, m = 1000.0, 0.05
    s_star = optimal_threshold_rayleigh(P)
    per_user = []
    for i, K in enumerate((100, 1_000, 10_000)):
        est = delivery_rate_selection(m, s_star, P, K, RngStream(SEED).derive(20 + i), 100_000)
        per_user.append(est.mean / K)
    spread = max(per_user) / min(per_user) - 1.0
    K = 10_000
    cfg = SystemConfig(num_users=K, num_tx_antennas=1, total_power=P, normalized_cache=m)
    n = 100_000
    sel = simulated_selection_rate(cfg, s_star, RngStream(SEED).derive(23), n)
    target = math.exp(1.0 / P - 1.0 / lambert_w(P))
    se = math.sqrt(target * (1.0 - target) / (n * K))
    frac_dev = abs(sel.selected_fraction - target)
    _verdict(
        6,
        spread < 0.10 and frac_dev < 3 * se,
        f"Rmc/K spread {spread:.1%} (< 10%), selected fraction off by "
        f"{frac_dev:.2e} (< 3 se = {3 * se:.2e})",
    )


def test_criterion_07_zero_forcing_correctness():
    gen = RngStream(SEED).generator()
    worst = 0.0
    for K, nt in ((2, 4), (8, 16), (32, 64)):
        for _ in range(100):
            est = _complex_normal(gen, (K, nt), 1.0)
            pre = build_zf_precoder(est)
            cross = est @ pre.columns
            np.fill_diagonal(cross, 0.0)
            worst = max(worst, float(np.abs(cross).max() / np.abs(est).max()))
    cfg = SystemConfig(num_users=4, num_tx_antennas=8, total_power=4.0)
    _, g2, _ = zf_stats(cfg, RngStream(SEED).derive(30).generator(), 10_000)
    shape = 8 - 4 + 1
    ks = stats.kstest(g2[:, 0], lambda x: stats.gamma.cdf(x, a=shape)).statistic
    noisy = SystemConfig(num_users=8, num_tx_antennas=16, total_power=8.0, csit_error_var=0.4)
    _, _, inter = zf_stats(noisy, RngStream(SEED).derive(31).generator(), 10_000)
    scaled = inter / ((8 - 1) * 0.4)
    dev = abs(scaled.mean() - 1.0)
    se = scaled.std(ddof=1) / math.sqrt(scaled.size)
    ok = worst < 1e-10 and ks < 0.02 and dev < 3 * se
    _verdict(
        7,
        ok,
        f"cross-talk {worst:.1e} (< 1e-10), gain KS {ks:.3f} (< 0.02), "
        f"interference mean off by {dev:.2e} (< 3 se)",
    )


def test_criterion_08_symmetric_rate_asymptotics():
    worst = 0.0
    for i, K in enumerate((50, 100)):
        for j, s2 in enumerate((0.0, 0.1, 0.5)):
            cfg = SystemConfig(
                num_users=K, num_tx_antennas=2 * K, total_power=float(K), csit_error_var=s2
            )  # p = 1
            mc = symmetric_rate_mc(cfg, RngStream(SEED).derive(40 + 3 * i + j), 400)
            rep = symmetric_rate_asymptotic(cfg)
            worst = max(worst, abs(mc.mean - rep.value) / rep.value)
    _verdict(8, worst < 0.10, f"max MC-vs-closed-form gap {worst:.1%} (< 10%)")


def test_criterion_09_mixed_endpoint_reductions():
    exact = True
    for s2 in (0.0, 0.1):
        cfg = SystemConfig(
            num_users=8, num_tx_antennas=16, total_power=8.0,
            normalized_cache=0.2, csit_error_var=s2,
        )
        stream = RngStream(SEED).derive(50)
        full = mixed_rates_mc(cfg, PowerSplit.compute(cfg, cfg.total_power), stream, 400)
        none = mixed_rates_mc(cfg, PowerSplit.compute(cfg, 0.0), stream, 400)
        exact &= full.common_rate == avg_rate_quasistatic(cfg, stream, 400).mean
        exact &= full.private_rate == 0.0
        exact &= none.common_rate == 0.0
        exact &= none.private_rate == symmetric_rate_mc(cfg, stream, 400).mean
    _verdict(9, exact, "P0 in {0, P} reproduces standalone estimates bit-exactly")


def test_criterion_10_dominance_and_monotone_split():
    m_grid = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
    base = fig345_config(20.0, m_grid[0])
    K, P = base.num_users, base.total_power
    r0 = avg_rate_quasistatic(base, RngStream(SEED).derive(60), 400)
    rsym = symmetric_rate_mc(base, RngStream(SEED).derive(61), 400)
    dominance = True
    private_fracs = []
    for m in m_grid:
        cfg = fig345_config(20.0, m)
        load = transmissions(cfg.placement, m, K)
        rmc, rmc_se = K * r0.mean / load, K * r0.std_err / load
        ruc, ruc_se = K * rsym.mean / (1 - m), K * rsym.std_err / (1 - m)
        opt = optimal_split_numeric(cfg, RngStream(SEED).derive(62), 200)
        best, best_se = max((rmc, rmc_se), (ruc, ruc_se))
        dominance &= opt.rate >= best - 3 * best_se
        private_fracs.append((P - opt.common_power) / P)
    monotone = all(
        private_fracs[i + 1] <= private_fracs[i] + 1e-9 for i in range(len(private_fracs) - 1)
    )
    _verdict(
        10,
        dominance and monotone,
        f"mixed optimum dominates both schemes (3 se) and private fraction "
        f"{[round(f, 3) for f in private_fracs]} is nonincreasing in m",
    )


def _saturation_crossing(per_user_p_db: float, lo: float, hi: float) -> float:
    """Smallest m (bisection) where the split is effectively all-multicast.

    At finite K the exact-MC optimum always keeps an infinitesimal private
    sliver, so "P0*/P = 1" is read as: the interior optimum improves on the
    pure-multicast rate by less than 1%.
    """

    def saturated(m: float) -> bool:
        cfg = fig345_config(per_user_p_db, m)
        opt = optimal_split_numeric(cfg, RngStream(SEED).derive(70), 200)
        boundary = mixed_rates_mc(
            cfg, PowerSplit.compute(cfg, cfg.total_power), RngStream(SEED).derive(70), 200
        )
        return opt.rate < 1.01 * boundary.total

    assert not saturated(lo) and saturated(hi)
    for _ in range(6):
        mid = 0.5 * (lo + hi)
        if saturated(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_criterion_11_saturation_points():
    m10 = _saturation_crossing(10.0, 0.01, 0.08)
    m20 = _saturation_crossing(20.0, 0.15, 0.35)
    ok = abs(m10 - 0.035) <= 0.015 and abs(m20 - 0.25) <= 0.03
    _verdict(
        11,
        ok,
        f"all-multicast from m = {m10:.3f} at 10 dB (3.5% +/- 1.5pp) and "
        f"m = {m20:.3f} at 20 dB (25% +/- 3pp)",
    )


def test_criterion_12_closed_form_split_agreement():
    worst = 0.0
    interior = 0
    for p_db in (10.0, 15.0, 20.0, 25.0, 30.0):
        for m in (0.1, 0.2, 0.3, 0.4, 0.5):
            cfg = fig345_config(p_db, m)
            P = cfg.total_power

            def objective(p0):
                split = PowerSplit.compute(cfg, p0)
                return mixed_rates_asymptotic(cfg, split, simplified=True).total

            p0_num, _ = maximize_1d(objective, 0.0, P, grid_points=65)
            p0_closed = optimal_split_closed_form(cfg)
            if p0_closed >= P or p0_num >= 0.999 * P:
                continue
            interior += 1
            worst = max(worst, abs(p0_closed - p0_num) / P)
    _verdict(
        12,
        interior > 0 and worst < 0.02,
        f"closed vs numeric split within {worst:.2%} of P (< 2%) on "
        f"{interior} interior grid points",
    )
