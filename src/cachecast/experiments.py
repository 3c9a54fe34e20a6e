"""Desk-scale experiment sweeps and the machine-readable property suite.

Every sweep row records the scheme, the full parameter point, and the
(seed, samples) pair, so any row can be regenerated bit-identically.  All
internal math is linear; decibels appear only in the row metadata.

Every sweep runs through one grid loop, `_sweep`, which builds each row
through `_row`, the one place a row's K, nt, L, m and sigma2 are filled in.
Each runner builds and checks its (P_dB, SystemConfig, ...) points before
it calls `_sweep`, so a bad value fails by its key before any point runs.
Grids run P_dB-major, over K for fig1/fig2 and over m for fig3/4/5 and
sweep; a fig1 point is one (P_dB, K, scheme) with the scheme innermost, in
the order mc_nt1, mc_select, mc_ntlog, mc_parallel.

The grid points run on one thread pool, one thread per CPU in this
process's affinity mask, capped at the number of points; the rows are
collected in grid order, so they are the same at any thread count.  numpy
releases the interpreter lock in its random fills, ufuncs and LAPACK
calls, which is where the points spend their time.  Grid point i runs on
the substream RngStream(seed).derive(i), and a fig3/4/5 point splits it
into derive(j) for j = multicast, multiplex, mixed_opt.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Sequence, TextIO

import numpy as np

from . import caching, channel, mathx, mixed, multicast, multiplex, selection
from .channel import RngStream, SystemConfig
from .results import RateEstimate

__all__ = [
    "SweepRow",
    "SweepResult",
    "PropertyCheck",
    "PropertySuiteReport",
    "CSV_SCHEMA",
    "db_to_linear",
    "default_samples",
    "run_fig1",
    "run_fig2",
    "run_fig3_4_5",
    "run_sweep",
    "run_property_suite",
]

CSV_SCHEMA = "cachecast-sweep-v1"


def db_to_linear(x_db: float) -> float:
    """10^(x_db / 10); a P_dB that is no finite number, or whose power overflows or underflows, fails."""
    channel.check_number("P_dB", x_db, -math.inf, math.inf)
    try:
        power = 10.0 ** (x_db / 10.0)
    except OverflowError:
        raise ValueError(f"P_dB: {x_db!r} dB is beyond the float range") from None
    if power == 0.0:
        raise ValueError(f"P_dB: {x_db!r} dB underflows to zero power")
    return power


def default_samples(num_users: int) -> int:
    """Desk-scale sample budget: shrink with K to keep sweeps interactive."""
    return 100_000 if num_users <= 1_000 else 10_000


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    K: int
    nt: int
    L: int
    P_dB: float
    m: float
    sigma2: float
    P0_frac: float
    mean_nats: float
    std_err: float
    samples: int
    seed: int
    flags: str = ""


# the CSV header and the JSON keys, in declaration order
COLUMNS = tuple(f.name for f in fields(SweepRow))


def _cell(value):
    """The one rule of row output: +-inf becomes "inf"/"-inf", any other value is kept.

    csv.writer prints the kept floats with repr, and json writes them as numbers.
    """
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    def write_csv(self, fh: TextIO) -> None:
        fh.write(f"# {CSV_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for row in self.rows:
            writer.writerow([_cell(getattr(row, c)) for c in COLUMNS])

    def write_json(self, fh: TextIO) -> None:
        payload = [{c: _cell(getattr(row, c)) for c in COLUMNS} for row in self.rows]
        json.dump({"schema": CSV_SCHEMA, "rows": payload}, fh, indent=2)
        fh.write("\n")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep(seed: int, points: Sequence[tuple], point_rows: Callable) -> SweepResult:
    """The one grid loop: point_rows(RngStream(seed).derive(i), *points[i]) for each i.

    The points run on one thread per usable CPU, capped at the number of
    points; the rows come out sorted by (scheme, K, P_dB, m).
    """
    base = RngStream(seed)
    threads = max(1, min(_usable_cpus(), len(points)))  # an empty grid gives no rows
    with ThreadPoolExecutor(max_workers=threads) as pool:
        chunks = list(pool.map(lambda i: point_rows(base.derive(i), *points[i]), range(len(points))))
    rows = (row for chunk in chunks for row in chunk)
    return SweepResult(rows=tuple(sorted(rows, key=lambda r: (r.scheme, r.K, r.P_dB, r.m))))


def _row(
    cfg: SystemConfig, p_db: float, samples: int, seed: int,
    scheme: str, p0_frac: float, mean: float, std_err: float = 0.0, flags: str = "",
) -> SweepRow:
    """The one place a row is located: K, nt, L, m and sigma2 come from cfg.

    P_dB is written as the grid gave it (fig3/4/5 grids are per-user power).
    """
    return SweepRow(
        scheme=scheme, K=cfg.num_users, nt=cfg.num_tx_antennas, L=cfg.num_subchannels, P_dB=p_db,
        m=cfg.normalized_cache, sigma2=cfg.csit_error_var, P0_frac=p0_frac, mean_nats=mean,
        std_err=std_err, samples=samples, seed=seed, flags=flags,
    )


def _delivery_row(
    scheme: str, cfg: SystemConfig, p_db: float, rng: RngStream, samples: int,
    p0_frac: float, link: Callable[..., RateEstimate], load: float,
) -> SweepRow:
    """The row of link(cfg, rng, samples) scaled by K / load.

    A full cache (load 0) gives inf with std_err 0.0 and runs no estimator,
    so it draws nothing; `samples` is still checked.
    """
    channel.check_count("samples", samples)
    if load == 0.0:
        return _row(cfg, p_db, samples, rng.seed, scheme, p0_frac, math.inf)
    rate = link(cfg, rng, samples).scaled(cfg.num_users / load)
    return _row(cfg, p_db, samples, rng.seed, scheme, p0_frac, rate.mean, rate.std_err)


def _multicast_row(
    scheme: str, cfg: SystemConfig, p_db: float, rng: RngStream, samples: int
) -> SweepRow:
    load = caching.transmissions(cfg.placement, cfg.normalized_cache, cfg.num_users)
    return _delivery_row(scheme, cfg, p_db, rng, samples, 1.0, multicast.avg_rate_parallel, load)


def _multiplex_row(
    scheme: str, cfg: SystemConfig, p_db: float, rng: RngStream, samples: int
) -> SweepRow:
    return _delivery_row(scheme, cfg, p_db, rng, samples, 0.0, multiplex.symmetric_rate_mc,
                         1.0 - cfg.normalized_cache)


def _selection_grid(k_grid: Sequence[int], p_db_grid: Sequence[float], m: float) -> tuple:
    """P_dB-major (P_dB, single-antenna config) points, each checked, and s* per P_dB."""
    points, closed = [], {}
    for p_db in p_db_grid:
        P = db_to_linear(p_db)
        closed[p_db] = selection.optimal_threshold_rayleigh(P)
        for K in k_grid:
            cfg = SystemConfig(num_users=K, num_tx_antennas=1, total_power=P, normalized_cache=m)
            selection.validate_selection_config(cfg)
            points.append((p_db, cfg))
    return points, closed


# --- Fig. 1: multicasting schemes vs K ------------------------------------

FIG1_K_GRID = (50, 100, 200, 400, 800)
FIG1_P_DB = (30.0, 40.0)
FIG1_M = 0.05


def run_fig1(
    seed: int = 42,
    samples: Optional[int] = None,
    k_grid: Sequence[int] = FIG1_K_GRID,
    p_db_grid: Sequence[float] = FIG1_P_DB,
    m: float = FIG1_M,
) -> SweepResult:
    """Delivery rate of the four multicasting schemes vs K at m = 5%.

    Schemes: single antenna; single antenna with threshold selection;
    nt = floor(ln K) antennas; single antenna over L = floor(ln K)
    sub-channels.
    """
    single, closed = _selection_grid(k_grid, p_db_grid, m)
    points = []
    for p_db, cfg in single:
        n_log = max(1, int(math.floor(math.log(cfg.num_users))))
        points += [(p_db, cfg, "mc_nt1"), (p_db, cfg, "mc_select"),
                   (p_db, replace(cfg, num_tx_antennas=n_log), "mc_ntlog"),
                   (p_db, replace(cfg, num_subchannels=n_log), "mc_parallel")]

    def point(sub: RngStream, p_db: float, cfg: SystemConfig, scheme: str) -> list:
        n = samples if samples is not None else default_samples(cfg.num_users)
        if scheme != "mc_select":
            return [_multicast_row(scheme, cfg, p_db, sub, n)]
        sel = caching.delivery_rate_selection(m, closed[p_db], cfg.total_power, cfg.num_users, sub, n)
        return [_row(cfg, p_db, n, seed, scheme, 1.0, sel.mean, sel.std_err)]

    return _sweep(seed, points, point)


# --- Fig. 2: optimal selection threshold, empirical vs closed form --------

FIG2_K_GRID = (100, 1_000, 10_000)
FIG2_P_DB = (30.0, 40.0, 50.0)


def run_fig2(
    seed: int = 42,
    samples: Optional[int] = None,
    k_grid: Sequence[int] = FIG2_K_GRID,
    p_db_grid: Sequence[float] = FIG2_P_DB,
    m: float = FIG1_M,
) -> SweepResult:
    """Optimal SNR threshold vs K: simulated argmax over (1, 3 s*) against s* = P/W(P) - 1."""
    points, closed = _selection_grid(k_grid, p_db_grid, m)
    for p_db, s_star in closed.items():
        if not 3.0 * s_star > 1.0:  # below about -4.2 dB
            raise ValueError(f"P_dB: {p_db} is too low; the search bracket (1.0, {3.0 * s_star!r}) is empty")

    def point(sub: RngStream, p_db: float, cfg: SystemConfig) -> list:
        n = samples if samples is not None else default_samples(cfg.num_users)
        s_emp = selection.empirical_optimal_threshold(cfg, sub, n, (1.0, 3.0 * closed[p_db]))
        return [
            _row(cfg, p_db, n, seed, "threshold_empirical", 1.0, s_emp),
            _row(cfg, p_db, n, seed, "threshold_closed", 1.0, closed[p_db]),
        ]

    return _sweep(seed, points, point)


# --- Figs. 3-5: mixed delivery at nt = K = 100 ----------------------------

FIG345_M_GRID = (0.01, 0.02, 0.03, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5)
FIG345_P_DB = (10.0, 20.0)
FIG345_USERS = 100
FIG345_SAMPLES = 200


def fig345_config(per_user_p_db: float, m: float, num_users: int = FIG345_USERS) -> SystemConfig:
    """Numerics preset: nt = K, fixed per-user power, sigma2 = (P/K)^-1."""
    channel.check_number("P_dB", per_user_p_db, 0.0, math.inf)  # sigma2 = 1/p needs p >= 1
    per_user = db_to_linear(per_user_p_db)
    total = per_user * num_users
    if total == math.inf:
        raise ValueError(f"P_dB: {per_user_p_db!r} dB times K = {num_users} is beyond the float range")
    return SystemConfig(
        num_users=num_users,
        num_tx_antennas=num_users,
        total_power=total,
        normalized_cache=m,
        csit_error_var=1.0 / per_user,
    )


def _fig345_point(sub: RngStream, p_db: float, cfg: SystemConfig, n: int) -> list:
    """The three rows of one (P, m) point, on sub.derive(0), (1) and (2)."""
    mc = _multicast_row("multicast", cfg, p_db, sub.derive(0), n)
    uc = _multiplex_row("multiplex", cfg, p_db, sub.derive(1), n)
    opt = mixed.optimal_split_numeric(cfg, sub.derive(2), n)
    flags = []
    if opt.at_boundary:
        flags.append("boundary")
    if opt.saturated(cfg.total_power):
        flags.append("all_common")
    if mc.mean_nats >= uc.mean_nats:
        flags.append("mc_preferred")
    frac = opt.common_power / cfg.total_power
    return [mc, uc, _row(cfg, p_db, n, sub.seed, "mixed_opt", frac, opt.rate, flags=";".join(flags))]


def run_fig3_4_5(
    seed: int = 42,
    samples: Optional[int] = None,
    p_db_grid: Sequence[float] = FIG345_P_DB,
    m_grid: Sequence[float] = FIG345_M_GRID,
) -> SweepResult:
    """m-sweeps of the three delivery rates plus the optimal power split.

    The P_dB column carries *per-user* power here, matching the preset
    parameterization; the regime classification lives in the flags of the
    mixed_opt rows.
    """
    n = samples if samples is not None else FIG345_SAMPLES
    points = [(p_db, fig345_config(p_db, m)) for p_db in p_db_grid for m in m_grid]
    return _sweep(seed, points, lambda sub, p_db, cfg: _fig345_point(sub, p_db, cfg, n))


# --- Generic sweep: one scheme over P_dB x m ------------------------------


def run_sweep(
    seed: int = 42,
    samples: Optional[int] = None,
    scheme: str = "multicast",
    num_users: int = 100,
    nt: Optional[int] = None,
    subchannels: int = 1,
    p_db_grid: Sequence[float] = (20.0,),
    m_grid: Sequence[float] = (0.1,),
    sigma2: float = 0.0,
    placement: str = "decentralized",
) -> SweepResult:
    """One scheme over grids of P_dB and m; nt defaults to K.

    Every point's config is built, and so checked, before any point runs.
    """
    row_at = {"multicast": _multicast_row, "multiplex": _multiplex_row}.get(scheme)
    if row_at is None:
        raise ValueError(f"scheme: expected multicast or multiplex, got {scheme!r}")
    points = [
        (p_db, SystemConfig(
            num_users=num_users,
            num_tx_antennas=num_users if nt is None else nt,
            total_power=db_to_linear(p_db),
            num_subchannels=subchannels,
            normalized_cache=m,
            csit_error_var=sigma2,
            placement=placement,
        ))
        for p_db in map(float, p_db_grid) for m in map(float, m_grid)
    ]
    if scheme == "multiplex":
        for _, cfg in points:
            multiplex.validate_zf_config(cfg)
    n = samples if samples is not None else default_samples(num_users)
    return _sweep(seed, points, lambda sub, p_db, cfg: [row_at(scheme, cfg, p_db, sub, n)])


# --- Property suite -------------------------------------------------------


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    margin: float  # slack of the inequality / mismatch of the identity


@dataclass(frozen=True)
class PropertySuiteReport:
    checks: tuple
    all_passed: bool


def _check(name: str, passed: bool, margin: float) -> PropertyCheck:
    return PropertyCheck(name=name, passed=bool(passed), margin=float(margin))


def run_property_suite(seed: int = 42) -> PropertySuiteReport:
    """Fast cross-module invariant checks, reported as machine-readable rows."""
    base = RngStream(seed)
    checks = []

    # tail bound of the normalized channel gain around its mean
    worst = max(
        mathx.reg_lower_gamma(nt, 0.1586 * nt) * math.exp(nt) for nt in range(1, 65)
    )
    checks.append(_check("gain_tail_bound", worst <= 1.0, 1.0 - worst))

    # Lambert W inverse identity on a log grid
    grid = [10.0**e for e in range(-3, 7)]
    err = max(abs(mathx.lambert_w(x) * math.exp(mathx.lambert_w(x)) - x) / x for x in grid)
    checks.append(_check("lambert_w_identity", err < 1e-10, 1e-10 - err))

    # load limits: m -> 0 gives K transmissions, m = 1 gives none
    lim0 = abs(caching.transmissions("decentralized", 1e-12, 64) - 64.0)
    lim1 = caching.transmissions("decentralized", 1.0, 64)
    checks.append(_check("load_limits", lim0 < 1e-6 and lim1 == 0.0, 1e-6 - max(lim0, lim1)))

    # exact series mean of the worst normalized gain vs Monte-Carlo
    exact = channel.exact_min_mean(2, 5)
    mc = channel.min_norm_statistic(2, 5, base.derive(1), 200_000)
    dev = abs(mc.mean - exact)
    checks.append(_check("worst_gain_exact_mean", dev < 4.0 * mc.std_err, 4.0 * mc.std_err - dev))

    # Jensen sandwich around the parallel multicast rate on paired draws
    cfg = SystemConfig(num_users=8, num_tx_antennas=2, total_power=10.0, num_subchannels=3)
    mid = multicast.avg_rate_parallel(cfg, base.derive(2), 20_000)
    lo, hi = multicast.parallel_rate_bounds(cfg, base.derive(2), 20_000)
    ok = lo.mean <= mid.mean <= hi.mean
    checks.append(_check("parallel_rate_sandwich", ok, min(mid.mean - lo.mean, hi.mean - mid.mean)))

    # zero-forcing cross-talk
    gen = base.derive(3).generator()
    worst_xtalk = 0.0
    for K, nt in ((2, 4), (8, 16)):
        for _ in range(50):
            est = channel._complex_normal(gen, (K, nt), 1.0)
            pre = multiplex.build_zf_precoder(est)
            cross = est @ pre.columns
            np.fill_diagonal(cross, 0.0)
            worst_xtalk = max(worst_xtalk, float(np.abs(cross).max() / np.abs(est).max()))
    checks.append(_check("zf_orthogonality", worst_xtalk < 1e-10, 1e-10 - worst_xtalk))

    # leaked interference has the predicted mean (K-1) sigma2
    cfg = SystemConfig(num_users=16, num_tx_antennas=32, total_power=16.0, csit_error_var=0.3)
    _, _, inter = multiplex.zf_stats(cfg, base.derive(4).generator(), 2_000)
    ratio = float(inter.mean()) / ((cfg.num_users - 1) * cfg.csit_error_var)
    se = float(inter.std(ddof=1)) / (
        (cfg.num_users - 1) * cfg.csit_error_var * math.sqrt(inter.size)
    )
    checks.append(_check("zf_interference_mean", abs(ratio - 1.0) < 3.0 * se, 3.0 * se - abs(ratio - 1.0)))

    # mixed endpoints collapse to the standalone schemes bit-exactly
    cfg = SystemConfig(
        num_users=8, num_tx_antennas=16, total_power=8.0, normalized_cache=0.2, csit_error_var=0.1
    )
    full = mixed.mixed_rates_mc(cfg, mixed.PowerSplit.compute(cfg, cfg.total_power), base.derive(5), 500)
    none = mixed.mixed_rates_mc(cfg, mixed.PowerSplit.compute(cfg, 0.0), base.derive(5), 500)
    r0 = multicast.avg_rate_quasistatic(cfg, base.derive(5), 500)
    rsym = multiplex.symmetric_rate_mc(cfg, base.derive(5), 500)
    exact_red = (
        full.common_rate == r0.mean
        and full.private_rate == 0.0
        and none.common_rate == 0.0
        and none.private_rate == rsym.mean
    )
    checks.append(_check("mixed_endpoint_reduction", exact_red, 0.0 if exact_red else -1.0))

    # aggregated mixed rate is the sum of its two scaled flows
    split = mixed.PowerSplit.compute(cfg, 0.5 * cfg.total_power)
    rates = mixed.mixed_rates_mc(cfg, split, base.derive(6), 500)
    load = caching.transmissions(cfg.placement, cfg.normalized_cache, cfg.num_users)
    recomputed = (
        cfg.num_users * rates.common_rate / load
        + cfg.num_users * rates.private_rate / (1.0 - cfg.normalized_cache)
    )
    add_err = abs(recomputed - rates.total) / max(rates.total, 1e-300)
    checks.append(_check("mixed_rate_additivity", add_err < 1e-12, 1e-12 - add_err))

    return PropertySuiteReport(checks=tuple(checks), all_passed=all(c.passed for c in checks))
