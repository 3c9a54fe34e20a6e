"""Command-line front end: figure sweeps, generic sweeps, and the check gate.

This is the only layer that speaks decibels and files; everything below it
works in linear SNR and plain dataclasses.  Exit codes: 0 success, 1 bad
configuration, 2 property-suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import caching, mixed, multicast, multiplex, selection
from .channel import RngStream, SystemConfig
from .experiments import (
    FIG345_M_GRID,
    SweepResult,
    SweepRow,
    db_to_linear,
    default_samples,
    fig345_config,
    run_fig1,
    run_fig2,
    run_fig3_4_5,
    run_property_suite,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachecast",
        description="Content delivery rate sweeps for cache-aided multi-antenna downlinks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, brief in (
        ("fig1", "multicasting schemes vs number of users"),
        ("fig2", "optimal selection threshold, empirical vs closed form"),
        ("fig3", "delivery rate of multicast / multiplex / mixed vs cache size"),
        ("fig4", "optimal common power fraction vs cache size"),
        ("fig5", "preferable and optimal regions of coded multicasting"),
        ("sweep", "generic sweep driven entirely by a config file"),
        ("check", "run the cross-module property suite"),
        ("threshold", "print the optimal selection threshold for a power"),
        ("split", "print the optimal common power for a scenario"),
    ):
        cmd = sub.add_parser(name, help=brief)
        cmd.add_argument("--config", type=str, default=None, help="JSON config file")
        cmd.add_argument("--seed", type=int, default=42)
        cmd.add_argument("--samples", type=int, default=None)
        cmd.add_argument("--out", type=str, default=None)
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        if name in ("fig3", "fig4", "fig5"):
            cmd.add_argument(
                "--workers",
                type=int,
                default=None,
                help="threads for the grid points (default: usable CPUs); rows do not depend on it",
            )
    return parser


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must contain a JSON object")
    return cfg


def _emit(result: SweepResult, out: Optional[str], fmt: str) -> None:
    write = result.write_csv if fmt == "csv" else result.write_json
    if out is None:
        write(sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write(fh)


def _sweep_config(cfg: dict, seed: int, samples: Optional[int]) -> SweepResult:
    """Generic sweep: one scheme over grids of P_dB and m from the config."""
    scheme = cfg.get("scheme", "multicast")
    K = int(cfg.get("K", 100))
    nt = int(cfg.get("nt", K))
    sigma2 = cfg.get("sigma2")
    rows = []
    idx = 0
    for p_db in cfg.get("P_dB", [20.0]):
        for m in cfg.get("m", [0.1]):
            n = samples if samples is not None else default_samples(K)
            P = db_to_linear(float(p_db))
            scenario = SystemConfig(
                num_users=K,
                num_tx_antennas=nt,
                total_power=P,
                num_subchannels=int(cfg.get("L", 1)),
                normalized_cache=float(m),
                csit_error_var=float(sigma2) if sigma2 is not None else 0.0,
                placement=cfg.get("placement", "decentralized"),
            )
            sub = RngStream(seed).derive(idx)
            idx += 1
            if scheme == "multicast":
                load = caching.transmissions(scenario.placement, scenario.normalized_cache, K)
                est = multicast.avg_rate_parallel(scenario, sub, n).scaled(K / load)
                p0_frac = 1.0
            elif scheme == "multiplex":
                est = multiplex.symmetric_rate_mc(scenario, sub, n).scaled(
                    K / (1.0 - scenario.normalized_cache)
                )
                p0_frac = 0.0
            else:
                raise ValueError(f"unknown sweep scheme {scheme!r}")
            rows.append(
                SweepRow(
                    scheme=scheme,
                    K=K,
                    nt=nt,
                    L=scenario.num_subchannels,
                    P_dB=float(p_db),
                    m=float(m),
                    sigma2=scenario.csit_error_var,
                    P0_frac=p0_frac,
                    mean_nats=est.mean,
                    std_err=est.std_err,
                    samples=n,
                    seed=seed,
                )
            )
    return SweepResult(rows=tuple(rows)).sorted()


def _run(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    seed = int(cfg.get("seed", args.seed))
    samples = args.samples if args.samples is not None else cfg.get("samples")
    if args.command == "fig1":
        result = run_fig1(
            seed=seed,
            samples=samples,
            k_grid=cfg.get("K", (50, 100, 200, 400, 800)),
            p_db_grid=cfg.get("P_dB", (30.0, 40.0)),
            m=float(cfg.get("m", 0.05)),
        )
        _emit(result, args.out, args.format)
        return 0
    if args.command == "fig2":
        result = run_fig2(
            seed=seed,
            samples=samples,
            k_grid=cfg.get("K", (100, 1_000, 10_000)),
            p_db_grid=cfg.get("P_dB", (30.0, 40.0, 50.0)),
            m=float(cfg.get("m", 0.05)),
        )
        _emit(result, args.out, args.format)
        return 0
    if args.command in ("fig3", "fig4", "fig5"):
        result = run_fig3_4_5(
            seed=seed,
            samples=samples,
            p_db_grid=cfg.get("P_dB", (10.0, 20.0)),
            m_grid=cfg.get("m", FIG345_M_GRID),
            workers=args.workers,
        )
        if args.command in ("fig4", "fig5"):
            # the split fraction and the regime flags both live on mixed_opt rows
            result = SweepResult(rows=tuple(r for r in result.rows if r.scheme == "mixed_opt"))
        _emit(result, args.out, args.format)
        return 0
    if args.command == "sweep":
        _emit(_sweep_config(cfg, seed, samples), args.out, args.format)
        return 0
    if args.command == "check":
        report = run_property_suite(seed=seed)
        for check in report.checks:
            status = "pass" if check.passed else "FAIL"
            print(f"{status}  {check.name}  margin={check.margin:+.3e}")
        return 0 if report.all_passed else 2
    if args.command == "threshold":
        p_db = float(cfg.get("P_dB", 30.0))
        s = selection.optimal_threshold_rayleigh(db_to_linear(p_db))
        print(f"P_dB={p_db} threshold={s!r}")
        return 0
    if args.command == "split":
        p_db = float(cfg.get("P_dB", 20.0))  # per-user power, numerics preset
        m = float(cfg.get("m", 0.1))
        scenario = fig345_config(p_db, m, num_users=int(cfg.get("K", 100)))
        n = samples if samples is not None else 200
        opt = mixed.optimal_split_numeric(scenario, RngStream(seed), n)
        frac = opt.common_power / scenario.total_power
        marker = " (boundary)" if opt.at_boundary else ""
        print(f"P_per_user_dB={p_db} m={m} P0_frac={frac!r} rate={opt.rate!r}{marker}")
        return 0
    raise ValueError(f"unknown command {args.command!r}")


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
