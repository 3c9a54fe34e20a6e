"""Command-line front end: figure sweeps, generic sweeps, and the check gate.

This is the only layer that speaks decibels and files; everything below it
works in linear SNR and plain dataclasses.  Config keys are checked per
command (`_COMMANDS`).  Exit codes: 0 success, 1 bad configuration
(or an allocation the system refuses), 2 property-suite failure.  Each
command runs with OpenBLAS on one thread (`_one_blas_thread`).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import math
import sys
from typing import Optional

from . import mixed, selection
from .channel import RngStream, check_count, check_number
from .experiments import (
    FIG345_SAMPLES,
    FIG345_USERS,
    SweepResult,
    db_to_linear,
    fig345_config,
    run_fig1,
    run_fig2,
    run_fig3_4_5,
    run_property_suite,
    run_sweep,
)

__all__ = ["main", "build_parser"]


def _mixed_opt_rows(**kwargs) -> SweepResult:
    # the split fraction and the regime flags of fig4/fig5 live on mixed_opt rows
    rows = run_fig3_4_5(**kwargs).rows
    return SweepResult(rows=tuple(r for r in rows if r.scheme == "mixed_opt"))


def _check(seed: int = 42) -> int:
    report = run_property_suite(seed=seed)
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"{status}  {check.name}  margin={check.margin:+.3e}")
    return 0 if report.all_passed else 2


def _threshold(p_db: float = 30.0) -> int:
    s = selection.optimal_threshold_rayleigh(db_to_linear(p_db))
    print(f"P_dB={p_db} threshold={s!r}")
    return 0


def _split(
    seed: int = 42, samples: int = FIG345_SAMPLES, p_db: float = 20.0, m: float = 0.1,
    num_users: int = FIG345_USERS,
) -> int:
    scenario = fig345_config(p_db, m, num_users=num_users)  # p_db is per-user power
    opt = mixed.optimal_split_numeric(scenario, RngStream(seed), samples)
    frac = opt.common_power / scenario.total_power
    marker = " (boundary)" if opt.at_boundary else ""
    print(f"P_per_user_dB={p_db} m={m} P0_frac={frac!r} rate={opt.rate!r}{marker}")
    return 0


# Config keys, each mapped to (the argument it feeds, its kind); see _value.
_SEED = {"seed": ("seed", "int")}
_RUN = {**_SEED, "samples": ("samples", "count")}
_FIG12 = {**_RUN, "K": ("k_grid", "counts"), "P_dB": ("p_db_grid", "floats"), "m": ("m", "float")}
_FIG345 = {**_RUN, "P_dB": ("p_db_grid", "floats"), "m": ("m_grid", "floats")}
_SWEEP = {
    **_RUN,
    "scheme": ("scheme", "str"),
    "K": ("num_users", "count"),
    "nt": ("nt", "count"),
    "L": ("subchannels", "count"),
    "P_dB": ("p_db_grid", "floats"),
    "m": ("m_grid", "floats"),
    "sigma2": ("sigma2", "float"),
    "placement": ("placement", "str"),
}
_SPLIT = {**_RUN, "P_dB": ("p_db", "float"), "m": ("m", "float"), "K": ("num_users", "count")}

# Per command: its help line, the name of the function in this module that
# runs it, and the config keys it reads.  The function is looked up by name
# when the command runs, so a rebinding of that name is seen.  Only the keys
# present in a config or given as a flag are passed, so each default lives in
# the function's signature; any other key is an error.
_COMMANDS = {
    "fig1": ("multicasting schemes vs number of users", "run_fig1", _FIG12),
    "fig2": ("optimal selection threshold, empirical vs closed form", "run_fig2", _FIG12),
    "fig3": ("delivery rate of multicast / multiplex / mixed vs cache size", "run_fig3_4_5",
             _FIG345),
    "fig4": ("optimal common power fraction vs cache size", "_mixed_opt_rows", _FIG345),
    "fig5": ("preferable and optimal regions of coded multicasting", "_mixed_opt_rows", _FIG345),
    "sweep": ("generic sweep driven entirely by a config file", "run_sweep", _SWEEP),
    "check": ("run the cross-module property suite", "_check", _SEED),
    "threshold": ("print the optimal selection threshold for a power", "_threshold",
                  {"P_dB": ("p_db", "float")}),
    "split": ("print the optimal common power for a scenario", "_split", _SPLIT),
}


# the commands that write rows (--out, --format)
_SWEEPS = ("fig1", "fig2", "fig3", "fig4", "fig5", "sweep")


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with only the flags that command reads."""
    parser = argparse.ArgumentParser(
        prog="cachecast",
        description="Content delivery rate sweeps for cache-aided multi-antenna downlinks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (brief, _, keys) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=brief)
        cmd.add_argument("--config", type=str, default=None, help="JSON config file")
        if "seed" in keys:
            cmd.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        if "samples" in keys:
            cmd.add_argument("--samples", type=int, default=argparse.SUPPRESS)
        if name in _SWEEPS:
            cmd.add_argument("--out", type=str, default=None)
            cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must contain a JSON object")
    return cfg


def _value(key: str, value, kind: str):
    """A config value checked against its kind, as the command receives it.

    Kinds: "int" (integral numbers become ints), "count" (an int that
    passes `channel.check_count`), "float", "str", and the non-empty lists
    "counts" and "floats".  Numbers in a float list are passed as written,
    so the rows print them as before.
    """
    if kind in ("counts", "floats"):
        if not isinstance(value, list):
            raise ValueError(f"{key}: expected a list, got {value!r}")
        if not value:
            raise ValueError(f"{key}: expected a non-empty list")
        return [_value(key, v, "count" if kind == "counts" else "number") for v in value]
    if kind == "str":
        if not isinstance(value, str):
            raise ValueError(f"{key}: expected a string, got {value!r}")
        return value
    check_number(key, value, -math.inf, math.inf)
    if kind in ("int", "count"):
        if value != int(value):
            raise ValueError(f"{key}: expected an integer, got {value!r}")
        if kind == "count":
            check_count(key, int(value))  # an integral JSON number such as 20.0 passes
        return int(value)
    return float(value) if kind == "float" else value


def _emit(result: SweepResult, out: Optional[str], fmt: str) -> None:
    write = result.write_csv if fmt == "csv" else result.write_json
    if out is None:
        write(sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write(fh)


def _run(args: argparse.Namespace) -> int:
    flags = dict(vars(args))  # after the pops: the --seed and --samples given
    _, runner, keys = _COMMANDS[flags.pop("command")]
    config = _load_config(flags.pop("config"))
    out, fmt = flags.pop("out", None), flags.pop("format", None)
    kwargs = {}
    for key, value in {**config, **flags}.items():  # a flag beats the file
        if key not in keys:
            raise ValueError(f"{key}: not a {args.command} config key; known: {', '.join(keys)}")
        kwargs[keys[key][0]] = _value(key, value, keys[key][1])
    result = globals()[runner](**kwargs)
    if fmt is None:  # a command that prints its own report and exit code
        return result
    _emit(result, out, fmt)
    return 0


@functools.cache
def _openblas() -> Optional[tuple]:
    """numpy's OpenBLAS thread-count (getter, setter), or None for another BLAS.

    Looked up once, on the first command rather than on import.
    """
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS on one thread inside the body; the caller's count after it.

    A command's output then does not depend on the BLAS thread count it
    started with (the ZF solves of fig3-5 round differently on more
    threads), and the grid pool is the one parallel layer.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    caller = get()
    set_(1)
    try:
        yield
    finally:
        set_(caller)


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _one_blas_thread():
        try:
            return _run(args)
        except (ValueError, OSError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
