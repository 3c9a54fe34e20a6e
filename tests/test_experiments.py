import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cachecast import caching, cli, experiments, multicast, selection
from cachecast.channel import RngStream, SystemConfig
from cachecast.cli import main
from cachecast.experiments import (
    CSV_SCHEMA,
    SweepResult,
    SweepRow,
    _fig345_point,
    _multicast_row,
    _multiplex_row,
    db_to_linear,
    default_samples,
    fig345_config,
    run_fig1,
    run_fig2,
    run_fig3_4_5,
    run_property_suite,
    run_sweep,
)


def _row(**overrides):
    base = dict(
        scheme="multicast", K=10, nt=2, L=1, P_dB=20.0, m=0.1, sigma2=0.0,
        P0_frac=1.0, mean_nats=1.5, std_err=0.01, samples=100, seed=42,
    )
    base.update(overrides)
    return SweepRow(**base)


def test_db_roundtrip():
    assert db_to_linear(30.0) == pytest.approx(1000.0)


def test_default_samples_scales_down():
    assert default_samples(100) == 100_000
    assert default_samples(10_000) == 10_000


def test_csv_schema_and_inf_serialization():
    result = SweepResult(rows=(_row(), _row(scheme="mixed_opt", mean_nats=math.inf)))
    buf = io.StringIO()
    result.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == f"# {CSV_SCHEMA}"
    assert lines[1].split(",")[0] == "scheme"
    assert any(",inf," in line for line in lines[2:])


def test_json_output():
    buf = io.StringIO()
    SweepResult(rows=(_row(mean_nats=math.inf),)).write_json(buf)
    payload = json.loads(buf.getvalue())
    assert payload["schema"] == CSV_SCHEMA
    assert payload["rows"][0]["mean_nats"] == "inf"
    assert payload["rows"][0]["K"] == 10
    assert tuple(payload["rows"][0]) == experiments.COLUMNS


def test_fig1_rows_and_determinism():
    a = run_fig1(seed=1, samples=500, k_grid=(20, 40), p_db_grid=(30.0,))
    b = run_fig1(seed=1, samples=500, k_grid=(20, 40), p_db_grid=(30.0,))
    assert a == b
    schemes = {r.scheme for r in a.rows}
    assert schemes == {"mc_nt1", "mc_select", "mc_ntlog", "mc_parallel"}
    assert len(a.rows) == 8
    assert all(r.mean_nats > 0 for r in a.rows)


def test_fig1_rows_rerun_alone_from_their_substreams():
    # scheme j of grid point i = 1, (30 dB, K = 40), runs on derive(4i + j)
    res = run_fig1(seed=6, samples=300, k_grid=(20, 40), p_db_grid=(30.0,), m=0.1)
    got = {r.scheme: r.mean_nats for r in res.rows if r.K == 40}
    K, P, m, n, sub = 40, db_to_linear(30.0), 0.1, 300, RngStream(6).derive
    delivered = K / caching.transmissions("decentralized", m, K)
    single = SystemConfig(num_users=K, num_tx_antennas=1, total_power=P, normalized_cache=m)
    s_star = selection.optimal_threshold_rayleigh(P)
    multi = SystemConfig(num_users=K, num_tx_antennas=3, total_power=P, normalized_cache=m)
    parallel = SystemConfig(
        num_users=K, num_tx_antennas=1, total_power=P, num_subchannels=3, normalized_cache=m
    )
    assert got == {
        "mc_nt1": multicast.avg_rate_quasistatic(single, sub(4), n).scaled(delivered).mean,
        "mc_select": caching.delivery_rate_selection(m, s_star, P, K, sub(5), n).mean,
        "mc_ntlog": multicast.avg_rate_quasistatic(multi, sub(6), n).scaled(delivered).mean,
        "mc_parallel": multicast.avg_rate_parallel(parallel, sub(7), n).scaled(delivered).mean,
    }


@pytest.mark.parametrize(
    "scheme, row_at, nt, L", [("multicast", _multicast_row, 2, 2), ("multiplex", _multiplex_row, 8, 1)]
)
def test_sweep_rows_rerun_alone_from_their_substreams(scheme, row_at, nt, L):
    # grid point i = 3 of P_dB x m, (20 dB, m = 0.3), runs on derive(3)
    res = run_sweep(
        seed=7, samples=60, scheme=scheme, num_users=6, nt=nt, subchannels=L,
        p_db_grid=(10.0, 20.0), m_grid=(0.1, 0.3), sigma2=0.1, placement="centralized",
    )
    cfg = SystemConfig(
        num_users=6, num_tx_antennas=nt, total_power=100.0, num_subchannels=L,
        normalized_cache=0.3, csit_error_var=0.1, placement="centralized",
    )
    assert len(res.rows) == 4
    assert row_at(scheme, cfg, 20.0, RngStream(7).derive(3), 60) in res.rows


def test_fig3_point_reruns_alone_from_its_substream():
    res = run_fig3_4_5(seed=5, samples=4, p_db_grid=(10.0,), m_grid=(0.1, 0.3))
    alone = _fig345_point(RngStream(5).derive(1), 10.0, fig345_config(10.0, 0.3), 4)
    assert sorted(alone, key=lambda r: r.scheme) == [r for r in res.rows if r.m == 0.3]


def test_fig2_closed_column_constant_in_k():
    res = run_fig2(seed=2, samples=2_000, k_grid=(50, 200), p_db_grid=(30.0,))
    closed = [r.mean_nats for r in res.rows if r.scheme == "threshold_closed"]
    assert closed[0] == closed[1]
    empirical = [r.mean_nats for r in res.rows if r.scheme == "threshold_empirical"]
    assert all(v > 0 for v in empirical)


def test_fig3_point_rows_and_determinism():
    a = run_fig3_4_5(seed=3, samples=8, p_db_grid=(10.0,), m_grid=(0.1,))
    b = run_fig3_4_5(seed=3, samples=8, p_db_grid=(10.0,), m_grid=(0.1,))
    assert a == b
    assert sorted(r.scheme for r in a.rows) == ["mixed_opt", "multicast", "multiplex"]
    for r in a.rows:
        assert math.isfinite(r.mean_nats) and math.isfinite(r.std_err)
        assert 0.0 <= r.P0_frac <= 1.0
        assert (r.K, r.nt, r.P_dB, r.m, r.samples) == (100, 100, 10.0, 0.1, 8)


@pytest.mark.parametrize(
    "run, grid",
    [
        (run_fig1, dict(seed=4, samples=300, k_grid=(20, 60), p_db_grid=(30.0,))),
        (run_fig2, dict(seed=4, samples=300, k_grid=(50, 200), p_db_grid=(30.0,))),
        (run_fig3_4_5, dict(seed=4, samples=4, p_db_grid=(10.0,), m_grid=(0.1, 0.2, 0.3))),
        (run_sweep, dict(
            seed=4, samples=60, scheme="multiplex", num_users=6, nt=8,
            p_db_grid=(10.0, 20.0), m_grid=(0.1, 0.3), sigma2=0.1,
        )),
    ],
    ids=["fig1", "fig2", "fig3", "sweep"],
)
def test_rows_do_not_depend_on_the_thread_count(run, grid, monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    serial = run(**grid)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the pool's threads as finely as possible
    try:
        # 8 threads are more than the CPUs and are capped at the number of grid points
        for cpus in (2, 8):
            monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
            assert run(**grid) == serial
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("argv", [["split", "--seed", "-1"], ["fig1", "--seed", str(2**64)]])
def test_cli_rejects_seeds_outside_the_key_space(argv, capsys):
    assert main(argv + ["--samples", "2"]) == 1
    rule = ">= 0" if argv[2] == "-1" else "below 2**64"
    assert f"error: seed: expected an integer {rule}, got {argv[2]}\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--samples", "5"],
        ["threshold", "--seed", "3"],
        ["check", "--samples", "5"],
        ["check", "--out", "f"],
        *([command, "--workers", "2"] for command in ("fig2", "sweep", "split")),
        *([f"fig{n}", "--workers", "2"] for n in (1, 3, 4, 5)),
    ],
)
def test_cli_rejects_flags_the_command_does_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cli_flag_and_config_precedence(tmp_path, capsys):
    assert main(["split", "--seed", "7", "--samples", "4"]) == 0
    assert "P0_frac=" in capsys.readouterr().out
    # --seed and --samples both override the config's seed and samples
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"K": 4, "nt": 1, "seed": 9, "samples": 50}))
    assert main(["sweep", "--config", str(path), "--seed", "3", "--samples", "20", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["seed"], r["samples"]) for r in rows] == [(3, 20)]


def test_cli_looks_up_the_runner_when_the_command_runs(monkeypatch, capsys):
    # a rebinding of cli.run_fig2 (as an outside-in tracer makes) is the one called
    calls = []

    def stub(**kwargs):
        calls.append(kwargs)
        return SweepResult(rows=(_row(),))

    monkeypatch.setattr(cli, "run_fig2", stub)
    assert main(["fig2", "--seed", "5", "--samples", "10"]) == 0
    assert calls == [{"seed": 5, "samples": 10}]
    assert capsys.readouterr().out.startswith(f"# {CSV_SCHEMA}")


def test_property_suite_passes_on_reference_seed():
    report = run_property_suite(seed=42)
    failed = [c.name for c in report.checks if not c.passed]
    assert report.all_passed, f"failed checks: {failed}"
    assert len(report.checks) >= 8


def test_cli_threshold_and_exit_codes(tmp_path, capsys):
    assert main(["threshold"]) == 0
    out = capsys.readouterr().out
    assert "threshold=" in out
    # malformed config -> exit 1
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert main(["threshold", "--config", str(bad)]) == 1
    missing = tmp_path / "nope.json"
    assert main(["threshold", "--config", str(missing)]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["threshold", "--config", str(broken)]) == 1


@pytest.mark.parametrize("command, runner", [("split", "_split"), ("fig2", "run_fig2")])
def test_cli_reports_a_refused_allocation(command, runner, monkeypatch, capsys):
    # raised by a stub: a real oversized allocation may be killed instead of refused
    message = "Unable to allocate 149. GiB for an array with shape (100000, 100000, 2)"

    def refuse(**kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, runner, refuse)
    assert main([command]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# Starts OpenBLAS on two threads and runs three commands: one whose runner
# records the count it sees, one with a bad config, and one whose runner
# raises an error that main does not catch; prints the count after each.
_BLAS_CHILD = """
import json, sys
from cachecast import cli
blas = cli._openblas()
if blas is None:
    print("null")
    sys.exit()
get, set_ = blas
set_(2)  # OpenBLAS caps the variable at the CPU count
seen = []
cli._threshold = lambda p_db=30.0: seen.append(get()) or 0
codes, after = [], []
for argv in (["threshold"], ["threshold", "--config", sys.argv[1]]):
    codes.append(cli.main(argv))
    after.append(get())
def fail(**kwargs):
    raise RuntimeError("uncaught")
cli._split = fail
try:
    cli.main(["split"])
except RuntimeError:
    after.append(get())
print(json.dumps({"seen": seen, "codes": codes, "after": after}))
"""


def test_cli_runs_commands_on_one_blas_thread_and_restores_the_count(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"K": 3}))  # not a threshold key
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_CHILD, str(bad)],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "2",
             "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    printed = json.loads(proc.stdout)
    if printed is None:
        pytest.skip("numpy's BLAS is not OpenBLAS, whose thread count commands leave alone")
    assert printed == {"seen": [1], "codes": [0, 1], "after": [2, 2, 2]}


def test_cli_sweep_writes_csv(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"scheme": "multicast", "K": 10, "nt": 1, "P_dB": [20.0], "m": [0.1]}))
    out = tmp_path / "out.csv"
    code = main(["sweep", "--config", str(cfg), "--samples", "500", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith(f"# {CSV_SCHEMA}")
    assert "multicast" in text


def test_cli_unknown_sweep_scheme(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"scheme": "telepathy"}))
    assert main(["sweep", "--config", str(cfg), "--samples", "10"]) == 1


def test_cli_check_passes(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("fig1", '{"K": "100"}', "K"),
        ("fig1", '{"sigma": 0.5}', "sigma"),
        ("sweep", '{"P_dB": [1e400]}', "P_dB"),
        ("fig2", '{"P_dB": [NaN]}', "P_dB"),
        ("fig1", '{"K": [20.5]}', "K"),
        ("split", '{"samples": "10"}', "samples"),
        ("fig3", '{"m": [true]}', "m"),
        ("sweep", '{"nt": 4.5}', "nt"),
        ("threshold", '{"P_dB": [30]}', "P_dB"),
        ("check", '{"samples": 10}', "samples"),
        ("fig1", '{"K": []}', "K"),
        ("fig2", '{"P_dB": []}', "P_dB"),
        ("sweep", '{"m": []}', "m"),
        ("fig1", '{"K": [0]}', "K"),
        ("fig1", '{"K": [-5]}', "K"),
        ("fig2", '{"K": [0]}', "K"),
        ("fig2", '{"K": [100, -5]}', "K"),
        ("sweep", '{"nt": 0}', "nt"),
        ("split", '{"K": -1}', "K"),
        ("fig3", '{"samples": 0}', "samples"),
        ("fig1", '{"P_dB": [4000.0]}', "P_dB"),
        ("fig2", '{"P_dB": [4000.0]}', "P_dB"),
        ("fig3", '{"P_dB": [4000.0]}', "P_dB"),
        ("sweep", '{"P_dB": [4000.0]}', "P_dB"),
        ("threshold", '{"P_dB": 4000.0}', "P_dB"),
        ("split", '{"P_dB": 4000.0}', "P_dB"),
        ("fig3", '{"P_dB": [3080.0]}', "P_dB"),
        ("split", '{"P_dB": 3080.0}', "P_dB"),
        ("threshold", '{"P_dB": -4000.0}', "P_dB"),
        ("fig1", '{"P_dB": [-4000.0]}', "P_dB"),
        ("fig2", '{"P_dB": [-4000.0]}', "P_dB"),
        ("sweep", '{"P_dB": [-4000.0]}', "P_dB"),
        ("fig3", '{"m": [0.1, 1.5]}', "m"),
        ("fig4", '{"m": [-0.1]}', "m"),
        ("fig5", '{"m": [2.0]}', "m"),
        ("sweep", '{"m": [1.5]}', "m"),
        ("split", '{"m": -0.5}', "m"),
        ("sweep", '{"sigma2": 1.5}', "sigma2"),
        ("sweep", '{"sigma2": -0.1}', "sigma2"),
        ("sweep", '{"placement": "random"}', "placement"),
        ("sweep", '{"scheme": "telepathy"}', "scheme"),
        ("sweep", '{"scheme": "multiplex", "K": 8, "nt": 4}', "nt"),
        ("sweep", '{"scheme": "multiplex", "L": 2}', "L"),
        ("fig3", '{"P_dB": [10.0, -3.0]}', "P_dB"),
        ("fig4", '{"P_dB": [-3.0]}', "P_dB"),
        ("fig5", '{"P_dB": [-3.0]}', "P_dB"),
        ("split", '{"P_dB": -3.0}', "P_dB"),
        ("fig2", '{"K": [9223372036854775808]}', "K"),
        ("sweep", '{"L": 9223372036854775808}', "L"),
        ("sweep", '{"scheme": 5}', "scheme"),
        # an integer too large for a float, which float() would overflow on
        ("split", '{"m": 1' + "0" * 400 + "}", "m"),
    ],
)
def test_cli_rejects_bad_config_values(command, config, key, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "_sweep", lambda *a: pytest.fail("a point ran"))
    path = tmp_path / "bad.json"
    path.write_text(config)
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["fig1", "fig2", "fig3", "fig4", "fig5", "sweep", "split"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_checks_the_samples_flag_as_a_config_value(command, samples, capsys):
    assert main([command, "--samples", samples]) == 1
    assert capsys.readouterr().err == f"error: samples: expected an integer >= 1, got {samples}\n"


@pytest.mark.parametrize(
    "command, config",
    [
        ("sweep", {"scheme": "multicast", "K": 1, "nt": 1, "P_dB": [3080.0], "m": [0.1],
                   "samples": 1000}),
        ("split", {"K": 1, "P_dB": 3080.0, "m": 0.1, "samples": 50}),
        ("sweep", {"scheme": "multiplex", "K": 1, "nt": 1, "P_dB": [3080.0], "m": [0.1],
                   "samples": 10}),
        # an overflowed sub-channel used to leave a finite but wrong worst-user rate
        ("sweep", {"scheme": "multicast", "K": 2, "nt": 2, "L": 3, "P_dB": [3080.0],
                   "m": [0.1], "samples": 10}),
    ],
)
def test_a_rate_that_overflows_fails_by_its_power(command, config, tmp_path, capsys):
    # 10^308 is a finite power, but the rates it gives are not: no inf or nan is
    # printed, and numpy's overflow warning is not printed either (Tier-1 turns
    # any RuntimeWarning into an error, in the pool's threads too)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: P_dB: the power overflows a rate past the float range\n")


@pytest.mark.parametrize("command", ["fig1", "fig2"])
@pytest.mark.parametrize("m", [0.0, 1.0])
def test_selection_sweeps_check_m_before_any_point(command, m, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "_sweep", lambda *a: pytest.fail("a point ran"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"m": m}))
    assert main([command, "--config", str(path), "--samples", "10"]) == 1
    assert capsys.readouterr().err == f"error: m: expected a value in (0, 1), got {m}\n"


def _selection_config(**overrides):
    return SystemConfig(**{**dict(num_users=4, num_tx_antennas=1, total_power=10.0,
                                  normalized_cache=0.1), **overrides})


@pytest.mark.parametrize(
    "call, key",
    [
        (lambda: run_fig1(samples=10, k_grid=(0,)), "K"),
        (lambda: run_fig2(samples=10, k_grid=(0,)), "K"),
        (lambda: run_fig1(samples=10, m=1.0), "m"),
        (lambda: run_fig2(samples=10, m=1.0), "m"),
        (lambda: selection.simulated_selection_rate(
            _selection_config(normalized_cache=1.0), 1.0, RngStream(0), 10), "m"),
        (lambda: selection.empirical_optimal_threshold(
            _selection_config(normalized_cache=1.0), RngStream(0), 10, (1.0, 5.0)), "m"),
        (lambda: selection.simulated_selection_rate(
            _selection_config(num_subchannels=2), 1.0, RngStream(0), 10), "L"),
        (lambda: selection.empirical_optimal_threshold(
            _selection_config(num_subchannels=2), RngStream(0), 10, (1.0, 5.0)), "L"),
    ],
    ids=["fig1-K", "fig2-K", "fig1-m", "fig2-m", "simulated-m", "empirical-m", "simulated-L",
         "empirical-L"],
)
def test_selection_scenarios_fail_by_key_before_any_point(call, key, monkeypatch):
    # the runners build and check every point before the pool, and the two
    # estimators share selection.validate_selection_config
    monkeypatch.setattr(experiments, "_sweep", lambda *a: pytest.fail("a point ran"))
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value).startswith(f"{key}: ")


@pytest.mark.parametrize(
    "command, config",
    [
        ("fig3", {"P_dB": [10.0], "m": [1.0]}),
        ("fig4", {"P_dB": [10.0], "m": [1.0]}),
        ("fig5", {"P_dB": [10.0], "m": [1.0]}),
        ("sweep", {"scheme": "multicast", "K": 4, "nt": 4, "m": [1.0]}),
        ("sweep", {"scheme": "multiplex", "K": 4, "nt": 4, "m": [1.0]}),
        ("sweep", {"scheme": "multicast", "K": 4, "m": [1.0], "placement": "centralized"}),
    ],
)
def test_a_full_cache_prints_an_infinite_rate(command, config, tmp_path, capsys):
    # m = 1 needs no transmission: inf with no error bar, as the caching module
    # defines it; both formats print the same cells
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    for fmt in ("json", "csv"):
        assert main([command, "--config", str(path), "--samples", "2", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            rows, cells = json.loads(out)["rows"], ("inf", 0.0)
        else:
            rows, cells = list(csv.DictReader(out.splitlines()[1:])), ("inf", "0.0")
        assert rows and all((r["mean_nats"], r["std_err"]) == cells for r in rows)
        if command == "fig3":
            assert [r["scheme"] for r in rows] == ["mixed_opt", "multicast", "multiplex"]


def test_a_full_cache_draws_nothing(monkeypatch, tmp_path, capsys):
    # load 0 is decided before any estimator runs, so no generator is made, and
    # the rows are those the estimators' runs used to be discarded for
    monkeypatch.setattr(RngStream, "generator", lambda self: pytest.fail("a generator was made"))
    # so a power that would overflow a rate prints inf at m = 1, as split does
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scheme": "multicast", "K": 1, "nt": 1, "P_dB": [3080.0],
                                "m": [1.0], "samples": 10}))
    assert main(["sweep", "--config", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[2] == "multicast,1,1,1,3080.0,1.0,0.0,1.0,inf,0.0,10,42,"
    rows = run_fig3_4_5(m_grid=(1.0,), samples=4).rows
    fixed = dict(K=100, nt=100, L=1, m=1.0, mean_nats=math.inf, std_err=0.0, samples=4, seed=42)
    assert rows == tuple(
        SweepRow(scheme=scheme, P_dB=p_db, sigma2=s2, P0_frac=frac, flags=flags, **fixed)
        for scheme, frac, flags in (("mixed_opt", 1.0, "boundary;all_common;mc_preferred"),
                                    ("multicast", 1.0, ""), ("multiplex", 0.0, ""))
        for p_db, s2 in ((10.0, 0.1), (20.0, 0.01))
    )
    with pytest.raises(ValueError, match=r"^samples: expected an integer >= 1, got 0$"):
        run_sweep(samples=0, m_grid=(1.0,))


def test_fig2_rejects_a_power_too_low_for_its_search_before_any_draw(tmp_path, capsys, monkeypatch):
    # at -6 dB, 3 s* = 0.68..., so the search bracket (1, 3 s*) is empty
    searched = []
    monkeypatch.setattr(selection, "empirical_optimal_threshold", lambda *a, **k: searched.append(a))
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps({"K": [50], "P_dB": [30.0, -6.0]}))
    assert main(["fig2", "--config", str(path), "--samples", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: P_dB: -6.0 is too low") and "(1.0, 0.68" in err
    assert searched == []


def test_cli_forwards_only_the_config_keys(tmp_path, capsys):
    # absent keys take run_fig2's defaults; integral numbers count as integers
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps({"K": [50.0], "samples": 500.0}))
    assert main(["fig2", "--config", str(path), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    expected = run_fig2(seed=42, samples=500, k_grid=(50,))
    assert [(r["scheme"], r["K"], r["P_dB"], r["mean_nats"]) for r in rows] == [
        (r.scheme, r.K, r.P_dB, r.mean_nats) for r in expected.rows
    ]


def test_bench_configs_pass_the_config_schema(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    for w in workloads.WORKLOADS.values():
        keys = cli._COMMANDS[w.command][2]
        for config in (w.config(20170320), w.warmup_config(20170320)):
            for key, value in config.items():
                assert key in keys, (w.name, key)
                cli._value(key, value, keys[key][1])  # raises ValueError on a bad value
