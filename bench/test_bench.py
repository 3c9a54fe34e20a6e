"""Tests of the benchmark's own machinery: tracing, oracles and scoring.

Run with the package on the path:  PYTHONPATH=src python -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import pytest

import oracles
import run
import tracer as tracer_mod
from workloads import Workload

from cachecast import channel, cli, multicast, multiplex
from cachecast.channel import RngStream, SystemConfig


def test_self_time_subtracts_merged_child_cover():
    # root [0,10] > a [1,6] > (b [2,3], c [2.5,4]); root > d [7,9]
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 6.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 2.5, 4.0, 1],
        ["d", 7.0, 9.0, 0],
        ["d", 9.0, 9.5, 0],
    ]
    selfs = tracer_mod.self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - 5.0 - 2.0 - 0.5)
    assert selfs["a"] == pytest.approx(5.0 - 2.0)  # b and c overlap on [2.5, 3]
    assert selfs["b"] == pytest.approx(1.0)
    assert selfs["c"] == pytest.approx(1.5)
    assert selfs["d"] == pytest.approx(2.5)  # summed over both d spans


def test_self_times_add_up_to_root_wall_on_nested_spans():
    spans = [
        ["root", 0.0, 8.0, -1],
        ["x", 0.5, 7.0, 0],
        ["y", 1.0, 2.0, 1],
        ["z", 2.0, 6.0, 1],
        ["y", 3.0, 4.0, 3],
    ]
    assert sum(tracer_mod.self_times(spans).values()) == pytest.approx(8.0)


def test_rebinding_reaches_names_imported_into_other_modules():
    original = channel.draw_channel_batch
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert multicast.draw_channel_batch is not original
        assert multiplex.draw_channel_batch is multicast.draw_channel_batch
        cfg = SystemConfig(num_users=4, num_tx_antennas=2, total_power=10.0)
        tracer.run_root(multicast.avg_rate_parallel, cfg, RngStream(3), 50)
    finally:
        tracer.uninstall()
    assert multicast.draw_channel_batch is original
    assert channel.draw_channel_batch is original
    names = [s[0] for s in tracer.spans]
    draw = names.index("channel.draw_channel_batch")
    assert names[tracer.spans[draw][3]] == "multicast.avg_rate_parallel"
    assert tracer.counts["channel.draw_channel_batch.draws"] == 50
    # (50, 1, 4, 2) complex estimate returned as both true and est, plus the error
    assert tracer.counts["channel.draw_channel_batch.bytes"] == 2 * 50 * 4 * 2 * 16
    metrics = tracer_mod.layer_metrics(tracer)
    assert metrics["results.RateEstimate.from_values.calls"] == 1
    assert sum(v for k, v in metrics.items() if k.endswith(".self_s")) == pytest.approx(
        metrics["root.wall_s"]
    )


def test_maximize_counts_objective_evaluations():
    from cachecast import mathx

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        mathx.maximize_1d(lambda x: -(x - 1.0) ** 2, 0.0, 3.0, grid_points=7)
    finally:
        tracer.uninstall()
    assert tracer.counts["mathx.maximize_1d.calls"] == 1
    assert tracer.counts["mathx.maximize_1d.evals"] >= 7


def test_absent_layer_is_reported_not_raised():
    tracer = tracer_mod.Tracer()
    tracer.install((("cachecast.mathx", "no_such_function", "mathx.no_such_function"),))
    tracer.uninstall()
    assert tracer.absent == ["mathx.no_such_function"]


@pytest.mark.parametrize("nt,K", [(1, 1), (1, 7), (2, 5), (3, 4), (4, 10)])
def test_worst_user_quadrature_matches_exact_series(nt, K):
    value = oracles.worst_user_expectation(lambda y: y, nt, K) / nt
    assert value == pytest.approx(channel.exact_min_mean(nt, K), rel=1e-8)


def test_closed_threshold_is_stationary():
    # d/ds exp(-s/P) ln(1+s) = 0  <=>  (1 + s) ln(1 + s) = P
    for P in (10.0, 1e3, 1e5):
        s = oracles.rayleigh_threshold(P)
        assert (1.0 + s) * math.log1p(s) == pytest.approx(P, rel=1e-12)


def _sweep_rows(tmp_path, command: str, grid: dict, samples: int, seed: int) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**grid, "seed": seed, "samples": samples}))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main([command, "--config", str(path)]) == 0
    return buf.getvalue()


def _corrupt(text: str, scheme: str, factor: float) -> str:
    lines = text.splitlines(keepends=True)
    header = lines[1].rstrip("\n").split(",")
    col = header.index("mean_nats")
    for i, line in enumerate(lines[2:], start=2):
        cells = line.rstrip("\n").split(",")
        if cells[0] == scheme:
            cells[col] = repr(float(cells[col]) * factor)
            lines[i] = ",".join(cells) + "\n"
            break
    return "".join(lines)


def test_corrupted_row_counts_as_failed(tmp_path):
    grid = {"K": [20], "P_dB": [30.0], "m": 0.05}
    workload = Workload("t", "fig1", grid, 2000, grid, 10)
    text = _sweep_rows(tmp_path, "fig1", grid, 2000, seed=5)
    clean = {"wall_s": 1.0, "rc": 0, "csv": text}
    result = run.score([clean, clean], workload, 5, oracles.check_rows)
    assert (result["attempted"], result["failed"]) == (8, 0)

    bad = {"wall_s": 1.0, "rc": 0, "csv": _corrupt(text, "mc_nt1", 1.5)}
    result = run.score([clean, bad], workload, 5, oracles.check_rows)
    assert (result["attempted"], result["failed"]) == (8, 1)
    assert "quadrature" in result["reasons"][0]

    crashed = {"wall_s": 1.0, "rc": None, "csv": ""}
    result = run.score([clean, crashed], workload, 5, oracles.check_rows)
    assert (result["attempted"], result["failed"]) == (8, 4)


def test_threshold_rows_pass_their_oracles(tmp_path):
    grid = {"K": [100], "P_dB": [30.0, 40.0], "m": 0.05}
    rows = run.parse_csv(_sweep_rows(tmp_path, "fig2", grid, 2000, seed=9))
    assert len(rows) == 4
    assert oracles.check_rows(rows, 2000, 9) == [None] * 4
    rows[0]["mean_nats"] = repr(float(rows[0]["mean_nats"]) * 1.01)
    assert oracles.check_rows(rows, 2000, 9)[0] is not None


def test_mixed_opt_zero_std_err_is_not_an_error_bar(tmp_path):
    grid = {"P_dB": [10.0], "m": [0.1]}
    text = _sweep_rows(tmp_path, "fig3", grid, 8, seed=2)
    rows = run.parse_csv(text)
    assert oracles.check_rows(rows, 8, 2) == [None, None, None]
    by = {r["scheme"]: r for r in rows}
    assert float(by["mixed_opt"]["std_err"]) == 0.0
    top = max(float(by["multicast"]["mean_nats"]), float(by["multiplex"]["mean_nats"]))
    se = max(float(by["multicast"]["std_err"]), float(by["multiplex"]["std_err"]))
    by["mixed_opt"]["mean_nats"] = repr(top - 3.0 * se)
    assert oracles.check_rows(rows, 8, 2) == [None, None, None]
    by["mixed_opt"]["mean_nats"] = repr(top - 5.0 * se)
    reasons = oracles.check_rows(rows, 8, 2)
    assert reasons[rows.index(by["mixed_opt"])] is not None
    assert sum(r is not None for r in reasons) == 1
