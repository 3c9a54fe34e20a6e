#!/usr/bin/env python3
"""cachecast benchmark: times one figure-sweep workload in a fresh process.

    python3 bench/run.py --workload fig1-multicast --seed 42 --seconds 36 --trace 0

The process generates the workload's config from --seed, imports cachecast
from this checkout's src/, warms up once on a small point of the same sweep,
and then calls `cachecast.cli.main([...])` in-process in a closed loop (one
client, next sweep after the previous returns) for --seconds.  Every output
row is checked against the scipy-only oracles in oracles.py.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with tracing off.
--trace 1 spends half the window untraced and half traced (see tracer.py)
and reports the per-layer metrics.  A reproducibility stamp (one JSON line)
is printed and written to bench/results/; the last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from itertools import zip_longest
from pathlib import Path

from workloads import DEFAULT_SEED, DEFERRED, HELDOUT_SEED, LAYER_TO_END_TO_END, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# fresh interpreters timed for setup_s, in addition to this process's own set-up
SETUP_PROBES = 4
# fewest sweeps a window holds, so that its median has a middle
MIN_REPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one fresh-interpreter set-up and exit
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def set_blas_threads() -> int:
    """Set BLAS/OpenMP threads, before numpy loads; returns the value set.

    One thread, which is at most nproc on any machine.  On a 2-CPU machine
    the K=nt=100 ZF solves of fig3 ran about 25% slower with two OpenBLAS
    threads than with one, and two threads tie the timing to the load on
    both CPUs.
    """
    threads = 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_program():
    """Import cachecast from this checkout's src/ and nowhere else."""
    package = SRC / "cachecast"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: cachecast source not found at {package}")
    sys.path.insert(0, str(SRC))
    from cachecast import cli

    if Path(cli.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported cachecast from {cli.__file__}, not {package}")
    return cli


def config_paths(name: str, seed: int) -> tuple:
    return (
        RESULTS / f"{name}-seed{seed}-config.json",
        RESULTS / f"{name}-seed{seed}-warmup.json",
    )


def sweep(call, command: str, config: Path) -> dict:
    """One in-process CLI run; output captured from stdout, never written to disk."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = call([command, "--config", str(config)])
    except Exception:  # a crashing sweep is a failed attempt, not a benchmark crash
        traceback.print_exc()
        rc = None
    return {"wall_s": time.perf_counter() - start, "rc": rc, "csv": buf.getvalue()}


def set_up(workload, seed: int) -> tuple:
    """Import plus the first warm-up call; returns (cli module, seconds)."""
    start = time.perf_counter()
    cli = import_program()
    warm = sweep(cli.main, workload.command, config_paths(workload.name, seed)[1])
    if warm["rc"] != 0:
        raise SystemExit(f"error: warm-up sweep failed with exit code {warm['rc']}")
    return cli, time.perf_counter() - start


def probe_setup(workload, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload.name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def closed_loop(run_one, seconds: float) -> list:
    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        reps.append(run_one())
    return reps


def parse_csv(text: str) -> list:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# cachecast-sweep"):
        return []
    return list(csv.DictReader(lines[1:]))


def score(reps: list, workload, seed: int, check_rows) -> dict:
    """Rows attempted and failed over every sweep, and the first failure reasons.

    A row fails when an oracle rejects it, when it is missing (the sweep
    raised, exited non-zero or printed too few rows), or when it differs from
    the same row of the first sweep, since one config must print one CSV.
    """
    expected = workload.expected_rows()
    reference = parse_csv(reps[0]["csv"]) if reps[0]["rc"] == 0 else []
    checked: dict = {}  # identical output is checked once
    attempted = failed = 0
    reasons: list = []
    for rep in reps:
        rows = parse_csv(rep["csv"]) if rep["rc"] == 0 else []
        if rep["csv"] not in checked:
            checked[rep["csv"]] = check_rows(rows, workload.samples, seed)
        bad = {i: r for i, r in enumerate(checked[rep["csv"]]) if r is not None}
        for i, (row, ref) in enumerate(zip_longest(rows, reference)):
            if row is not None and row != ref:
                bad.setdefault(i, "row differs from the first sweep's")
        for i in range(len(rows), expected):
            bad[i] = f"missing row (sweep exit code {rep['rc']})"
        attempted += max(expected, len(rows))
        failed += len(bad)
        reasons += [f"row {i}: {r}" for i, r in sorted(bad.items())][: 5 - len(reasons)]
    return {"attempted": attempted, "failed": failed, "reasons": reasons, "rows": reference}


def traced_loop(cli, tracer_mod, workload, config: Path, seconds: float) -> tuple:
    """Traced sweeps; per-sweep layer metrics, and the last sweep's spans."""
    tracer = tracer_mod.Tracer()
    tracer.install()
    per_rep = []

    def run_one():
        tracer.reset()
        rep = tracer.run_root(sweep, cli.main, workload.command, config)
        per_rep.append(tracer_mod.layer_metrics(tracer))
        return rep

    try:
        reps = closed_loop(run_one, seconds)
    finally:
        tracer.uninstall()
    return reps, per_rep, tracer.spans


def layer_report(per_rep: list, untraced: list, n_rows: int) -> tuple:
    """Per-layer metric values: means of times over sweeps, counts of one sweep."""
    counts = {k: v for k, v in per_rep[0].items() if not k.endswith("_s")}
    repeat = all({k: r[k] for k in counts} == counts for r in per_rep)
    values = dict(counts)
    for key in per_rep[0]:
        if key.endswith("_s"):
            values[key] = statistics.fmean(r[key] for r in per_rep)
    if "channel.draw_channel_batch.draws" in counts:
        draws = counts["channel.draw_channel_batch.draws"]
        values["channel.draws_per_row"] = draws / n_rows if n_rows else 0.0
    if "mathx.maximize_1d.calls" in counts:
        calls = counts["mathx.maximize_1d.calls"]
        values["mathx.maximize_1d.evals_per_call"] = (
            counts["mathx.maximize_1d.evals"] / calls if calls else 0.0
        )
    values["trace.wall_s"] = values.pop("root.wall_s")
    values["trace.root.self_s"] = values.pop("root.self_s")
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.fmean(
        r["wall_s"] for r in untraced
    )
    return values, repeat


def git_commit(root: Path):
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cachecast").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor()
    models = [line.split(":", 1)[1].strip() for line in text.splitlines()
              if line.startswith("model name")]
    return models[0] if models else platform.processor()


def machine_facts(blas_threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "l3_cache": l3.read_text().strip() if l3.is_file() else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_set": blas_threads,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def emit(specs: list, values: dict) -> tuple:
    """Metrics named in BENCHMARK.json; a name no layer reported is absent, read as 0."""
    metrics, absent = {}, []
    for spec in specs:
        if spec["name"] not in values:
            absent.append(spec["name"])
        metrics[spec["name"]] = {"value": values.get(spec["name"], 0), "unit": spec["unit"]}
    return metrics, absent


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    blas_threads = set_blas_threads()
    config_path, warmup_path = config_paths(workload.name, args.seed)

    if args.setup_probe:
        _, seconds = set_up(workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    RESULTS.mkdir(exist_ok=True)
    config = workload.config(args.seed)
    config_path.write_text(json.dumps(config, indent=1) + "\n")
    warmup_path.write_text(json.dumps(workload.warmup_config(args.seed)) + "\n")

    cli, own_setup = set_up(workload, args.seed)
    setup_samples = [own_setup] + [probe_setup(workload, args.seed) for _ in range(SETUP_PROBES)]

    # numpy loads only after set_blas_threads, so these two are imported here
    import oracles
    import tracer as tracer_mod

    window = args.seconds / 2 if args.trace else args.seconds
    untraced = closed_loop(lambda: sweep(cli.main, workload.command, config_path), window)
    reps = list(untraced)
    if args.trace:
        traced, per_rep, spans = traced_loop(
            cli, tracer_mod, workload, config_path, window
        )
        reps += traced
    result = score(reps, workload, args.seed, oracles.check_rows)
    samples = sum(int(row["samples"]) for row in result["rows"])

    wall = statistics.median(r["wall_s"] for r in untraced)
    stamp = {
        "workload": workload.name,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(),
        "config": config,
        "samples": samples,
        "csv_sha256": sorted({hashlib.sha256(r["csv"].encode()).hexdigest() for r in reps}),
        "sweeps": len(reps),
        "wall_s": [r["wall_s"] for r in untraced],
        "setup_s": setup_samples,
        "failed_frac": result["failed"] / result["attempted"],
        "failures": result["reasons"],
        "machine": machine_facts(blas_threads),
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "layer_to_end_to_end": LAYER_TO_END_TO_END,
        "deferred": list(DEFERRED),
    }
    if args.trace:
        values, repeat = layer_report(per_rep, untraced, len(result["rows"]))
        metrics, absent = emit(spec["per_layer"], values)
        stamp["counts_repeat"] = repeat
        stamp["traced_sweeps"] = len(per_rep)
        stamp["self_time_residual_s"] = values["trace.wall_s"] - sum(
            v for k, v in values.items() if k.endswith(".self_s")
        )
        start = spans[0][1] if spans else 0.0
        (RESULTS / f"{workload.name}-seed{args.seed}-spans.json").write_text(
            json.dumps([[n, s - start, e - start, p] for n, s, e, p in spans]) + "\n"
        )
        if not repeat:
            print("warning: count metrics differ between traced sweeps", file=sys.stderr)
    else:
        values = {
            "wall_s": wall,
            "samples_per_s": samples / wall,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics, absent = emit(spec["end_to_end"], values)
    stamp["absent"] = absent
    if len(stamp["csv_sha256"]) != 1:
        print("warning: sweeps of one config printed different CSV", file=sys.stderr)
    for reason in result["reasons"]:
        print(f"failed: {reason}", file=sys.stderr)
    (RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(stamp, indent=1) + "\n"
    )
    print("stamp " + json.dumps(stamp, separators=(",", ":")))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
