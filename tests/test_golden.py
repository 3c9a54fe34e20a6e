"""Frozen outputs: the sha256 of what `cachecast` prints for fixed configs.

Every seeded output is part of the contract, so a change that moves a
random stream changes a digest here.  A change that alters a digest on
purpose lists each one in CHANGES.md with its reason, and takes the new
values from `python tests/test_golden.py default`, which prints every case
as JSON.  The `bench-*` digests equal the `csv_sha256` that `bench/run.py`
prints for the same workload and seed.  The table holds for numpy 2.4.6.

The cases run in one child interpreter that sets the benchmark's BLAS
threads before numpy loads and then calls `cli.main` in-process for each
case, as `bench/run.py` does.  `cli.main` runs every command with OpenBLAS
on one thread, because the ZF solves of fig3/4/5 round differently on
more threads; a second child starts OpenBLAS on two threads and must print
the same fig3/4/5 digests.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (42, 20170320)

DIGESTS = {
    "fig1-42": "5fb25f5ed027afad6d4ad23c0131f7b1a166b5b48d7d32395e4482f093a864c3",
    "fig2-42": "fef2a88eb61ee42c51242e13f78c16ac09e22e7031e8a71ff7880c0dc24a049f",
    "fig2-edges-42": "8d2cd55bddcc09a0fded53aaa600e57747164b26c83adac80660e5150ea9882b",
    "fig3-42": "badf1ef2ba2a942d8cc90cbe17d3b8738ca90ec4d5cde8e5de7bf5484fd8b9e2",
    "fig4-42": "577910d57bc00f2650df9acb2b8b08afee1421b6ee0d69899db13d1a8305b4ce",
    "fig5-42": "be1bb156ab4efc198e9121d5ed729a667146887b2a240c485db2950358347150",
    "sweep-multicast-0.0-42": "dbf7b14059f2706d99887bff6737c66d428066c00945c5223d0885907ccf48f5",
    "sweep-multicast-0.1-42": "969183b2f3eb8727ed8298e81753793b9ac064757bcec0c15376380b8ab19b9e",
    "sweep-multicast-1.0-42": "8ce6fbad1c72381d73141837d48e5c1c1273f5e5e073ccb97dcc0c00d505ffc9",
    "sweep-multiplex-0.0-42": "6010ddd679465113d5d66d7c0cf7cedd2595c847841136e1b6bc503aa0e14045",
    "sweep-multiplex-0.1-42": "4dfff5a0e13cb8fe8bb76ac90d87ec34189c78f659873845682d869e62bf2159",
    "sweep-multiplex-1.0-42": "2e6a49e26b15335444e68a8698198da49c39520af042e87d49ad1280f1f6bc52",
    "split-42": "3556c77ac94e6eac62531053302ff5ffd7db6d33e662c4d6e6771cf1bb2717bb",
    "check-42": "689b8b8512c7592f7cb18b53bd3d635fdf8e4b97cb0e3a14cef6e625df7bb021",
    "bench-fig1-multicast-42": "5726cffe2e01f26d39bd8048a1f4e58dfdf11ca719d8329718fed5fc3f81a06f",
    "bench-fig3-mixed-42": "1d132c2a8795529170f15461f566893bc098ea25e4665b5fb6f49fb9c30d1bb3",
    "bench-fig2-threshold-42": "d48d754ccc553bfb121603cc8748be9ef78463d19d590feea666fcbcc93d6a9f",
    "fig1-20170320": "573d8101781c27b972595e77368fcc5d66b2cd23ad614f0be59e82e2b8f09c6d",
    "fig2-20170320": "f096fa76ae117e9853bec7d7f7fe027d913dd6b3feeb279a1dfe1b09f4f5e872",
    "fig2-edges-20170320": "f2180e242e1280e025f3682c68e2af76afd14e45d518db452eaff583dac32c73",
    "fig3-20170320": "ee7bafdbf3bf2db4d9d79b72659c2e57f12cd7240806a56e21e4cf2ad1d923d1",
    "fig4-20170320": "ed9852769cd70191b32fd8830e8a5a0fac543bf2cb22fba6f547c858fab57197",
    "fig5-20170320": "5d12c67afedac40e72b5de2d9ab3424efd54f6ca03c470441fc649ff75e9c235",
    "sweep-multicast-0.0-20170320": "ffdb2998211144b49b1a0f51b808bcbce971b6389ee598c480cecd98426a2ff0",
    "sweep-multicast-0.1-20170320": "4b0fc8914acf124099967e1e0164fd2c866454e78c61edb2d8266cd9f2d3c1a1",
    "sweep-multicast-1.0-20170320": "69458946c01cdf8a08e70117a3b31898401ef8964d850689f26f5a1aac5e1b52",
    "sweep-multiplex-0.0-20170320": "3fbe9b7c79be92e6dd305de678349712634cce8515dda0602810d0012a7ba3f5",
    "sweep-multiplex-0.1-20170320": "90af8b5867a2138c6c96858c5892bae933e1f645b6bff477327f19fe14611860",
    "sweep-multiplex-1.0-20170320": "63fa6644f6c2b975b36fc1c32761b8becbe60497e4fdaaf208a8975021531f5c",
    "split-20170320": "df62dc6c0e13adc03b3fe1113b2cc636404d79910630d402f1ff368b9d123749",
    "check-20170320": "62fbbcf3da68462a7811ec7b20848319cfa8d4fdad50609a8666b629d3d72728",
    "bench-fig1-multicast-20170320": "e84ba90e59e3e72ef539c067c1ebebc4b7f9f81c53b64686b9a38506fd2e6e9d",
    "bench-fig3-mixed-20170320": "9b038b79e1decd21d6ff2e784e8a4e049909c182a343b29763a1e1a56a32834a",
    "bench-fig2-threshold-20170320": "df30ccb4086c5a0db9b7baba3a8abd1766d6fd50cb0df847fb973eefd0a9b902",
    "threshold-30.0": "df11fa4323a85230bcedfa044a6c11d183247771a25cd12042182032c36315bb",
    "threshold-45.5": "3b6b8e8940846513d4ff7a828922ea573d68255c24075addb63e50e1893c3a9a",
}


def _cases(workloads) -> dict:
    """Case name -> (argv, config or None); the config goes in as --config."""
    cases = {}
    for seed in SEEDS:
        at = ["--seed", str(seed)]
        cases[f"fig1-{seed}"] = (["fig1", *at, "--samples", "200"], {"K": [20, 60], "P_dB": [30.0]})
        cases[f"fig2-{seed}"] = (
            ["fig2", *at, "--samples", "300"], {"K": [50, 200], "P_dB": [30.0, 40.0], "m": 0.1}
        )
        # the selection edges: one user, and a million users (wide binomial counts)
        cases[f"fig2-edges-{seed}"] = (
            ["fig2", *at, "--samples", "300"], {"K": [1, 1000000], "P_dB": [30.0, 50.0], "m": 0.1}
        )
        cases[f"fig3-{seed}"] = (["fig3", *at, "--samples", "4"], {"P_dB": [10.0], "m": [0.1, 0.3]})
        cases[f"fig4-{seed}"] = (["fig4", *at, "--samples", "4"], {"P_dB": [10.0, 20.0], "m": [0.05]})
        cases[f"fig5-{seed}"] = (
            ["fig5", *at, "--samples", "4", "--format", "json"], {"P_dB": [20.0], "m": [0.2, 0.4]}
        )
        for scheme, L, n in (("multicast", 3, 300), ("multiplex", 1, 60)):
            for sigma2 in (0.0, 0.1, 1.0):
                cases[f"sweep-{scheme}-{sigma2}-{seed}"] = (
                    ["sweep", *at, "--samples", str(n)],
                    {
                        "scheme": scheme, "K": 6, "nt": 8, "L": L, "P_dB": [10.0, 20.0],
                        "m": [0.1, 0.3], "sigma2": sigma2, "placement": "centralized",
                    },
                )
        cases[f"split-{seed}"] = (["split", *at, "--samples", "20"], {"K": 20, "P_dB": 20.0, "m": 0.1})
        cases[f"check-{seed}"] = (["check", *at], None)
        for w in workloads.WORKLOADS.values():
            cases[f"bench-{w.name}-{seed}"] = ([w.command], w.config(seed))
    for p_db in (30.0, 45.5):
        cases[f"threshold-{p_db}"] = (["threshold"], {"P_dB": p_db})
    return cases


# Per child mode, the prefixes of the case names it runs.
_MODES = {"default": ("",), "one-cpu": ("fig",), "two-blas-threads": ("fig3", "fig4", "fig5")}


def _print_digests(mode: str) -> None:
    """The child: the stdout digest of each case of `mode` as JSON.

    "one-cpu" runs fig1-5 on one grid thread; "two-blas-threads" runs
    fig3-5 with OpenBLAS started on two threads, as an unset
    OPENBLAS_NUM_THREADS gives on a 2-CPU machine.  The child also records
    the OpenBLAS thread count it started with (None for another BLAS).
    """
    import run  # bench/run.py
    import workloads

    if mode == "two-blas-threads":
        os.environ["OPENBLAS_NUM_THREADS"] = "2"  # before numpy loads
    else:
        run.set_blas_threads()  # before numpy loads
    import numpy as np

    from cachecast import cli, experiments

    blas = cli._openblas()
    if blas is not None and mode == "two-blas-threads":
        blas[1](2)  # OpenBLAS caps the variable at the CPU count
    blas_threads = None if blas is None else blas[0]()
    if mode == "one-cpu":
        experiments._usable_cpus = lambda: 1
    cases = {}
    for name, (argv, config) in _cases(workloads).items():
        if not name.startswith(_MODES[mode]):
            continue
        buf = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            args = list(argv)
            if config is not None:
                path = Path(tmp) / "config.json"
                path.write_text(json.dumps(config))
                args += ["--config", str(path)]
            with contextlib.redirect_stdout(buf):
                code = cli.main(args)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        cases[name] = {"argv": argv, "config": config, "exit": code, "sha256": digest}
    print(json.dumps({"numpy": np.__version__, "blas_threads": blas_threads, "cases": cases}, indent=1))


@functools.cache
def _printed(mode: str) -> dict:
    paths = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    proc = subprocess.run(
        [sys.executable, __file__, mode],
        env={**os.environ, "PYTHONPATH": paths},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _assert_frozen(name: str, mode: str) -> None:
    printed = _printed(mode)
    case = printed["cases"][name]
    assert case["exit"] == 0, case
    assert case["sha256"] == DIGESTS[name], (
        f"{name}: `cachecast {' '.join(case['argv'])}` with config {case['config']}"
        f" printed sha256 {case['sha256']}, frozen {DIGESTS[name]}"
        f" (numpy {printed['numpy']}, OpenBLAS threads at start {printed['blas_threads']};"
        " the table holds for numpy 2.4.6)"
    )


@pytest.mark.parametrize("name", DIGESTS)
def test_output_is_frozen(name):
    _assert_frozen(name, "default")


@pytest.mark.parametrize("name", [n for n in DIGESTS if n.startswith("fig")])
def test_figure_output_is_frozen_on_one_cpu(name):
    _assert_frozen(name, "one-cpu")


@pytest.mark.parametrize("name", [n for n in DIGESTS if n.startswith(_MODES["two-blas-threads"])])
def test_zf_figure_output_is_frozen_at_two_blas_threads(name):
    threads = _printed("two-blas-threads")["blas_threads"]
    if threads is None:
        pytest.skip("numpy's BLAS is not OpenBLAS, whose thread count commands leave alone")
    assert threads == 2
    _assert_frozen(name, "two-blas-threads")


if __name__ == "__main__":
    _print_digests(sys.argv[1])
