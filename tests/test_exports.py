import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cachecast

MODULES = ["cachecast"] + [f"cachecast.{m.name}" for m in pkgutil.iter_modules(cachecast.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def test_importing_the_cli_loads_no_scipy():
    # every command's start-up pays for its imports, and scipy (about 0.27 s
    # to import) is a test dependency only: no cachecast module may load it.
    # fractions (with decimal, about 2 ms) is loaded only when `check` needs it
    src = str(Path(cachecast.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        f"import importlib, sys; [importlib.import_module(m) for m in {MODULES!r}]; "
        "print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'fractions', 'decimal')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["multicast", "multiplex", "mixed"])
def test_only_channel_knows_the_batch_partition_and_draw_order(module):
    # the estimators reach the stream through channel.draw_stacks or
    # channel_stacks, so that a change of batching or draw order is made in channel alone
    mod = importlib.import_module(f"cachecast.{module}")
    assert not {"sample_batches", "scalars_per_draw", "_complex_normal"} & set(vars(mod))


def test_only_selected_counts_draws_a_binomial():
    # every selected-user count comes from caching.SelectedCounts: outside the
    # class, `.binomial(` is only ever asked of one (`draws`), so that a second
    # counts path beside it cannot return unnoticed
    owner = inspect.getsource(cachecast.caching.SelectedCounts)
    for path in sorted(Path(cachecast.__file__).parent.glob("*.py")):
        source = path.read_text().replace(owner, "")
        assert not re.findall(r"^.*(?<!\bdraws)\.binomial\(.*$", source, re.M), path.name
