import importlib
import pkgutil

import pytest

import cachecast

MODULES = ["cachecast"] + [f"cachecast.{m.name}" for m in pkgutil.iter_modules(cachecast.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
