import importlib
import pkgutil

import pytest

import creditfolio as cf

MODULES = [f"creditfolio.{m.name}" for m in pkgutil.iter_modules(cf.__path__)]


@pytest.mark.parametrize("module", ["creditfolio"] + MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing}, which it does not define"
    assert len(set(mod.__all__)) == len(mod.__all__)

