import importlib
import pkgutil

import pytest

import gmtkit

MODULES = ["gmtkit"] + [
    f"gmtkit.{m.name}" for m in pkgutil.iter_modules(gmtkit.__path__)
    if hasattr(importlib.import_module(f"gmtkit.{m.name}"), "__all__")
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
