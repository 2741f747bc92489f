"""Every exported name resolves: the package `__all__` and that of each module.

Only `from juliaspec import *` reads `__all__`, so a name left there after
its function moved or went would otherwise show only there.
"""

import importlib
import pkgutil

import pytest

import juliaspec

MODULES = ["juliaspec"] + [f"juliaspec.{m.name}" for m in pkgutil.iter_modules(juliaspec.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
