import importlib
import pkgutil

import pytest

import reebflow

MODULES = ["reebflow"] + [f"reebflow.{m.name}" for m in pkgutil.iter_modules(reebflow.__path__)]


def exports():
    for module in MODULES:
        for name in getattr(importlib.import_module(module), "__all__", ()):
            yield module, name


@pytest.mark.parametrize("module, name", list(exports()))
def test_every_export_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
