import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import reebflow

MODULES = ["reebflow"] + [f"reebflow.{m.name}" for m in pkgutil.iter_modules(reebflow.__path__)]


def exports():
    for module in MODULES:
        for name in getattr(importlib.import_module(module), "__all__", ()):
            yield module, name


def tracer_targets():
    """(module, "name" or "Class.attr") of every name the benchmark tracer patches."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(f"reebflow.{module}", attr) for module, attr, _, _ in tracer.TARGETS]


@pytest.mark.parametrize("module, name", list(dict.fromkeys([*exports(), *tracer_targets()])))
def test_every_export_resolves(module, name):
    # a patched method must sit in its class's own namespace, where the tracer reads it
    owner, _, attr = name.rpartition(".")
    holder = importlib.import_module(module)
    assert attr in vars(getattr(holder, owner) if owner else holder)
