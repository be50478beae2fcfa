import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import reebflow

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["reebflow"] + [f"reebflow.{m.name}" for m in pkgutil.iter_modules(reebflow.__path__)]


def exports():
    for module in MODULES:
        for name in getattr(importlib.import_module(module), "__all__", ()):
            yield module, name


def tracer_targets():
    """(module, "name" or "Class.attr") of every name the benchmark tracer patches."""
    path = ROOT / "bench" / "tracer.py"
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


def used_names() -> set[str]:
    """The names used by the code under src/, tools/ and bench/, and patched by the benchmark tracer.

    A use is an AST Name, Attribute or import alias outside the def or class
    of that name.  The imports of the package's ``__init__`` are its
    re-exports, not uses.
    """
    used = {part for _, attr in tracer_targets() for part in attr.split(".")}
    for path in (p for d in ("src", "tools", "bench") for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text())
        own = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own.setdefault(node.name, []).append((node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias) and path != ROOT / "src" / "reebflow" / "__init__.py":
                name = node.name.rpartition(".")[2]
            else:
                continue
            if not any(a <= node.lineno <= b for a, b in own.get(name, ())):
                used.add(name)
    return used


def test_every_export_is_used():
    # an export that only the tests call belongs in the tests
    used = used_names()
    assert [f"{module}.{name}" for module, name in exports() if name not in used] == []


# every value a caller can set: the fields of a config or result, the
# parameters with a default of a function, for each export that has one;
# a new option is an edit to this table
OPTIONS = {
    "GridSpec": ("samples_per_octave", "octave_max", "tail_octaves"),
    "LinearizeConfig": ("lam", "grid", "tol"),
    "classify": (),
    "flow_classify": ("tv", "g"),
    "self_similarity_scan": (),
    "koenigs_limit": (),
    "check_witness": (),
    "EquivalenceWitness": ("h", "k", "lam"),
    "basin_of_zero": ("hx",),
    "sigma_estimate": ("variant",),
    "OscillationProfile": ("variant", "grid", "x", "f_values", "values", "octave_sup"),
    "EFunction": ("kind", "fn", "claimed_class", "description", "domain"),
    "builtin": ("params",),
    "from_expression": ("claimed_class", "description"),
    "Homeo": ("fn", "inverse_fn", "name"),
    "homeo_from_expression": ("inverse_expr",),
    "Flow": ("lam", "c0", "c1", "shift", "source", "source_spec", "held"),
    "Transversal": ("gamma1_nodes", "gamma2_nodes"),
    "build_flow": ("c0", "c1", "g", "source_spec"),
    "flow_from_json": ("g",),
    "extract_transition": ("g", "tv"),
    "transition_time": ("tv", "x"),
}


def has_default(obj) -> bool:
    """Whether a caller may leave out one of the fields or parameters of ``obj``."""
    if dataclasses.is_dataclass(obj):
        missing = dataclasses.MISSING
        return any(f.default is not missing or f.default_factory is not missing for f in dataclasses.fields(obj))
    if isinstance(obj, type) and issubclass(obj, Exception):
        return False
    return any(p.default is not p.empty for p in inspect.signature(obj).parameters.values())


def test_every_export_with_a_default_has_a_row():
    # a constant such as DEFAULT_TRANSVERSAL is not called, so it sets nothing
    names = [n for n in reebflow.__all__ if callable(getattr(reebflow, n)) and has_default(getattr(reebflow, n))]
    assert names and [n for n in names if n not in OPTIONS] == []


@pytest.mark.parametrize("name", OPTIONS)
def test_option_surface(name):
    # a config's fields, a function's parameters with a default
    obj = getattr(reebflow, name)
    if dataclasses.is_dataclass(obj):
        got = tuple(f.name for f in dataclasses.fields(obj))
    else:
        params = inspect.signature(obj).parameters.values()
        got = tuple(p.name for p in params if p.default is not p.empty)
    assert got == OPTIONS[name]
