"""Span and counter recorder for the traced benchmark run.

Nothing inside ``src/`` is instrumented: :func:`install` replaces the public
functions of each ``reebflow`` module with timing wrappers, at the definition
site and at every call site that imported them by name (``cli`` calling
``classify``, ``oscillation`` calling ``sample``, ...), and patches the hot
methods on their classes.

Layer-boundary calls become spans (name, start, end, parent, job id), kept
in memory until the run ends.  Hot leaf calls (``EFunction.__call__``,
``Homeo.__call__``, ``Flow.transit``, ``flow_step``, ``transition_time``)
are only aggregated as count plus time into their parent, so a bisection
with tens of thousands of evaluations does not create a span each.

Self time of a frame is its duration minus the time covered by the frames
it called (spans and leaves alike).
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute or "Class.method", trace name, leaf?)
TARGETS = (
    ("efunc", "GridSpec.nodes", "efunc.nodes", False),
    ("efunc", "sample", "efunc.sample", False),
    ("efunc", "diagnose_class", "efunc.diagnose", False),
    ("efunc", "from_csv", "efunc.csv_parse", False),
    ("efunc", "EFunction.__call__", "efunc.eval", True),
    ("oscillation", "star_profile", "oscillation.star", False),
    ("oscillation", "sharp_profile", "oscillation.sharp", False),
    ("oscillation", "sigma_estimate", "oscillation.sigma", False),
    ("oscillation", "sigma_from_profile", "oscillation.sigma", False),
    ("oscillation", "check_witness", "oscillation.witness", False),
    ("classify", "classify", "classify.classify", False),
    ("classify", "self_similarity_scan", "classify.scan", False),
    ("classify", "flow_classify", "classify.flow_classify", False),
    ("flow", "build_flow", "flow.build", False),
    ("flow", "orbit_rows", "flow.orbit", False),
    ("flow", "transition_time", "flow.transition", True),
    ("flow", "flow_step", "flow.step", True),
    ("flow", "Flow.transit", "flow.transit", True),
    ("homeo", "basin_of_zero", "homeo.basin", False),
    ("homeo", "Homeo.__call__", "homeo.eval", True),
    ("homeo", "Homeo.inverse", "homeo.inverse", True),
    ("linearize", "koenigs_limit", "linearize.koenigs", False),
    ("cli", "main", "cli.main", False),
    ("svgplot", "line_plot", "svgplot.line_plot", False),
)


class Recorder:
    """Call stack, per-name self time and counters, and the span list."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_seconds, span_id or None]
        self.spans: list[tuple] = []  # (id, name, start, end, parent_id, job)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.grids: set = set()  # distinct (job, GridSpec) pairs seen by nodes()
        self.job: int | None = None
        self.enabled = False  # on only while a timed job runs, not during its check
        self._next_id = 0

    def push(self, name: str, leaf: bool) -> list:
        span_id = None
        if not leaf:
            span_id, self._next_id = self._next_id, self._next_id + 1
        frame = [name, time.perf_counter(), 0.0, span_id]
        self.stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = time.perf_counter()
        top = self.stack.pop()
        if top is not frame:  # pragma: no cover - wrappers always nest
            raise RuntimeError("trace stack corrupted")
        name, start, child, span_id = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        if span_id is not None:
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            self.spans.append((span_id, name, start, end, parent, self.job))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code."""
        frame = self.push(name, False)
        try:
            yield
        finally:
            self.pop(frame)


def _counter(rec: Recorder, name: str):
    """Extra counts taken at a boundary, from the call's arguments and result."""
    if name in ("efunc.eval", "homeo.eval", "flow.transit"):
        return lambda args, kwargs, out: rec.counts.update({name + ".points": int(np.size(args[1]))})
    if name == "efunc.nodes":
        return lambda args, kwargs, out: rec.grids.add((rec.job, args[0]))
    if name == "linearize.koenigs":
        return lambda args, kwargs, out: rec.counts.update({"linearize.sweeps": int(out.iterations)})
    if name == "svgplot.line_plot":

        def count(args, kwargs, out):
            x = args[1] if len(args) > 1 else kwargs["x"]
            series = args[2] if len(args) > 2 else kwargs["series"]
            rec.counts["svgplot.points"] += len(x) * len(series)
            path = args[0] if args else kwargs["path"]
            rec.counts["svgplot.bytes"] += os.path.getsize(path)

        return count
    return None


def _wrap(rec: Recorder, fn, name: str, leaf: bool):
    count = _counter(rec, name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        frame = rec.push(name, leaf)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.pop(frame)
        if count is not None:
            count(args, kwargs, out)
        return out

    return wrapper


def install(rec: Recorder) -> list:
    """Patch every target; return the undo list for :func:`uninstall`.

    A function is replaced in every loaded ``reebflow`` module that holds it
    under any name, so call sites that did ``from .x import f`` are caught
    as well.
    """
    undo = []
    holders = [m for n, m in sys.modules.items() if n == "reebflow" or n.startswith("reebflow.")]
    for modname, attr, name, leaf in TARGETS:
        # the package re-exports functions under module names (reebflow.classify)
        mod = sys.modules["reebflow." + modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            undo.append((cls, meth, orig))
            setattr(cls, meth, _wrap(rec, orig, name, leaf))
            continue
        orig = getattr(mod, attr)
        wrapped = _wrap(rec, orig, name, leaf)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is orig:
                    undo.append((holder, key, orig))
                    setattr(holder, key, wrapped)
    return undo


def uninstall(undo: list) -> None:
    for holder, key, orig in reversed(undo):
        setattr(holder, key, orig)
