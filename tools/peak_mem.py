"""Print the memory cost and wall time of one warm call of the flow-linearize computations.

At the grid (4096, 60) it measures ``koenigs_limit`` with lam = 2 and a
derived shift for koenigs_demo/square, std_log/square and doubling_osc/halve,
and for koenigs_demo/square with its explicit shift 2x/(1+x) - x^2/(1+x^2);
for each derived pair it also measures ``koenigs_limit`` followed by the
read-out ``f_inf`` at the probes and at their images ``h(probes)``;
and ``build_flow`` plus ``flow_classify`` on the build grid for the four
gallery profiles.  For each gallery profile it also measures ``orbit_rows``
over 2,000 times of its flow on the default grid, built once beforehand.
At the grid (16384, 60), 983,041 nodes, it measures ``classify`` of
doubling_osc and of std_log, whose blocks all rise and take no running
max, ``self_similarity_scan`` of doubling_osc with the witnesses
halve (lam = 2) and root_scale:2 (lam = sqrt 2), ``check_witness`` of
doubling_osc under root_scale:2 alone, and ``sigma_estimate`` of
doubling_osc with the sharp profile.  A last row runs ``classify`` of
doubling_osc at (16384, 60) in a new process: two calls warm it, and the
row prints the minor page faults per call of the five calls that follow
(0: a warm pass takes no fault, as its buffers are kept).
Each call runs once to warm the caches, then once more for each
measurement, and prints five numbers:

* the traced peak, the most memory the call had allocated at once (``tracemalloc``);
* the bytes its result still holds after it returns (``tracemalloc``);
* the minor page faults the call took, from ``resource.getrusage`` of this
  process, in a call with tracing off;
* the MiB the cache of ``GridSpec.nodes()`` holds after the row, read
  from the arrays it refers to (``gc.get_referents``); the rows at
  (16384, 60) add nothing to it, as their passes hold no nodes;
* the median wall time of 15 more calls, each timed by ``time.perf_counter``,
  in ms; ``build_flow`` and ``flow_classify`` (of a flow built once) are
  timed apart, so a flow row prints two.

The ``check_witness`` row also prints the number of points at which one call
evaluates f, counted through a wrapped ``fn``: the nodes, and the images of
root_scale:2 that are off their nodes or past the grid's end.  The scan row
prints the points at which one call evaluates each witness's h: n + K under
halve (every node in the walk, then the last K nodes, whose images fall past
the grid's end), 2n under root_scale:2.

The package is imported from this checkout's ``src``.  Run from anywhere:

    python tools/peak_mem.py
"""

from __future__ import annotations

import dataclasses
import gc
import math
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import reebflow as rf  # noqa: E402
from reebflow import efunc  # noqa: E402
from reebflow.flow import orbit_rows  # noqa: E402

GRID = rf.GridSpec(4096, 60)
GRID_1M = rf.GridSpec(16384, 60)
KOENIGS = (("koenigs_demo", "square"), ("std_log", "square"), ("doubling_osc", "halve"))
KOENIGS_SHIFT = efunc.compile_expr("2*x/(1+x) - x**2/(1+x**2)", "shift")  # koenigs_demo's k under square
GALLERY = ("std_log", "doubling_osc", "bounded_osc", "koenigs_demo")
MIB = 1 << 20
REPS = 15  # the warm calls whose median wall time is printed
ORBIT_TIMES = np.linspace(-4.0, 4.0, 2000)


def koenigs_call(name: str, hid: str, g: rf.GridSpec, k=None):
    """One ``koenigs_limit`` of the builtin ``name`` under ``hid``, lam = 2, with the shift k (None: derived)."""
    f, h, cfg = rf.builtin(name), rf.gallery_homeo(hid), rf.LinearizeConfig(2.0, g)
    return lambda: rf.koenigs_limit(f, h, k, cfg)


def read_out_call(name: str, hid: str, g: rf.GridSpec):
    """``koenigs_call`` with a derived shift, then ``f_inf`` at its probes and at their images."""
    h, limit = rf.gallery_homeo(hid), koenigs_call(name, hid, g)

    def call():
        res = limit()
        return res, res.f_inf(res.probes), res.f_inf(h(res.probes))

    return call


def flow_call(name: str, g: rf.GridSpec):
    """``build_flow`` of the builtin ``name`` on g, and ``flow_classify`` of that flow on g."""
    f = rf.builtin(name)

    def call():
        F = rf.build_flow(f, g=g)
        return F, rf.flow_classify(F, g=g)

    return call


def flow_parts(name: str, g: rf.GridSpec):
    """``build_flow`` of the builtin ``name`` on g, and ``flow_classify`` of one such flow, apart."""
    f = rf.builtin(name)
    F = rf.build_flow(f, g=g)
    return (lambda: rf.build_flow(f, g=g)), (lambda: rf.flow_classify(F, g=g))


def orbit_call(name: str, g: rf.GridSpec | None = None):
    """``orbit_rows`` over ``ORBIT_TIMES`` from a point of leaf 0.01 (in the prescription window)
    of the flow of the builtin ``name`` on g (the default grid), built once here."""
    F, p0 = rf.build_flow(rf.builtin(name), g=g), rf.QuarterPlanePoint(0.1, 0.1)
    return lambda: orbit_rows(F, p0, ORBIT_TIMES)


def classify_call(g: rf.GridSpec, name: str = "doubling_osc"):
    """``classify`` of the builtin ``name`` on g."""
    f = rf.builtin(name)
    return lambda: rf.classify(f, g)


def scan_call(g: rf.GridSpec, points: tuple[list, list] | None = None):
    """``self_similarity_scan`` of doubling_osc on g under halve (lam = 2) and root_scale:2 (lam = sqrt 2);
    ``points``, when given, receives the size of each array h is evaluated on, one list per witness."""
    f = rf.builtin("doubling_osc")
    hs = [rf.gallery_homeo("halve"), rf.gallery_homeo("root_scale:2")]
    if points is not None:
        hs = [dataclasses.replace(h, fn=lambda x, _fn=h.fn, _p=p: _p.append(np.size(x)) or _fn(x))
              for h, p in zip(hs, points)]
    witnesses = [rf.EquivalenceWitness(hs[0], None, 2.0), rf.EquivalenceWitness(hs[1], None, math.sqrt(2.0))]
    return lambda: rf.self_similarity_scan(f, witnesses, g)


def h_points(g: rf.GridSpec) -> tuple[int, int]:
    """The points at which one ``scan_call`` on g evaluates h, under halve and under root_scale:2."""
    points: tuple[list, list] = ([], [])
    scan_call(g, points)()
    return sum(points[0]), sum(points[1])


def witness_call(g: rf.GridSpec, points: list | None = None):
    """``check_witness`` of doubling_osc on g under root_scale:2 (lam = sqrt 2); ``points``, when given,
    receives the size of each array f is evaluated on."""
    f = rf.builtin("doubling_osc")
    if points is not None:
        f = dataclasses.replace(f, fn=lambda x, _fn=f.fn: points.append(np.size(x)) or _fn(x))
    w = rf.EquivalenceWitness(rf.gallery_homeo("root_scale:2"), None, math.sqrt(2.0))
    return lambda: rf.check_witness(f, None, w, g)


def f_points(g: rf.GridSpec) -> int:
    """The points at which one ``witness_call`` on g evaluates f."""
    points: list = []
    witness_call(g, points)()
    return sum(points)


def sharp_call(g: rf.GridSpec):
    """``sigma_estimate`` of doubling_osc on g with the sharp profile, whose tail is sampled too."""
    f = rf.builtin("doubling_osc")
    return lambda: rf.sigma_estimate(f, g, "sharp")


FRESH = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import reebflow as rf
f, g = rf.builtin("doubling_osc"), rf.GridSpec(int(sys.argv[2]), int(sys.argv[3]))
rf.classify(f, g)
rf.classify(f, g)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    rf.classify(f, g)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


def fresh_faults(g: rf.GridSpec) -> float:
    """The minor faults per call of a warm ``classify`` of doubling_osc on g, in a new process."""
    argv = [sys.executable, "-c", FRESH, str(ROOT / "src"), str(g.samples_per_octave), str(g.octave_max)]
    return float(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)


def cached_mib() -> float:
    """The MiB of the node arrays that the cache of ``GridSpec.nodes()`` holds."""
    return sum(a.nbytes for a in gc.get_referents(efunc._nodes) if isinstance(a, np.ndarray)) / MIB


def wall_ms(call) -> float:
    """The median wall time in ms of ``REPS`` warm ``call()``s."""
    call()
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def measure(call) -> tuple[int, int, int]:
    """(traced peak bytes, bytes the result holds, minor faults) of one warm ``call()``."""
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak, held, faults


def main() -> None:
    cases = [(f"koenigs_limit {name}/{hid}", koenigs_call(name, hid, GRID), [koenigs_call(name, hid, GRID)])
             for name, hid in KOENIGS]
    explicit = koenigs_call("koenigs_demo", "square", GRID, KOENIGS_SHIFT)
    cases += [("koenigs_limit koenigs_demo/square explicit k", explicit, [explicit])]
    cases += [(f"koenigs_limit+f_inf {name}/{hid}", read_out_call(name, hid, GRID), [read_out_call(name, hid, GRID)])
              for name, hid in KOENIGS]
    cases += [(f"build_flow+flow_classify {name}", flow_call(name, GRID), flow_parts(name, GRID))
              for name in GALLERY]
    cases += [(f"orbit_rows {name}", orbit_call(name), [orbit_call(name)]) for name in GALLERY]
    big = f"{GRID_1M.samples_per_octave},{GRID_1M.octave_max}"
    cases += [(f"classify doubling_osc ({big})", classify_call(GRID_1M), [classify_call(GRID_1M)]),
              (f"classify std_log ({big})", classify_call(GRID_1M, "std_log"), [classify_call(GRID_1M, "std_log")]),
              (f"self_similarity_scan doubling_osc ({big})", scan_call(GRID_1M), [scan_call(GRID_1M)]),
              (f"check_witness doubling_osc root_scale:2 ({big})", witness_call(GRID_1M), [witness_call(GRID_1M)]),
              (f"sigma_estimate sharp doubling_osc ({big})", sharp_call(GRID_1M), [sharp_call(GRID_1M)])]
    print(f"grid {GRID.samples_per_octave},{GRID.octave_max} unless named: peak MiB, held MiB, minor faults per"
          f" warm call; MiB of cached nodes after it; median ms of {REPS} warm calls (build_flow, flow_classify;"
          " orbit_rows alone; check_witness, and the points at which f runs; the scan, and those at which h runs"
          " under halve and root_scale:2)")
    for label, call, timed in cases:
        peak, held, faults = measure(call)
        ms = " ".join(f"{wall_ms(t):7.3f}" for t in timed)
        if label.startswith("check_witness"):
            ms += f" {f_points(GRID_1M):9d}"
        if label.startswith("self_similarity_scan"):
            ms += " {:9d} {:9d}".format(*h_points(GRID_1M))
        print(f"{label:50s} {peak / MIB:7.2f} {held / MIB:7.2f} {faults:7d} {cached_mib():7.2f} {ms}")
    print(f"{f'classify doubling_osc ({big}), new process':50s} minor faults per warm call {fresh_faults(GRID_1M):g}")


if __name__ == "__main__":
    main()
