"""One fresh, single-threaded benchmark worker process.

Started by ``run.py``; prints one JSON object on its last stdout line.

Both modes first set up: import reebflow, generate the inputs from the
seed, and run one untimed warm-up job of each kind; the CPU time from
process start to the end of the warm-up is the set-up time, which
``run.py`` scales into ``setup_s``.

    --mode run     then the closed loop: whole cycles of jobs for about
                   --seconds, and at least --min-jobs jobs; every job's
                   output is checked by its oracle, and a pass of the
                   reference kernel runs before and after every job
    --mode trace   then half the time untraced, then the same number of
                   cycles with the span recorder installed; reports the
                   per-layer metrics and the tracing overhead
    --probe        with either mode, probe the known flow-linearize defect
                   after the loop
"""

import argparse
import json
import math
import os
import resource
import shutil
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; a failed job is +inf, so it misses every limit."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def cpu_seconds() -> float:
    """CPU time of this process since it started, and of children it reaped.

    Jobs are timed in CPU time, not wall time: the worker is one thread
    with no children, so on an idle machine the two agree, while on a shared
    host the wall time also counts the time the host gives the CPU to
    someone else.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class _Point:
    def __init__(self, key, value):
        self.key, self.value = key, value

    def weighted(self, w):
        return self.value * w + self.key


def reference_ms() -> float:
    """CPU milliseconds of one pass of a fixed kernel that does not use reebflow.

    Like the jobs, it mixes interpreter work over many objects (a JSON round
    trip, a keyed sort, method calls, dict grouping) with numpy passes over
    2^19 doubles, more than the caches hold.  So it meets a shared host's
    interference much as the jobs do.  A pass runs before and after every
    job; ``run.py`` divides the job's time by their mean.
    """
    import numpy as np

    records = [
        {"id": i, "x": float(v), "tag": f"t{i % 97}"}
        for i, v in enumerate(np.random.default_rng(1).random(2500))
    ]
    y = np.random.default_rng(2).random(1 << 19)
    start = cpu_seconds()
    rows = sorted(json.loads(json.dumps(records)), key=lambda d: (d["tag"], d["x"]))
    total = 0.0
    for point in [_Point(d["id"], d["x"]) for d in rows]:
        total += point.weighted(0.5)
    groups: dict[str, list] = {}
    for d in rows:
        groups.setdefault(d["tag"], []).append(d["x"])
    z = np.exp(-y)
    np.cumsum(z)
    np.maximum.accumulate(y)
    y.reshape(1024, -1).max(axis=1)
    np.log(z + 1.0)
    return (cpu_seconds() - start) * 1e3


def _thread_count() -> int:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def _has_children() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def _run_job(index: int, job, rec, workloads) -> dict:
    if rec is not None:
        rec.job, rec.enabled = index, True
    error = None
    wall, start = time.perf_counter(), cpu_seconds()
    try:
        if rec is not None:
            with rec.span("job." + job.kind):
                out = job.run()
        else:
            out = job.run()
    except Exception as exc:  # a job that raises is a failed job, never retried
        error = f"{type(exc).__name__}: {exc}"
    elapsed, wall = cpu_seconds() - start, time.perf_counter() - wall
    if rec is not None:
        rec.enabled = False
    obs = {}
    if error is None:
        try:
            obs = job.check(out)
        except workloads.OracleError as exc:
            error = f"oracle: {exc}"
        except Exception as exc:
            error = f"oracle raised {type(exc).__name__}: {exc}"
    return {"kind": job.kind, "elapsed": elapsed, "wall": wall, "error": error, "obs": obs}


def _run_cycles(cycle, workloads, seconds=None, min_jobs=0, cycles=None, rec=None, first=0):
    results = []
    start = time.perf_counter()
    done = 0
    before = reference_ms()
    while True:
        for slot, job in enumerate(cycle):
            results.append(_run_job(first + len(results), job, rec, workloads))
            after = reference_ms()
            results[-1].update(slot=slot, ref_ms=(before + after) / 2.0)
            before = after
        done += 1
        if cycles is not None:
            if done >= cycles:
                break
        elif len(results) >= min_jobs:
            elapsed = time.perf_counter() - start
            # stop when one more cycle would overrun by more than half of one
            if elapsed + 0.5 * elapsed / done >= seconds:
                break
    return results, done


def _summary(results) -> dict:
    return {
        "jobs": len(results),
        "failed": sum(r["error"] is not None for r in results),
        "slots": [r.get("slot") for r in results],
        "ms": [r["elapsed"] * 1e3 for r in results],
        "wall_ms": [r["wall"] * 1e3 for r in results],
        "ok": [r["error"] is None for r in results],
        "ref_ms": [r.get("ref_ms") for r in results],
        "busy_s": sum(r["elapsed"] for r in results),
        "failures": [
            {"job": i, "kind": r["kind"], "error": r["error"]}
            for i, r in enumerate(results)
            if r["error"] is not None
        ],
    }


def _obs_max(results, key: str) -> float:
    return max((r["obs"][key] for r in results if key in r["obs"]), default=0.0)


def _obs_sum(results, key: str) -> float:
    return sum(r["obs"].get(key, 0) for r in results)


def per_layer(rec, results, overhead_pct: float, probe_failed: int) -> dict:
    """Per-layer metrics of the traced jobs, per job where they are totals."""
    jobs = max(1, len(results))

    def ms(name):
        return rec.self_s.get(name, 0.0) * 1e3 / jobs

    def calls(name):
        return rec.calls.get(name, 0) / jobs

    def count(name):
        return rec.counts.get(name, 0) / jobs

    nodes_calls = rec.calls.get("efunc.nodes", 0)
    return {
        "efunc.nodes.calls": calls("efunc.nodes"),
        "efunc.nodes.self_ms": ms("efunc.nodes"),
        "efunc.nodes.waste_ratio": nodes_calls / len(rec.grids) if rec.grids else 0.0,
        "efunc.sample.self_ms": ms("efunc.sample"),
        "efunc.diagnose.self_ms": ms("efunc.diagnose"),
        "efunc.csv_parse.self_ms": ms("efunc.csv_parse"),
        "efunc.eval.points": count("efunc.eval.points"),
        "efunc.eval.self_ms": ms("efunc.eval"),
        "oscillation.star.self_ms": ms("oscillation.star"),
        "oscillation.sharp.self_ms": ms("oscillation.sharp"),
        "oscillation.sigma.self_ms": ms("oscillation.sigma"),
        "oscillation.witness.self_ms": ms("oscillation.witness"),
        "oscillation.sigma_abs_err_max": _obs_max(results, "sigma_err"),
        "classify.classify.self_ms": ms("classify.classify"),
        "classify.scan.self_ms": ms("classify.scan"),
        "classify.flow_classify.self_ms": ms("classify.flow_classify"),
        "flow.transition.calls": calls("flow.transition"),
        "flow.transition.self_ms": ms("flow.transition"),
        "flow.transit.points": count("flow.transit.points"),
        "flow.transit.self_ms": ms("flow.transit"),
        "flow.build.self_ms": ms("flow.build"),
        "flow.step.calls": calls("flow.step"),
        "flow.orbit.self_ms": ms("flow.orbit"),
        "flow.user_rel_err_max": _obs_max(results, "user_rel_err"),
        "flow.failed": probe_failed,
        "homeo.eval.points": count("homeo.eval.points"),
        "homeo.eval.self_ms": ms("homeo.eval"),
        "homeo.inverse.calls": calls("homeo.inverse"),
        "homeo.basin.self_ms": ms("homeo.basin"),
        "linearize.koenigs.self_ms": ms("linearize.koenigs"),
        "linearize.sweeps": count("linearize.sweeps"),
        # inclusive: evaluating f_inf is EFunction and Homeo leaf calls
        "linearize.f_inf_eval.ms": rec.total_s.get("linearize.f_inf_eval", 0.0) * 1e3 / jobs,
        "linearize.residual_max": _obs_max(results, "residual"),
        "cli.main.self_ms": ms("cli.main"),
        "cli.csv_bytes": _obs_sum(results, "csv_bytes") / jobs,
        "cli.json_bytes": _obs_sum(results, "json_bytes") / jobs,
        "svgplot.line_plot.self_ms": ms("svgplot.line_plot"),
        "svgplot.points": count("svgplot.points"),
        "svgplot.bytes": count("svgplot.bytes"),
        "trace.overhead_pct": overhead_pct,
        "trace.spans": len(rec.spans) / jobs,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-jobs", type=int, default=0)
    ap.add_argument("--mode", choices=("run", "trace"), required=True)
    ap.add_argument("--probe", action="store_true", help="probe the known defect after the loop")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import reebflow
    import reebflow.cli  # not imported by the package itself

    if Path(reebflow.__file__).resolve().parent != ROOT / "src" / "reebflow":
        print(f"error: reebflow imported from {reebflow.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    try:
        ctx = workloads.Context(workdir)
        inputs = workloads.generate(args.workload, args.seed, workdir)
        cycle = workloads.build_cycle(ctx, inputs)
        warmup, kinds = [], set()
        for job in cycle:
            if job.kind not in kinds:
                kinds.add(job.kind)
                warmup.append(_run_job(-1, job, None, workloads))
        setup_s = cpu_seconds()  # from process start: interpreter, imports, inputs, warm-up
        report = {
            "setup_s": setup_s,
            "warmup_failures": _summary(warmup)["failures"],
            "cycle": [{"kind": job.kind, "nodes": job.nodes} for job in cycle],
        }

        rec = None
        if args.mode == "run":
            results, _ = _run_cycles(cycle, workloads, args.seconds, args.min_jobs)
            report.update(_summary(results))
        else:
            plain, n_cycles = _run_cycles(cycle, workloads, args.seconds / 2.0, 0)
            rec = tracer.Recorder()
            ctx.span = rec.span
            undo = tracer.install(rec)
            try:
                results, _ = _run_cycles(cycle, workloads, cycles=n_cycles, rec=rec, first=len(plain))
            finally:
                tracer.uninstall(undo)
            traced, untraced = _summary(results), _summary(plain)
            report.update({k: untraced[k] + traced[k] for k in ("jobs", "failed", "failures")})
            overhead = 100.0 * (traced["busy_s"] / untraced["busy_s"] - 1.0)

        probe = None
        if args.probe and args.workload == "flow-linearize":
            try:
                probe = workloads.defect_probe(ctx, inputs)
            except workloads.OracleError as exc:
                probe = {"error": str(exc), "failed": 0}
        report["probe"] = probe
        if rec is not None:
            report["per_layer"] = per_layer(rec, results, overhead, probe["failed"] if probe else 0)
            report["spans"] = rec.spans
        report.update(
            inputs=inputs,
            numpy=np.__version__,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            threads=_thread_count(),
            children=_has_children(),
        )
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
