"""The reebflow benchmark: seeded closed-loop workloads, checked outputs.

    python3 bench/run.py --workload sweep-1m --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run starts fresh single-threaded worker processes (``worker.py``).
``--trace 0`` runs five in turn; each sets up and runs a fifth of the
closed loop.  ``setup_s`` is the median of their five scaled set-up
times; the job times come from all their jobs, as ``job_times`` describes.
``--trace 1`` is a separate traced run in one worker and reports the
per-layer metrics.  Every job's output is checked; the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (generated inputs, per-job times and
samples, failures, machine, git revision, spans of a traced run) goes to
``bench/_out/results/``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from statistics import median
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "_out" / "results"
WORKLOADS = ("sweep-1m", "cli-default", "flow-linearize")
WORKERS = 5  # fresh measuring processes per untraced run
MIN_JOBS = 100  # timed jobs: the 90th percentile keeps at least ten beyond it
# CPU ms of one pass of worker.reference_ms on a quiet host; it fixes the
# scale of the reported job times and must not change between commits
REFERENCE_MS = 17.0
SINGLE_THREAD = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

sys.path.insert(0, str(BENCH))
from worker import percentile  # noqa: E402


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, **SINGLE_THREAD, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _machine(numpy_version: str) -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def job_times(reps: list[dict]) -> tuple[list[float], list[bool]]:
    """Per job of the cycle: its time, and whether any of its repeats failed.

    Each repeat's CPU ms is divided by the mean of the reference passes just
    before and after it and multiplied by REFERENCE_MS; the job's time is
    the median over its repeats in all workers.  Other tenants of a shared
    host change the speed the worker gets from one second to the next, and
    the passes next to a job see the same speed, so the ratio cancels it.
    """
    samples: list[list[float]] = [[] for _ in reps[0]["cycle"]]
    failed = [False] * len(samples)
    for r in reps:
        for slot, ms, ref, ok in zip(r["slots"], r["ms"], r["ref_ms"], r["ok"]):
            samples[slot].append(ms * REFERENCE_MS / ref)
            failed[slot] = failed[slot] or not ok
    return [median(s) for s in samples], failed


def end_to_end(reps: list[dict]) -> dict:
    times, failed = job_times(reps)
    # a job that failed in any repeat is +inf, so it misses every limit
    judged = [math.inf if bad else ms for ms, bad in zip(times, failed)]
    nodes = sum(job["nodes"] for job, bad in zip(reps[0]["cycle"], failed) if not bad)
    return {
        # set-up is scaled like the jobs, by the worker's median reference pass
        "setup_s": median([r["setup_s"] * REFERENCE_MS / median(r["ref_ms"]) for r in reps]),
        "job_ms_p50": median(judged),
        "job_ms_p90": percentile(judged, 90),
        "nodes_per_s": nodes / (sum(times) / 1e3),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, declared: dict) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    if trace:
        args = common + ["--mode", "trace", "--seconds", str(seconds), "--probe"]
        reps = [_worker(args, timeout=3 * seconds + 60)]
        values = reps[0]["per_layer"]
    else:
        # the known-defect probe is deterministic, so one worker runs it
        args = common + ["--mode", "run", "--seconds", str(seconds / WORKERS)]
        args += ["--min-jobs", str(-(-MIN_JOBS // WORKERS))]
        reps = [_worker(args + ["--probe"] * (i == 0), timeout=seconds + 60) for i in range(WORKERS)]
        values = end_to_end(reps)
    units = declared[trace]
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    # a failed job is +inf; JSON has no infinity, so it reads as the largest double
    metrics = {
        name: {"value": values[name] if math.isfinite(values[name]) else sys.float_info.max, "unit": unit}
        for name, unit in units.items()
    }
    failures = [f for r in reps for f in r["failures"]]
    warmup_failures = [f for r in reps for f in r["warmup_failures"]]
    probes = [r["probe"] for r in reps if r["probe"]]
    probe = next((p for p in probes if "error" in p), probes[0] if probes else {})
    attempted = sum(r["jobs"] for r in reps)
    correct = not failures and not warmup_failures and "error" not in probe
    result = {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    record = dict(
        result,
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        setup_samples_s=[r["setup_s"] for r in reps],
        failures=failures,
        warmup_failures=warmup_failures,
        known_defect_probe=probe,
        inputs=reps[0]["inputs"],
        worker_threads=max(r["threads"] for r in reps),
        worker_children=any(r["children"] for r in reps),
        machine=_machine(reps[0]["numpy"]),
        git_sha=_git_revision(),
    )
    if not trace:
        times, _ = job_times(reps)
        record.update(
            jobs=[dict(job, ms=ms) for job, ms in zip(reps[0]["cycle"], times)],
            worker_samples=[{k: r[k] for k in ("slots", "ms", "wall_ms", "ok", "ref_ms")} for r in reps],
        )
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if trace:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(reps[0]["spans"]) + "\n")
    for name, m in metrics.items():
        print(f"{workload:15s} {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"{workload:15s} jobs {attempted}, failed {len(failures)}, correct {correct}")
    for failure in failures[:5] + warmup_failures[:5]:
        print(f"{workload:15s} FAILED {failure['kind']}: {failure['error']}")
    for outcome in probe.get("outcomes", []):
        if "error" in outcome:
            where = f"x = {outcome['x']!r}" if "x" in outcome else outcome["job"]
            print(f"{workload:15s} known defect, user transversal, doubling_osc, {where}: {outcome['error']}")
    if "error" in probe:
        print(f"{workload:15s} FAILED known-defect probe: {probe['error']}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="reebflow benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "reebflow" / "__init__.py").is_file():
        print(f"error: no reebflow package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        declared = _declared()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(w, args.seed, args.seconds, args.trace, declared) for w in workloads]
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{w}/{name}": m for w, r in zip(workloads, results) for name, m in r["metrics"].items()
            },
        }
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
