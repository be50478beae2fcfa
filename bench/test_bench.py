"""Self-tests of the benchmark: inputs, oracles, percentiles, worker isolation.

Run with ``python3 -m pytest bench -q`` from the repository root.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path
from statistics import median

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import reebflow  # noqa: E402,F401
import reebflow.cli  # noqa: E402,F401
import run  # noqa: E402
import workloads  # noqa: E402
from worker import percentile  # noqa: E402


def _generate(workload, seed, tmp_path, name):
    workdir = tmp_path / name
    inp = workloads.generate(workload, seed, workdir)
    text = json.dumps(inp, sort_keys=True).replace(str(workdir), "<workdir>")
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return text, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = _generate(workload, 7, tmp_path, "a")
    assert first == _generate(workload, 7, tmp_path, "b")
    assert first != _generate(workload, 8, tmp_path, "c")


def _cycle(workload, seed, tmp_path):
    ctx = workloads.Context(tmp_path / "work")
    inp = workloads.generate(workload, seed, ctx.workdir)
    return ctx, inp, workloads.build_cycle(ctx, inp)


def _first(cycle, kind):
    return next(j for j in cycle if j.kind == kind)


def _rejects(job, out):
    with pytest.raises(workloads.OracleError):
        job.check(out)


def test_verdict_oracles_reject_a_flipped_verdict(tmp_path):
    _, _, cycle = _cycle("sweep-1m", 3, tmp_path)
    for job in (cycle[0], cycle[1], _first(cycle, "scan")):  # std_log, doubling_osc, scan
        rep = job.run()
        job.check(rep)
        flipped = "standard" if rep.verdict == "nonstandard" else "nonstandard"
        _rejects(job, dataclasses.replace(rep, verdict=flipped))


def test_sharp_oracle_rejects_a_wrong_trend(tmp_path):
    _, _, cycle = _cycle("sweep-1m", 3, tmp_path)
    job = _first(cycle, "sigma-sharp")
    est = job.run()
    job.check(est)
    _rejects(job, dataclasses.replace(est, trend="bounded"))


def test_extract_user_oracle_rejects_a_time_off_by_1e6(tmp_path):
    _, _, cycle = _cycle("flow-linearize", 3, tmp_path)
    job = _first(cycle, "extract-user")
    F, tv, rep, values = job.run()
    assert job.check((F, tv, rep, values))["user_rel_err"] <= 1e-9
    planted = values.copy()
    planted[3] *= 1.0 + 1e-6
    _rejects(job, (F, tv, rep, planted))


def test_orbit_oracle_rejects_a_leaf_drift(tmp_path):
    _, _, cycle = _cycle("flow-linearize", 3, tmp_path)
    job = _first(cycle, "orbit")
    rows = job.run()
    job.check(rows)
    t, xi, eta = rows[100]
    rows[100] = (t, xi, eta * (1.0 + 1e-11))
    _rejects(job, rows)


def test_linearize_oracle_rejects_a_residual_above_1e10(tmp_path):
    _, _, cycle = _cycle("flow-linearize", 3, tmp_path)
    job = _first(cycle, "linearize")
    res, values, images = job.run()
    assert job.check((res, values, images))["residual"] <= 1e-10
    _rejects(job, (res, values, images * (1.0 + 1e-9)))


def _rewrite(out: Path, name: str, edit) -> None:
    obj = json.loads((out / name).read_text())
    edit(obj)
    (out / name).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def test_cli_oracles_reject_failed_roundtrip_and_changed_bytes(tmp_path):
    _, _, cycle = _cycle("cli-default", 3, tmp_path)
    job = _first(cycle, "roundtrip")
    job.check(job.run())
    rc, out = job.run()
    _rewrite(out, "roundtrip.json", lambda o: o.update({"pass": False}))
    _rejects(job, (rc, out))
    # same argv again, one JSON value changed: the byte-identity check fires
    rc, out = job.run()
    _rewrite(out, "roundtrip.json", lambda o: o.update({"max_error": o["max_error"] + 1e-17}))
    _rejects(job, (rc, out))


def test_cli_oracle_rejects_a_nonzero_exit(tmp_path):
    _, _, cycle = _cycle("cli-default", 3, tmp_path)
    job = _first(cycle, "classify")
    rc, out = job.run()
    job.check((rc, out))
    rc, out = job.run()
    _rejects(job, (1, out))


def test_a_failed_job_is_infinite_in_the_percentiles():
    samples = [10.0] * 89 + [20.0] + [math.inf] * 10
    assert percentile(samples, 90) == 20.0
    assert percentile(samples + [math.inf], 90) == math.inf
    assert median([1.0, math.inf, math.inf]) == math.inf
    assert median([1.0, 2.0, 3.0, math.inf]) == 2.5


def test_job_times_are_medians_of_reference_scaled_repeats_and_a_failure_is_infinite():
    r = run.REFERENCE_MS
    worker = {
        "cycle": [{"kind": "a", "nodes": 10}, {"kind": "b", "nodes": 30}, {"kind": "c", "nodes": 50}],
        "setup_s": 1.0,
        "peak_rss_mb": 50.0,
        "slots": [0, 1, 2] * 3,
        "ms": [40.0, 60.0, 100.0, 10.0, 30.0, 50.0, 30.0, 90.0, 150.0],
        "ref_ms": [2 * r] * 3 + [r] * 3 + [3 * r] * 3,  # the host ran at half, full and a third speed
        "ok": [True] * 8 + [False],
    }
    times, failed = run.job_times([worker])
    assert times == [10.0, 30.0, 50.0] and failed == [False, False, True]
    values = run.end_to_end([worker])
    assert values["setup_s"] == 0.5  # one second at half speed
    assert values["job_ms_p50"] == 30.0 and values["job_ms_p90"] == math.inf
    assert values["nodes_per_s"] == 40 / 0.09  # the failed job's nodes do not count, its time does


def test_worker_starts_no_threads_or_processes():
    rep = run._worker(
        ["--workload", "cli-default", "--seed", "1", "--mode", "run", "--seconds", "0"], timeout=120
    )
    assert rep["failed"] == 0 and rep["jobs"] >= 1
    assert rep["threads"] == 1
    assert rep["children"] is False


def test_known_defect_probe_reports_the_overflow(tmp_path):
    ctx, inp, _ = _cycle("flow-linearize", 3, tmp_path)
    probe = workloads.defect_probe(ctx, inp)
    errors = [o for o in probe["outcomes"] if "error" in o]
    assert [o.get("x") for o in errors[:2]] == [2.0**-10, 2.0**-14]
    assert all("overflow" in o["error"] for o in errors)
    assert np.isfinite([o["time"] for o in probe["outcomes"] if "time" in o]).all()


def test_tracer_catches_imported_call_sites_and_restores_them(tmp_path):
    import tracer

    _, _, cycle = _cycle("cli-default", 3, tmp_path)
    job = _first(cycle, "classify")
    original = reebflow.cli.classify
    rec = tracer.Recorder()
    undo = tracer.install(rec)
    try:
        rec.enabled = True
        with rec.span("job.classify"):
            out = job.run()
        rec.enabled = False
    finally:
        tracer.uninstall(undo)
    job.check(out)
    assert reebflow.cli.classify is original
    # cli imported classify and line_plot by name; both calls are seen
    assert rec.calls["cli.main"] == 1 and rec.calls["classify.classify"] == 1
    assert rec.calls["svgplot.line_plot"] == 1 and rec.counts["svgplot.bytes"] > 0
    assert rec.counts["efunc.eval.points"] > 0 and not rec.stack
    spans = {name: (sid, parent) for sid, name, _, _, parent, _ in rec.spans}
    assert spans["cli.main"][1] == spans["job.classify"][0]
    assert sum(rec.self_s.values()) <= rec.total_s["job.classify"] * (1 + 1e-9)
