"""Seeded inputs, job kinds and correctness oracles of the benchmark workloads.

``generate`` turns (workload, seed) into plain data plus input files (CSV
profiles, flow JSON configs); ``build_cycle`` turns that data into the fixed
list of jobs one closed-loop cycle runs.  The program under test receives
only the generated inputs.  Every job has an oracle that raises
:class:`OracleError` on a wrong answer; oracles use the benchmark's own
reference formulas wherever the maths gives one.

Each cycle holds every job kind in fixed proportions, and the seed moves
only parameters that do not change the amount of work, so runs with
different seeds are comparable.  The proportions put the median and the
90th percentile inside a block of one job kind rather than on the edge
between two kinds.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("sweep-1m", "cli-default", "flow-linearize")
GALLERY = ("std_log", "doubling_osc", "bounded_osc", "koenigs_demo")

SWEEP_GRID = (16384, 60)  # 983,041 nodes
FLOW_GRID = (4096, 60)  # 245,761 nodes
COARSE_GRID = (8, 20)  # 161 nodes, user-transversal extraction
DEFAULT_GRID_NODES = 512 * 40 + 1
ORBIT_SAMPLES = 2000
USER_CHECK_POINTS = 16
DEFECT_PROBE_X = (2.0**-10, 2.0**-12, 2.0**-14)


class OracleError(Exception):
    """A job's output disagrees with its oracle."""


@dataclass
class Job:
    kind: str
    nodes: int  # grid nodes (or samples) the job processes
    run: Callable[[], object]
    check: Callable[[object], dict]  # raises OracleError; returns observations


class Context:
    """What jobs need from the worker: the package, a scratch directory, spans."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.rf = sys.modules["reebflow"]
        self.span = lambda name: contextlib.nullcontext()
        self._dirs = 0

    def module(self, name: str):
        # looked up at call time so the traced run sees the patched functions
        return sys.modules["reebflow." + name]

    def fresh_dir(self) -> Path:
        self._dirs += 1
        return self.workdir / f"job{self._dirs}"


# -- reference formulas and known classes --------------------------------------


def reference_values(spec: dict, x: np.ndarray) -> np.ndarray:
    """The profile a spec describes, written out by the benchmark itself."""
    x = np.asarray(x, dtype=float)
    name = spec.get("builtin")
    if name == "std_log":
        return -np.log(x)
    if name == "doubling_osc":
        return np.exp2(np.sin(2.0 * math.pi * np.log2(x))) / x
    if name == "bounded_osc":
        a = spec["params"][0] if spec.get("params") else 2.0
        return -np.log(x) + a * np.sin(-np.log(x))
    if name == "koenigs_demo":
        return -np.log(x) + x / (1.0 + x)
    if spec["family"] == "mono":
        return spec["a"] * (-np.log(x)) + spec["b"]
    return -np.log(x) + spec["A"] * np.sin(spec["w"] * np.log(x))


def _oscillation(spec: dict) -> tuple[float, float] | None:
    """(A, w) when the profile is -ln x plus A sin(w ln x) up to sign."""
    name = spec.get("builtin")
    if name == "bounded_osc":
        return (spec["params"][0] if spec.get("params") else 2.0), 1.0
    if name is None and spec["family"] == "osc":
        return spec["A"], spec["w"]
    return None


def expected_verdict(spec: dict) -> str:
    if spec.get("builtin") == "doubling_osc":
        return "nonstandard"
    osc = _oscillation(spec)
    # generated amplitudes keep A*w at 1.5 or more, well above the threshold 1
    return "nonstandard" if osc is not None and osc[0] * osc[1] > 1.0 else "standard"


@functools.lru_cache(maxsize=None)
def _dense_sigma(a: float, w: float) -> float:
    """limsup of star for u + a sin(w u), u = -ln x: dense running-max scan.

    Past the first period the drop below the running maximum repeats with
    period 2 pi / w, so the scan over periods 4 to 6 gives the limit.
    """
    period = 2.0 * math.pi / w
    u = np.linspace(0.0, 6.0 * period, 600_001)
    g = u + a * np.sin(w * u)
    drop = np.maximum.accumulate(g) - g
    return float(np.max(drop[u >= 4.0 * period]))


def sigma_limit(spec: dict) -> float | None:
    """The analytic sigma of a profile; None where it is infinite."""
    if spec.get("builtin") == "doubling_osc":
        return None
    osc = _oscillation(spec)
    if osc is None or osc[0] * osc[1] <= 1.0:
        return 0.0
    return _dense_sigma(*osc)


def _sigma_obs(sigma_hat: float, spec: dict, scale: float = 1.0) -> dict:
    want = sigma_limit(spec)
    return {} if want is None else {"sigma_err": abs(sigma_hat - want / scale)}


def _label(spec: dict) -> str:
    if "builtin" in spec:
        return spec["builtin"] + "".join(f"({p:g})" for p in spec.get("params", []))
    return spec.get("csv") or spec["expr"]


# -- seeded inputs ----------------------------------------------------------------


def _with_oracle(spec: dict) -> dict:
    spec["expected"] = {"verdict": expected_verdict(spec), "sigma": sigma_limit(spec)}
    return spec


def _builtin_spec(rng: random.Random, name: str | None = None) -> dict:
    name = name or rng.choice(GALLERY)
    params = [rng.uniform(1.5, 3.0)] if name == "bounded_osc" else []
    return _with_oracle({"builtin": name, "params": params})


def _expr_spec(rng: random.Random, family: str) -> dict:
    if family == "mono":
        a, b = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        return _with_oracle({"family": "mono", "a": a, "b": b, "expr": f"{a!r}*(-log(x))+{b!r}"})
    w = rng.uniform(1.0, 2.0)
    amp = rng.uniform(2.5, 4.0) / w
    expr = f"-log(x)+{amp!r}*sin({w!r}*log(x))"
    return _with_oracle({"family": "osc", "A": amp, "w": w, "expr": expr})


def _write_csv(path: Path, spec: dict, octaves: int, rows_per_octave: int) -> None:
    i = np.arange(octaves * rows_per_octave + 1)
    x = np.exp2(-i / rows_per_octave)  # exact powers of two at whole octaves, down to 2^-octaves
    f = reference_values(spec, x)
    lines = ["x,f"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, f)]
    path.write_text("\n".join(lines) + "\n")


def _csv_spec(rng: random.Random, workdir: Path, family: str, octaves: int, rows_per_octave: int) -> dict:
    spec = _expr_spec(rng, family)  # the family sets the cost, so the seed does not choose it
    path = workdir / "profile.csv"
    _write_csv(path, spec, octaves, rows_per_octave)
    spec = dict(spec, csv=str(path), rows=octaves * rows_per_octave + 1)
    del spec["expr"]
    return spec


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """All inputs of one run, as JSON-able data; input files go to ``workdir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    inp: dict = {"workload": workload, "seed": seed}
    if workload == "sweep-1m":
        inp["classify"] = (
            [_with_oracle({"builtin": name, "params": []}) for name in GALLERY]
            + [_builtin_spec(rng, "bounded_osc"), _expr_spec(rng, "mono"), _expr_spec(rng, "osc")]
            + [_csv_spec(rng, workdir, "mono", 60, 69)]  # 4,141 rows, at least 4,097
        )
    elif workload == "cli-default":
        source = _builtin_spec(rng)
        flow_obj = {
            "kind": "time_scaled",
            "lambda": rng.uniform(0.5, 2.0),
            "c0": 0.25,
            "c1": 0.5,
            "shift": 0.0,
            "f": {"builtin": source["builtin"], "params": source["params"]},
        }
        (workdir / "flow.json").write_text(json.dumps(flow_obj, indent=2, sort_keys=True) + "\n")
        inp.update(
            sigma=_builtin_spec(rng, "bounded_osc"),
            csv=_csv_spec(rng, workdir, "osc", 40, 64),
            roundtrip=[_builtin_spec(rng, "doubling_osc"), _builtin_spec(rng, "doubling_osc")],
            classify=_builtin_spec(rng, "doubling_osc"),
            flow=dict(flow_obj, f=source, path=str(workdir / "flow.json")),
            transition_x=[2.0 ** rng.uniform(-30.0, -2.0) for _ in range(2)],
            plot_x=2.0 ** rng.uniform(-12.0, -2.0),
            plot=_builtin_spec(rng, "bounded_osc"),
        )
    else:
        g1_x = np.exp2(np.linspace(-21.0, 0.0, 64))
        power = rng.uniform(0.9, 1.1)
        inp["transversal"] = {
            "phi": f"x**{power!r}",
            "gamma1": [(float(x), float(x**power), 1.0) for x in g1_x],
            "gamma2": [(1.0, float(e)) for e in np.exp2(np.linspace(-30.0, 0.0, 64))],
            "check_x": sorted(2.0 ** rng.uniform(-20.0, 0.0) for _ in range(USER_CHECK_POINTS)),
        }
        inp["extract_user"] = [
            _builtin_spec(rng, "std_log"),
            _builtin_spec(rng, "bounded_osc"),
            _builtin_spec(rng, "koenigs_demo"),
        ]
        inp["orbit"] = [
            {
                "f": _builtin_spec(rng, name),
                "xi": 2.0 ** rng.uniform(-10.0, -1.0),
                "eta": 2.0 ** rng.uniform(-10.0, 0.0),
                "t_max": rng.uniform(2.0, 6.0),
            }
            for name in GALLERY
        ]
        inp["flow_classify"] = [
            {"f": _builtin_spec(rng, name), "lambda": rng.uniform(0.5, 2.0)}
            for name in GALLERY + ("doubling_osc", "bounded_osc", "koenigs_demo")
        ]
        inp["linearize"] = [["koenigs_demo", "square"], ["std_log", "square"], ["doubling_osc", "halve"]]
    inp["files"] = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(workdir.iterdir())
    }
    return inp


# -- job kinds ---------------------------------------------------------------------


def _efunction(ctx: Context, spec: dict):
    rf = ctx.rf
    if "builtin" in spec:
        return rf.builtin(spec["builtin"], spec.get("params", []))
    if "csv" in spec:
        return rf.from_csv(spec["csv"])
    return rf.from_expression(spec["expr"])


def _grid(ctx: Context, k_m: tuple[int, int]):
    return ctx.rf.GridSpec(samples_per_octave=k_m[0], octave_max=k_m[1])


def _check_verdict(verdict: str, spec: dict) -> None:
    want = spec["expected"]["verdict"]
    if verdict != want:
        raise OracleError(f"verdict {verdict!r} for {_label(spec)}, expected {want!r}")


def _sweep_cycle(ctx: Context, inp: dict) -> list[Job]:
    rf = ctx.rf
    g = _grid(ctx, SWEEP_GRID)
    n = g.node_count

    def classify_job(spec):
        def check(rep):
            _check_verdict(rep.verdict, spec)
            return _sigma_obs(rep.sigma.sigma_hat, spec)

        return Job("classify", n, lambda: rf.classify(_efunction(ctx, spec), g), check)

    def sharp_run():
        return rf.sigma_estimate(rf.builtin("doubling_osc"), g, variant="sharp")

    def sharp_check(est):
        # f(x/2) = 2 f(x) exactly, so the per-octave suprema double
        ratios = est.s_m[-10:] / est.s_m[-11:-1]
        if est.trend != "increasing" or not np.all(np.abs(ratios - 2.0) <= 0.05):
            raise OracleError(f"sharp sigma of doubling_osc: trend {est.trend}, ratios {ratios}")
        return {}

    def scan_run():
        witnesses = [
            rf.EquivalenceWitness(rf.gallery_homeo("halve"), None, 2.0),
            rf.EquivalenceWitness(rf.gallery_homeo("root_scale:2"), None, math.sqrt(2.0)),
        ]
        return rf.self_similarity_scan(rf.builtin("doubling_osc"), witnesses, g)

    def scan_check(rep):
        halve, root = rep.results
        # exactly self-similar at scale 2, not at scale sqrt(2), and nonstandard
        if not (halve.passed and halve.residual <= 1e-12 and not root.passed):
            raise OracleError(f"scan witnesses: halve {halve.residual:.3g}, root {root.residual:.3g}")
        if rep.verdict != "nonstandard":
            raise OracleError(f"scan verdict {rep.verdict!r}, expected 'nonstandard'")
        return {}

    jobs = [classify_job(spec) for spec in inp["classify"]]
    for _ in range(2):
        jobs.append(Job("sigma-sharp", n, sharp_run, sharp_check))
        jobs.append(Job("scan", n, scan_run, scan_check))
    return jobs


def _cli_cycle(ctx: Context, inp: dict) -> list[Job]:
    seen: dict[tuple, dict] = {}

    def params(spec):
        out = ["--builtin", spec["builtin"]]
        for p in spec.get("params", []):
            out += ["--param", repr(p)]
        return out

    def read_json(out: Path, name: str) -> dict:
        return json.loads((out / name).read_text())

    def cli_job(kind, argv, nodes, check_fn):
        def run():
            out = ctx.fresh_dir()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = ctx.module("cli").main(argv + ["--out", str(out)])
            return rc, out

        def check(res):
            rc, out = res
            try:
                if rc != 0:
                    raise OracleError(f"reebflow {' '.join(argv)} exited {rc}")
                files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
                artifacts = {k: v for k, v in files.items() if k.endswith(".json")}
                first = seen.setdefault(tuple(argv), artifacts)
                if first != artifacts:
                    raise OracleError(f"JSON artifacts of {' '.join(argv)} differ across repeats")
                obs = check_fn(out) or {}
                obs["csv_bytes"] = sum(len(v) for k, v in files.items() if k.endswith(".csv"))
                obs["json_bytes"] = sum(len(v) for v in artifacts.values())
                return obs
            finally:
                shutil.rmtree(out, ignore_errors=True)

        return Job(kind, nodes, run, check)

    def sigma_check(spec, variant="star"):
        def check(out):
            est = read_json(out, "sigma.json")["sigma"]
            if variant == "sharp":
                if est["trend"] != "increasing" or est["sigma_hat"] < 0.1:
                    raise OracleError(f"sharp sigma of doubling_osc: {est['trend']}")
                return {}
            verdict = "nonstandard" if est["sigma_hat"] >= 0.1 else "standard"
            if verdict == "standard" and not (est["sigma_hat"] < 1e-3 and est["trend"] == "vanishing"):
                verdict = "inconclusive"
            _check_verdict(verdict, spec)
            return _sigma_obs(est["sigma_hat"], spec)

        return check

    def roundtrip_check(out):
        rep = read_json(out, "roundtrip.json")
        if rep["pass"] is not True:
            raise OracleError(f"roundtrip failed: max error {rep['max_error']!r}")

    def linearize_check(out):
        res = read_json(out, "linearize.json")["result"]
        if res["residual"] > 1e-10 or res["case"] != "bounded":
            raise OracleError(f"linearize: case {res['case']}, residual {res['residual']!r}")
        return {"residual": res["residual"]}

    def classify_check(spec, time_scale=1.0):
        def check(out):
            rep = read_json(out, "classify.json")["report"]
            _check_verdict(rep["verdict"], spec)
            return _sigma_obs(rep["sigma_hat"], spec, scale=time_scale)

        return check

    flow = inp["flow"]

    def transition_job(flow_name, x_t):
        def check(out):
            got = read_json(out, "transition.json")["time"]
            if flow_name == "standard":
                want = -math.log(x_t)
            else:  # x <= c0 and the profile is positive there, so no shift
                want = float(reference_values(flow["f"], np.array([x_t]))[0]) / flow["lambda"]
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                raise OracleError(f"transition time {got!r} at x = {x_t!r}, expected {want!r}")

        argv = ["transition", "--flow", flow_name, "--x", repr(x_t)]
        return cli_job("transition", argv, 1, check)

    def orbit_check(out):
        rows = np.loadtxt(out / "orbit.csv", delimiter=",", skiprows=1)
        leaf = inp["plot_x"]  # gamma1(x) = (x, 1) lies on leaf c = x
        dev = np.abs(rows[:, 1] * rows[:, 2] - leaf) / leaf
        if rows.shape != (201, 3) or float(dev.max()) > 1e-12:
            raise OracleError(f"orbit leaf label drifts by {float(dev.max()):.3g}")

    def svg_check(out):
        if not (out / "plot.svg").read_bytes().startswith(b"<svg"):
            raise OracleError("plot.svg is not an SVG document")

    flow_arg = flow["path"]
    lin = ["linearize", "--builtin", "koenigs_demo", "--homeo", "square", "--lambda", "2"]
    n = DEFAULT_GRID_NODES
    rt1, rt2 = inp["roundtrip"]
    jobs = [
        cli_job("sigma", ["sigma"] + params(inp["sigma"]), n, sigma_check(inp["sigma"])),
        cli_job("sigma", ["sigma", "--csv", inp["csv"]["csv"]], n, sigma_check(inp["csv"])),
        cli_job(
            "sigma",
            ["sigma", "--builtin", "doubling_osc", "--variant", "sharp"],
            n,
            sigma_check(None, "sharp"),
        ),
        cli_job("roundtrip", ["roundtrip"] + params(rt1) + ["--lambda", "1"], n, roundtrip_check),
        cli_job("roundtrip", ["roundtrip"] + params(rt2) + ["--lambda", "2"], n, roundtrip_check),
        cli_job("linearize", lin, n, linearize_check),
        cli_job("classify", ["classify"] + params(inp["classify"]), n, classify_check(inp["classify"])),
        cli_job("classify", ["classify", "--flow", flow_arg], n, classify_check(flow["f"], flow["lambda"])),
        transition_job("standard", inp["transition_x"][0]),
        transition_job(flow_arg, inp["transition_x"][1]),
        cli_job("plot", ["plot", "--flow", flow_arg, "--x", repr(inp["plot_x"])], 201, orbit_check),
        cli_job("plot", ["plot"] + params(inp["plot"]), n, svg_check),
    ]
    # three linearize jobs, the slowest kind, in fourteen put the 90th
    # percentile in the middle of their block, away from other kinds' outliers
    jobs += [cli_job("linearize", lin, n, linearize_check) for _ in range(2)]
    return jobs


def _user_transversal(ctx: Context, inp: dict):
    tv = inp["transversal"]
    return ctx.rf.Transversal(
        tuple(tuple(p) for p in tv["gamma1"]), tuple(tuple(p) for p in tv["gamma2"])
    )


def _extract_user_job(ctx: Context, inp: dict, spec: dict) -> Job:
    rf = ctx.rf
    gc = _grid(ctx, COARSE_GRID)
    xs = np.asarray(inp["transversal"]["check_x"])

    def run():
        F = rf.build_flow(_efunction(ctx, spec))
        tv = _user_transversal(ctx, inp)
        rep = rf.flow_classify(F, tv, gc)
        values = rf.extract_transition(F, gc, tv)(xs)
        return F, tv, rep, values

    def check(out):
        F, tv, rep, values = out
        _check_verdict(rep.verdict, spec)
        # gamma2 lies on {xi = 1}, so the exact time is the default closed
        # form on the leaf that gamma1(x) starts from
        exact = np.array([float(F.transit(tv.point1(float(x)).leaf)) / F.lam for x in xs])
        rel = float(np.max(np.abs(values - exact) / np.maximum(1.0, np.abs(exact))))
        if not rel <= 1e-9:
            raise OracleError(f"user-transversal extraction of {_label(spec)} off by {rel:.3g}")
        return {"user_rel_err": rel}

    return Job("extract-user", gc.node_count + len(xs), run, check)


def _flow_cycle(ctx: Context, inp: dict) -> list[Job]:
    rf = ctx.rf
    g4 = _grid(ctx, FLOW_GRID)
    jobs = [_extract_user_job(ctx, inp, spec) for spec in inp["extract_user"]]

    def orbit_job(item):
        times = np.linspace(-item["t_max"], item["t_max"], ORBIT_SAMPLES)

        def run():
            F = rf.build_flow(_efunction(ctx, item["f"]))
            return ctx.module("flow").orbit_rows(F, rf.QuarterPlanePoint(item["xi"], item["eta"]), times)

        def check(rows):
            arr = np.asarray(rows)
            leaf = item["xi"] * item["eta"]
            dev = float(np.max(np.abs(arr[:, 1] * arr[:, 2] - leaf) / leaf))
            if arr.shape != (ORBIT_SAMPLES, 3) or not np.array_equal(arr[:, 0], times) or dev > 1e-12:
                raise OracleError(f"orbit leaf label drifts by {dev:.3g}")
            return {}

        return Job("orbit", ORBIT_SAMPLES, run, check)

    def flow_classify_job(item):
        spec, lam = item["f"], item["lambda"]

        def run():
            F = rf.build_flow(_efunction(ctx, spec), g=g4)
            return rf.flow_classify(rf.time_scale(F, lam), g=g4)

        def check(rep):
            _check_verdict(rep.verdict, spec)
            return _sigma_obs(rep.sigma.sigma_hat, spec, scale=lam)

        return Job("flow-classify", g4.node_count, run, check)

    def linearize_job(name, hid):
        def run():
            h = rf.gallery_homeo(hid)
            res = rf.koenigs_limit(rf.builtin(name), h, None, rf.LinearizeConfig(2.0, g4))
            with ctx.span("linearize.f_inf_eval"):
                values = res.f_inf(res.probes)
                images = res.f_inf(h(res.probes))
            return res, values, images

        def check(out):
            res, values, images = out
            lhs = 2.0 * values
            scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(images)))
            residual = float(np.max(np.abs(lhs - images) / scale))
            case = "global" if hid == "halve" else "bounded"
            if res.case != case or not residual <= 1e-10:
                raise OracleError(f"linearize {name}/{hid}: case {res.case}, residual {residual:.3g}")
            return {"residual": residual}

        return Job("linearize", g4.node_count, run, check)

    jobs += [orbit_job(item) for item in inp["orbit"]]
    jobs += [flow_classify_job(item) for item in inp["flow_classify"]]
    jobs += [linearize_job(name, hid) for name, hid in inp["linearize"]]
    return jobs


def build_cycle(ctx: Context, inp: dict) -> list[Job]:
    builders = {"sweep-1m": _sweep_cycle, "cli-default": _cli_cycle, "flow-linearize": _flow_cycle}
    return builders[inp["workload"]](ctx, inp)


def defect_probe(ctx: Context, inp: dict) -> dict:
    """Known defect: user-transversal extraction of doubling_osc overflows.

    With user curves equal to the defaults, ``transition_time`` raises
    ``ValueError: time overflow`` at x = 2^-10 and 2^-14 (not at 2^-12),
    and the seeded extract-user job fails on its first such node.  The probe
    runs outside the timed loop; a point that succeeds must be exact, and an
    error other than the overflow is a correctness failure.
    """
    rf = ctx.rf
    spec = _with_oracle({"builtin": "doubling_osc", "params": []})
    g1 = np.exp2(np.linspace(-21.0, 0.0, 64))
    identity = rf.Transversal(
        tuple((float(x), float(x), 1.0) for x in g1),
        tuple(tuple(p) for p in inp["transversal"]["gamma2"]),
    )
    F = rf.build_flow(rf.builtin("doubling_osc"))
    outcomes = []
    for x in DEFECT_PROBE_X:
        try:
            t = rf.transition_time(F, identity, x)
        except ValueError as exc:
            if "overflow" not in str(exc):
                raise OracleError(f"unexpected error at x = {x!r}: {exc}") from exc
            outcomes.append({"x": x, "error": f"ValueError: {exc}"})
            continue
        want = float(F.transit(x))
        if abs(t - want) > 1e-9 * max(1.0, abs(want)):
            raise OracleError(f"doubling_osc user transversal at x = {x!r}: {t!r} != {want!r}")
        outcomes.append({"x": x, "time": t})
    job = _extract_user_job(ctx, inp, spec)
    try:
        job.check(job.run())
        outcomes.append({"job": "extract-user doubling_osc", "ok": True})
    except ValueError as exc:  # DomainError is a ValueError
        if "overflow" not in str(exc):
            raise OracleError(f"unexpected error in extract-user doubling_osc: {exc}") from exc
        outcomes.append({"job": "extract-user doubling_osc", "error": f"{type(exc).__name__}: {exc}"})
    return {"outcomes": outcomes, "failed": sum("error" in o for o in outcomes)}
