"""Command-line surface tying the library together.

Subcommands: sigma, roundtrip, linearize, classify, transition, plot.  Each
takes exactly one input and declares only the flags it reads; a flag that
its input does not read is a usage error.  Outputs are JSON (floats at full
round-trip precision, keys sorted, no timestamps: reruns with the same
configuration are byte-identical), CSV for full profiles, and
dependency-free SVG plots.  Each JSON holds the parsed flags as its ``config``.

Exit codes: 0 success, 1 a numeric acceptance tolerance failed,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import efunc, flow as flowmod, homeo as homeomod, linearize as linmod
from .classify import classify, flow_classify
from .errors import ConvergenceFailure, DomainError, TailCheckError, ToleranceFailure
from .oscillation import _TAIL_WINDOW, sharp_profile, sigma_from_profile, star_profile
from .svgplot import line_plot

__all__ = ["main"]


def _write_json(path: Path, args, spec: dict, g: efunc.GridSpec, body: dict) -> None:
    """Write ``body`` with its ``config``: the input, the grid and every other parsed flag under its dest."""
    flags = {k: v for k, v in vars(args).items() if k not in ("fn", "out", "builtin", "csv", "flow")}
    config = flags | {"input": spec, "grid": g.to_json()}
    path.write_text(json.dumps({"config": config, **body}, indent=2, sort_keys=True) + "\n")


def _unread(flags: dict, owner: str) -> None:
    """Reject every flag in ``flags`` that was given: only an ``owner`` input reads it."""
    for flag, value in flags.items():
        if value is not None:
            raise ValueError(f"{flag} is read only with {owner}")


def _resolve_function(args) -> tuple[efunc.EFunction, dict, efunc.GridSpec]:
    """f from --builtin or --csv, its JSON spec, and --grid fitted to its domain."""
    if args.builtin:
        params = args.param or []
        try:
            f, spec = efunc.builtin(args.builtin, params), {"builtin": args.builtin, "params": params}
        except ValueError as exc:  # the name, or parameters its function does not take
            raise ValueError(f"--{'builtin' if isinstance(exc, efunc.UnknownBuiltin) else 'param'}: {exc}")
    else:
        _unread({"--param": args.param}, "--builtin")
        f, spec = efunc.from_csv(args.csv), {"csv": str(args.csv)}
    return f, spec, efunc.fit_grid(f, args.grid)


def _resolve_flow(args) -> tuple[flowmod.Flow, dict, efunc.GridSpec]:
    spec, g = args.flow, args.grid
    obj = {"kind": "standard"} if spec == "standard" else json.loads(Path(spec).read_text())
    F = flowmod.flow_from_json(obj, g)
    # --lambda composes on top of whatever the config already carries
    if args.lam is not None:
        F = flowmod.time_scale(F, args.lam)
    return F, {"flow": str(spec), "lambda": F.lam}, g


def _check_tail(g: efunc.GridSpec) -> None:
    """Reject a grid shorter than the two windows of octaves that the trend compares."""
    if g.octave_max < 2 * _TAIL_WINDOW:
        raise ValueError(f"--grid gives {g.octave_max} octaves of the input, fewer than the "
                         f"{2 * _TAIL_WINDOW} that sigma_hat and its trend read")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommands -------------------------------------------------------------


def _cmd_sigma(args) -> int:
    f, spec, g = _resolve_function(args)
    if args.variant == "sharp" and f.claimed_class != "E0":
        raise ValueError(f"--variant sharp needs a function of class E0; {f.description} from "
                         f"{'--builtin' if args.builtin else '--csv'} is of class {f.claimed_class}")
    _check_tail(g)
    prof = (star_profile if args.variant == "star" else sharp_profile)(f, g)
    est = sigma_from_profile(prof)
    out = _out_dir(args)
    _write_json(out / "sigma.json", args, spec, g, {"sigma": est.to_json()})
    efunc.write_csv(out / "profile.csv", ["x", "f", "fstar"], [prof.x, prof.f_values, prof.values])
    line_plot(
        out / "sigma_octaves.svg",
        [float(m) for m in range(len(est.s_m))],
        {"s_m": est.s_m},
        title="per-octave oscillation supremum",
        xlabel="octave m",
        ylabel="s_m",
    )
    print(f"sigma_hat = {est.sigma_hat!r}  trend = {est.trend}")
    return 0


def _cmd_roundtrip(args) -> int:
    if not 0 < args.c0 < args.c1 < 1:
        raise ValueError(f"need 0 < --c0 < --c1 < 1, got --c0 {args.c0:g}, --c1 {args.c1:g}")
    f, spec, g = _resolve_function(args)
    x = g.nodes()
    if args.c0 < x[-1]:
        raise ValueError(f"--c0 {args.c0:g} is below the grid's last node {x[-1]:g}: no node x <= c0 to compare")
    tol, lam = args.tol, args.lam
    F = flowmod.build_flow(f, c0=args.c0, c1=args.c1, g=g, source_spec=spec)
    Fs = flowmod.time_scale(F, lam) if lam != 1.0 else F
    extracted = flowmod.extract_transition(Fs, g)
    x = x[x <= args.c0]
    got = np.asarray(extracted(x), dtype=float)
    want = (np.asarray(f(x), dtype=float) + F.shift) / lam
    err = float(np.max(np.abs(got - want)))
    passed = err <= tol
    out = _out_dir(args)
    body = {"flow": flowmod.flow_to_json(Fs), "max_error": err, "tol": tol, "pass": passed, "shift": F.shift}
    _write_json(out / "roundtrip.json", args, spec, g, body)
    efunc.write_csv(out / "roundtrip.csv", ["x", "f_plus_shift_over_lambda", "extracted", "error"],
                    [x, want, got, got - want])
    line_plot(
        out / "roundtrip_overlay.svg",
        x,
        {"prescribed": want, "extracted": got},
        title="prescribed vs extracted transition time",
        xlabel="x",
        ylabel="time",
        logx=True,
        logy=True,
    )
    print(f"round-trip max error = {err!r} ({'pass' if passed else 'FAIL'} at tol {tol:g})")
    return 0 if passed else 1


def _cmd_linearize(args) -> int:
    f, spec, g = _resolve_function(args)
    h = homeomod.gallery_homeo(args.homeo)
    k = efunc.compile_expr(args.shift_expr, "--shift-expr") if args.shift_expr else None
    res = linmod.koenigs_limit(f, h, k, linmod.LinearizeConfig(args.lam, g, tol=args.tol))
    out = _out_dir(args)
    _write_json(out / "linearize.json", args, spec, g, {"result": res.to_json()})
    x = res.probes
    fv = np.asarray(f(x), dtype=float)
    fi = np.asarray(res.f_inf(x), dtype=float)
    efunc.write_csv(out / "linearize.csv", ["x", "f", "f_inf"], [x, fv, fi])
    line_plot(
        out / "linearize_overlay.svg",
        x,
        {"f": fv, "f_inf": fi},
        title="input vs linearized profile",
        xlabel="x",
        ylabel="value",
        logx=True,
    )
    print(
        f"case = {res.case}  iterations = {res.iterations}  residual = {res.residual!r}  "
        f"shift = {res.shift!r}"
    )
    return 0


def _cmd_classify(args) -> int:
    if args.flow:
        _unread({"--param": args.param}, "--builtin")
        F, spec, g = _resolve_flow(args)
    else:
        _unread({"--lambda": args.lam}, "--flow")
        f, spec, g = _resolve_function(args)
    _check_tail(g)
    report = flow_classify(F, g=g) if args.flow else classify(f, g)
    out = _out_dir(args)
    _write_json(out / "classify.json", args, spec, g, {"report": report.to_json()})
    line_plot(
        out / "classify_octaves.svg",
        [float(m) for m in range(len(report.sigma.s_m))],
        {"s_m": report.sigma.s_m},
        title=f"verdict: {report.verdict}",
        xlabel="octave m",
        ylabel="s_m",
    )
    print(f"verdict = {report.verdict}  sigma_hat = {report.sigma.sigma_hat!r}  "
          f"trend = {report.sigma.trend}")
    return 0


def _cmd_transition(args) -> int:
    F, spec, g = _resolve_flow(args)
    t = flowmod.transition_time(F, flowmod.DEFAULT_TRANSVERSAL, args.x)
    out = _out_dir(args)
    _write_json(out / "transition.json", args, spec, g, {"x": args.x, "time": t})
    print(f"transition time at x = {args.x!r}: {t!r}")
    return 0


def _cmd_plot(args) -> int:
    if args.flow:
        _unread({"--param": args.param}, "--builtin")
        F, _, _ = _resolve_flow(args)
        x0 = args.x if args.x is not None else 0.25
        p0 = flowmod.DEFAULT_TRANSVERSAL.point1(x0)
        tmax = args.tmax if args.tmax is not None else 2.0 * abs(math.log(x0))
        times = np.linspace(0.0, tmax, 201)
        rows = flowmod.orbit_rows(F, p0, times)
        out = _out_dir(args)
        efunc.write_csv(out / "orbit.csv", ["t", "xi", "eta"], list(zip(*rows)))
        line_plot(
            out / "plot.svg",
            [r[1] for r in rows],
            {"orbit": [r[2] for r in rows]},
            title=f"orbit through gamma1({x0:g})",
            xlabel="xi",
            ylabel="eta",
        )
        print(f"orbit written ({len(rows)} samples, leaf c = {p0.leaf!r})")
        return 0
    _unread({"--lambda": args.lam, "--x": args.x, "--tmax": args.tmax}, "--flow")
    f, _, g = _resolve_function(args)
    prof = star_profile(f, g)
    out = _out_dir(args)
    line_plot(
        out / "plot.svg",
        prof.x,
        {"f": prof.f_values, "star": prof.values},
        title=f.description,
        xlabel="x",
        ylabel="value",
        logx=True,
        logy=False,
    )
    print(f"profile plot written ({len(prof.x)} nodes)")
    return 0


# -- argument parsing ---------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, function: bool = True, flow: bool = False) -> None:
    source = p.add_mutually_exclusive_group(required=True)  # exactly one input
    if flow:
        source.add_argument("--flow", help="'standard' or path to a flow JSON config")
    if function:
        source.add_argument("--builtin", help="gallery function name")
        source.add_argument("--csv", help="CSV file with header x,f and decreasing x")
        p.add_argument("--param", action="append", type=float, help="builtin parameter (repeatable)")
    p.add_argument("--grid", type=_grid, help="grid as 'K,m_max' (default %(default)s)",
                   default="{0.samples_per_octave},{0.octave_max}".format(efunc.GridSpec()))
    p.add_argument("--out", default=".", help="output directory (default %(default)s)")


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _grid(text: str) -> efunc.GridSpec:
    try:
        K, m_max = (int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'K,m_max' as two integers, e.g. 512,40, got {text!r}"
        ) from None
    try:
        return efunc.GridSpec(samples_per_octave=K, octave_max=m_max)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="reebflow",
        description="transition-time invariants of flows with hyperbola orbit foliation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", help="oscillation profile and sigma estimate")
    _add_common(p)
    p.add_argument("--variant", choices=("star", "sharp"), default="star",
                   help="profile referenced to x = 1, or to +oo for class E0 (default %(default)s)")
    p.set_defaults(fn=_cmd_sigma)

    p = sub.add_parser("roundtrip", help="realize f as a flow, extract it back, compare")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=_positive, default=1.0, help="time scale (default %(default)g)")
    p.add_argument("--tol", type=_positive, default=1e-9, help="max absolute error (default %(default)g)")
    p.add_argument("--c0", type=float, default=flowmod._C0,
                   help="the flow carries f on leaves c <= c0, compared there (default %(default)g)")
    p.add_argument("--c1", type=float, default=flowmod._C1,
                   help="the flow is standard on leaves c > c1 (default %(default)g)")
    p.set_defaults(fn=_cmd_roundtrip)

    p = sub.add_parser("linearize", help="solve lam*f = f o h + k for the exact profile")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=_positive, required=True, help="scale L > 1")
    p.add_argument("--homeo", required=True, help="halve | square | root_scale:N | pow:p | expression")
    p.add_argument("--shift-expr", help="k as an expression in x (default: derived)")
    p.add_argument("--tol", type=_positive, default=linmod.LinearizeConfig.tol,
                   help="residual tolerance (default %(default)g)")
    p.set_defaults(fn=_cmd_linearize)

    p = sub.add_parser("classify", help="standard / nonstandard / inconclusive verdict")
    _add_common(p, flow=True)
    p.add_argument("--lambda", dest="lam", type=_positive, help="time scale of the --flow input")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("transition", help="transition time of a flow at one parameter")
    _add_common(p, function=False, flow=True)
    p.add_argument("--lambda", dest="lam", type=_positive, help="time scale of the flow")
    p.add_argument("--x", type=_positive, required=True, help="transversal parameter > 0")
    p.set_defaults(fn=_cmd_transition)

    p = sub.add_parser("plot", help="profile plot for a function, orbit plot for a flow")
    _add_common(p, flow=True)
    p.add_argument("--lambda", dest="lam", type=_positive, help="time scale of the --flow input")
    p.add_argument("--x", type=_positive, help="orbit start parameter > 0 (flow input)")
    p.add_argument("--tmax", type=_positive, help="orbit time horizon > 0 (flow input)")
    p.set_defaults(fn=_cmd_plot)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except (ToleranceFailure, ConvergenceFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, DomainError, TailCheckError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # every array the commands allocate scales with the grid
        g = args.grid
        print(f"error: --grid {g.samples_per_octave},{g.octave_max} needs {g.node_count} nodes, "
              "more than can be allocated", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
