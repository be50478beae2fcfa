import argparse
import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from reebflow import efunc
from reebflow import flow as flowmod
from reebflow import homeo as homeomod
from reebflow import linearize as linmod
from reebflow.cli import build_parser, main

QUICK = "128,24"  # small grid keeps the CLI suite fast


def run(*argv):
    return main(list(argv))


def load(path):
    return json.loads(path.read_text())


BAD_LAMBDAS = ["0", "-2", "nan", "inf"]
BAD_POSITIVES = ["nan", "inf", "0", "-1"]


def assert_usage_error(capsys, tmp_path, message, *argv):
    out = tmp_path / "o"
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert message in err.strip().splitlines()[-1] and "Traceback" not in err
    assert not out.exists()


def assert_lambda_rejected(capsys, tmp_path, *argv):
    assert_usage_error(capsys, tmp_path, "--lambda", *argv)


def assert_positive_rejected(capsys, tmp_path, flag, *argv):
    assert_usage_error(capsys, tmp_path, f"argument {flag}: expected a positive finite number", *argv)


class TestSigmaCommand:
    def test_builtin_flat(self, tmp_path):
        out = tmp_path / "o"
        assert run("sigma", "--builtin", "std_log", "--grid", QUICK, "--out", str(out)) == 0
        obj = load(out / "sigma.json")
        assert obj["sigma"]["sigma_hat"] == 0.0
        assert obj["sigma"]["trend"] == "vanishing"
        assert (out / "profile.csv").read_text().splitlines()[0] == "x,f,fstar"
        assert (out / "sigma_octaves.svg").read_text().startswith("<svg")

    def test_builtin_with_param(self, tmp_path):
        out = tmp_path / "o"
        assert run("sigma", "--builtin", "bounded_osc", "--param", "2", "--out", str(out)) == 0
        obj = load(out / "sigma.json")
        assert obj["sigma"]["sigma_hat"] == pytest.approx(1.3697065127445591, abs=1e-3)

    def test_csv_monotone_data(self, tmp_path):
        data = tmp_path / "data.csv"
        x = np.exp2(-np.linspace(0.0, 20.0, 2001))
        data.write_text("x,f\n" + "\n".join(f"{float(v)!r},{-math.log(v)!r}" for v in x) + "\n")
        out = tmp_path / "o"
        assert run("sigma", "--csv", str(data), "--out", str(out)) == 0
        assert load(out / "sigma.json")["sigma"]["sigma_hat"] < 1e-3

    def test_sharp_variant(self, tmp_path):
        out = tmp_path / "o"
        assert (
            run("sigma", "--builtin", "doubling_osc", "--variant", "sharp", "--grid", QUICK,
                "--out", str(out)) == 0
        )
        assert load(out / "sigma.json")["sigma"]["variant"] == "sharp"

    @pytest.mark.parametrize("params", [["std_log", "--param", "2"], ["bounded_osc", "--param", "2", "--param", "3"]])
    def test_params_the_builtin_does_not_take_are_usage_error(self, capsys, tmp_path, params):
        # regression: exited 0, with the unused values echoed in the JSON
        assert_usage_error(capsys, tmp_path, "--param: too many parameters for", "sigma", "--builtin", *params)

    def test_sharp_of_a_class_e_builtin_names_the_flags(self, capsys, tmp_path):
        # regression: "sharp profile requires a function with claimed_class E0" named no flag
        assert_usage_error(capsys, tmp_path, "--variant sharp needs a function of class E0; std_log from --builtin",
                           "sigma", "--builtin", "std_log", "--variant", "sharp")

    def test_unknown_builtin_is_usage_error(self, capsys, tmp_path):
        assert_usage_error(capsys, tmp_path, "--builtin: unknown builtin 'nope'", "sigma", "--builtin", "nope")

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run("sigma", "--out", str(tmp_path)) == 2

    def test_bad_csv_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,f\n-1,0\n")
        assert run("sigma", "--csv", str(bad), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_csv_is_usage_error(self, capsys, tmp_path, bad):
        data = tmp_path / "bad.csv"
        data.write_text(f"x,f\n1.0,0.0\n{bad},1.0\n0.25,2.0\n")
        assert run("sigma", "--csv", str(data), "--out", str(tmp_path / "o")) == 2
        assert "bad.csv:3: non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1.0,0.0\n0.5\n0.25,2.0\n", "data.csv:3: need two columns"),
            ("0.5,0.0\n0.25,1.0\n", "sampled data must reach x = 1 to anchor the grid"),
            ("1.0,0.0\n0.75,1.0\n0.6,2.0\n", "sampled data spans less than one octave below 1"),
        ],
        ids=["one-column", "below-1", "under-an-octave"],
    )
    def test_csv_rejections_name_the_row_or_the_span(self, capsys, tmp_path, rows, message):
        data = tmp_path / "data.csv"
        data.write_text("x,f\n" + rows)
        assert_usage_error(capsys, tmp_path, message, "sigma", "--csv", str(data))

    def test_a_csv_error_names_the_line_past_blank_lines(self, capsys, tmp_path):
        # regression: reported as data.csv:3, the row's place among the non-blank rows
        data = tmp_path / "data.csv"
        data.write_text("x,f\n1.0,0.0\n\n\n0.5,abc\n")
        assert_usage_error(capsys, tmp_path, "data.csv:5: malformed row ['0.5', 'abc']", "sigma", "--csv", str(data))

    def test_bad_grid_is_usage_error(self, capsys, tmp_path):
        # regression: "abc,40" was reported as "invalid literal for int()"
        out = tmp_path / "o"
        for grid in ["512", "abc,40", "512,99"]:
            assert run("sigma", "--builtin", "std_log", "--grid", grid, "--out", str(out)) == 2
            assert "argument --grid: " in capsys.readouterr().err
            assert not out.exists()

    def test_bad_param_is_usage_error(self, capsys, tmp_path):
        # regression: reported as "could not convert string to float"
        out = tmp_path / "o"
        assert run("sigma", "--builtin", "bounded_osc", "--param", "two", "--out", str(out)) == 2
        assert "argument --param: invalid float value: 'two'" in capsys.readouterr().err
        assert not out.exists()


class TestRoundtripCommand:
    def test_doubling_passes(self, tmp_path):
        out = tmp_path / "o"
        assert run("roundtrip", "--builtin", "doubling_osc", "--out", str(out)) == 0
        obj = load(out / "roundtrip.json")
        assert obj["pass"] is True
        assert obj["max_error"] <= 1e-9
        assert (out / "roundtrip_overlay.svg").exists()

    def test_scaled_comparison(self, tmp_path):
        out = tmp_path / "o"
        assert (
            run("roundtrip", "--builtin", "doubling_osc", "--lambda", "2", "--grid", QUICK,
                "--out", str(out)) == 0
        )
        obj = load(out / "roundtrip.json")
        assert obj["flow"]["kind"] == "time_scaled"
        assert obj["max_error"] <= 1e-9

    def test_csv_error_column_matches_max_error(self, tmp_path):
        out = tmp_path / "o"
        assert run("roundtrip", "--builtin", "doubling_osc", "--lambda", "2", "--grid", QUICK,
                   "--out", str(out)) == 0
        lines = (out / "roundtrip.csv").read_text().splitlines()
        assert lines[0] == "x,f_plus_shift_over_lambda,extracted,error"
        rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
        assert all(r[3] == r[2] - r[1] for r in rows)
        assert max(abs(r[3]) for r in rows) == load(out / "roundtrip.json")["max_error"]

    @pytest.mark.parametrize("extra", [[], ["--lambda", "2"], ["--c0", "0.1"]])
    def test_csv_equals_a_cell_by_cell_writer(self, tmp_path, reference_csv, extra):
        # extracted is bitwise equal to f_plus_shift_over_lambda, so the writer reuses its text
        argv = ["roundtrip", "--builtin", "koenigs_demo", "--grid", "512,24", *extra]
        assert run(*argv, "--out", str(tmp_path)) == 0
        args = build_parser().parse_args(argv)
        f, g = efunc.builtin("koenigs_demo"), args.grid
        F = flowmod.build_flow(f, c0=args.c0, c1=args.c1, g=g)
        Fs = flowmod.time_scale(F, args.lam) if args.lam != 1.0 else F
        x = g.nodes()[g.nodes() <= args.c0]
        want = (np.asarray(f(x)) + F.shift) / args.lam
        got = np.asarray(flowmod.extract_transition(Fs, g)(x))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        header = ["x", "f_plus_shift_over_lambda", "extracted", "error"]
        assert (tmp_path / "roundtrip.csv").read_bytes() == reference_csv(header, [x, want, got, got - want])

    def test_c0_below_the_last_node_is_usage_error(self, capsys, tmp_path):
        # regression: numpy's "zero-size array to reduction operation maximum"
        out = tmp_path / "o"
        assert run("roundtrip", "--builtin", "std_log", "--c0", "1e-20", "--grid", "64,20", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "--c0 1e-20 is below the grid's last node 9.53674e-07" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "c0, c1", [("0.6", "0.5"), ("0.5", "0.5"), ("0", "0.5"), ("-0.1", "0.5"), ("0.25", "1"), ("nan", "0.5")]
    )
    def test_window_outside_the_unit_interval_is_usage_error(self, capsys, tmp_path, c0, c1):
        # regression: build_flow's "need 0 < c0 < c1 < 1, got c0=0.6, c1=0.5" named no flag
        message = f"need 0 < --c0 < --c1 < 1, got --c0 {float(c0):g}, --c1 {float(c1):g}"
        assert_usage_error(capsys, tmp_path, message, "roundtrip", "--builtin", "std_log", "--c0", c0, "--c1", c1)

    @pytest.mark.parametrize("lam", BAD_LAMBDAS)
    def test_bad_lambda_is_usage_error(self, capsys, tmp_path, lam):
        # regression: --lambda 0 was read as 1 and recorded as "lambda": 1.0
        assert_lambda_rejected(capsys, tmp_path, "roundtrip", "--builtin", "std_log", "--lambda", lam)

    @pytest.mark.parametrize("tol", BAD_POSITIVES)
    def test_bad_tol_is_usage_error(self, capsys, tmp_path, tol):
        # regression: --tol -1 and nan wrote the artifacts and exited 1 with "FAIL at tol"
        assert_positive_rejected(capsys, tmp_path, "--tol", "roundtrip", "--builtin", "std_log",
                                 "--tol", tol)


class TestLinearizeCommand:
    def test_derived_shift(self, tmp_path):
        out = tmp_path / "o"
        assert (
            run("linearize", "--builtin", "koenigs_demo", "--homeo", "square", "--lambda", "2",
                "--out", str(out)) == 0
        )
        obj = load(out / "linearize.json")
        assert obj["result"]["case"] == "bounded"
        assert obj["result"]["residual"] <= 1e-10
        assert (out / "linearize.csv").exists()

    def test_explicit_shift(self, tmp_path):
        out = tmp_path / "o"
        assert (
            run("linearize", "--builtin", "koenigs_demo", "--homeo", "square", "--lambda", "2",
                "--shift-expr", "2*x/(1+x) - x**2/(1+x**2)", "--out", str(out)) == 0
        )

    @pytest.mark.parametrize("shift_expr", [None, "2*x/(1+x) - x**2/(1+x**2)"])
    def test_csv_columns_are_x_f_and_f_inf(self, tmp_path, shift_expr):
        extra = ["--shift-expr", shift_expr] if shift_expr else []
        argv = ["linearize", "--builtin", "koenigs_demo", "--homeo", "square", "--lambda", "2", "--grid", QUICK, *extra]
        assert run(*argv, "--out", str(tmp_path)) == 0
        f, h = efunc.builtin("koenigs_demo"), homeomod.gallery_homeo("square")
        k = efunc.compile_expr(shift_expr, "--shift-expr") if shift_expr else None
        res = linmod.koenigs_limit(f, h, k, linmod.LinearizeConfig(2.0, build_parser().parse_args(argv).grid))
        lines = (tmp_path / "linearize.csv").read_text().splitlines()
        assert lines[0] == "x,f,f_inf"
        cols = np.array([[float(c) for c in line.split(",")] for line in lines[1:]]).T
        for got, want in zip(cols, (res.probes, f(res.probes), res.f_inf(res.probes)), strict=True):
            np.testing.assert_array_equal(got.view(np.int64), np.asarray(want, dtype=float).view(np.int64))

    def test_shift_expr_is_echoed(self, tmp_path):
        # regression: the config did not record --shift-expr, so two shifts wrote one config
        configs = []
        for expr in ("2*x/(1+x) - x**2/(1+x**2)", "2*x/(x+1) - x**2/(x**2+1)"):
            out = tmp_path / str(len(configs))
            assert run("linearize", "--builtin", "koenigs_demo", "--homeo", "square", "--lambda", "2",
                       "--shift-expr", expr, "--grid", QUICK, "--out", str(out)) == 0
            configs.append(load(out / "linearize.json")["config"])
            assert configs[-1]["shift_expr"] == expr
        assert configs[0] != configs[1]

    def test_tolerance_failure_exits_one(self, tmp_path):
        # good enough for the witness gate, too lax for the residual gate
        code = run(
            "linearize", "--builtin", "koenigs_demo", "--homeo", "square", "--lambda", "2",
            "--shift-expr", "2*x/(1+x) - x**2/(1+x**2) + 5e-10*cos(x)", "--out", str(tmp_path),
        )
        assert code == 1

    def test_invalid_relation_exits_two(self, tmp_path):
        code = run(
            "linearize", "--builtin", "std_log", "--homeo", "halve", "--lambda", "2",
            "--out", str(tmp_path),
        )
        assert code == 2

    @pytest.mark.parametrize("name,hid,lam", [("doubling_osc", "root_scale:2", "2"), ("koenigs_demo", "square", "4")])
    def test_divergent_derived_shift_exits_two(self, capsys, tmp_path, name, hid, lam):
        code = run("linearize", "--builtin", name, "--homeo", hid, "--lambda", lam, "--out", str(tmp_path))
        assert code == 2
        assert "does not settle toward 0" in capsys.readouterr().err

    def test_a_one_node_octave_reaches_the_settle_test(self, capsys, tmp_path):
        # regression: the basin read h at 2 and 4, past the grid's two nodes, and said 0 repels
        assert_usage_error(capsys, tmp_path, "the grid has octave_max 1, the minimum is 2", "linearize",
                           "--builtin", "std_log", "--homeo", "square", "--lambda", "2", "--grid", "1,1")

    def test_grid_too_short_to_test_settling_exits_two(self, capsys, tmp_path):
        # regression: a derived shift on one octave failed with numpy's
        # "zero-size array to reduction operation maximum"
        argv = ["linearize", "--builtin", "koenigs_demo", "--homeo", "square", "--lambda", "2", "--grid", "512,1"]
        out = tmp_path / "o"
        assert run(*argv, "--out", str(out)) == 2
        assert "the grid has octave_max 1, the minimum is 2" in capsys.readouterr().err
        assert not out.exists()
        # an explicit shift is not tested for settling
        assert run(*argv, "--shift-expr", "2*x/(1+x) - x**2/(1+x**2)", "--out", str(out)) == 0

    @pytest.mark.parametrize("tol", BAD_POSITIVES)
    def test_bad_tol_is_usage_error(self, capsys, tmp_path, tol):
        assert_positive_rejected(capsys, tmp_path, "--tol", "linearize", "--builtin", "koenigs_demo",
                                 "--homeo", "square", "--lambda", "2", "--tol", tol)

    def test_missing_homeo_is_usage_error(self, tmp_path):
        assert run("linearize", "--builtin", "std_log", "--lambda", "2", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("hid", ["pow:abc", "root_scale:x", "root_scale:1.5"])
    def test_malformed_gallery_homeo_is_named(self, capsys, tmp_path, hid):
        out = tmp_path / "o"
        assert run("linearize", "--builtin", "koenigs_demo", "--homeo", hid, "--lambda", "2", "--out", str(out)) == 2
        assert f"homeo '{hid}': " in capsys.readouterr().err
        assert not out.exists()

    def test_repelling_homeo_is_usage_error(self, capsys, tmp_path):
        # regression: reported as a derived shift that does not settle toward 0
        code = run("linearize", "--builtin", "koenigs_demo", "--homeo", "sqrt(x)", "--lambda", "2",
                   "--grid", QUICK, "--out", str(tmp_path))
        assert code == 2
        assert "0 repels under h" in capsys.readouterr().err

    def test_malformed_homeo_expression_is_usage_error(self, capsys, tmp_path):
        code = run(
            "linearize", "--builtin", "koenigs_demo", "--homeo", "x**(", "--lambda", "2",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "'x**('" in capsys.readouterr().err

    def test_unknown_name_in_shift_expression_is_usage_error(self, capsys, tmp_path):
        code = run(
            "linearize", "--builtin", "koenigs_demo", "--homeo", "square", "--lambda", "2",
            "--shift-expr", "foo(x)", "--out", str(tmp_path),
        )
        assert code == 2
        assert "foo" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, expr, what, how",
        [
            ("--homeo", "[v for v in x]", "homeo", "is not valid"),
            ("--homeo", "x[0]", "homeo", "is not valid"),
            ("--homeo", "maximum(x, 0, x)", "homeo", "is not valid"),
            ("--shift-expr", "x.real", "--shift-expr", "is not valid"),
            ("--shift-expr", "1/0", "--shift-expr", "failed"),
        ],
    )
    def test_expression_failing_at_evaluation_is_usage_error(self, capsys, tmp_path, flag, expr, what, how):
        # regression: TypeError, IndexError and ZeroDivisionError tracebacks, exit 1; a construct outside
        # the grammar is rejected when compiled, and a part without x is evaluated then
        argv = ["linearize", "--builtin", "koenigs_demo", "--lambda", "2", flag, expr]
        if flag != "--homeo":
            argv += ["--homeo", "square"]
        assert run(*argv, "--out", str(tmp_path)) == 2
        assert f"{what} expression {expr!r} {how}" in capsys.readouterr().err


class TestClassifyCommand:
    def test_builtin(self, tmp_path):
        out = tmp_path / "o"
        assert run("classify", "--builtin", "doubling_osc", "--out", str(out)) == 0
        assert load(out / "classify.json")["report"]["verdict"] == "nonstandard"

    def test_csv_of_a_slowed_oscillation_is_not_standard(self, capsys, tmp_path):
        # regression: bounded_osc(2) at x**0.25 over the (512, 40) nodes printed
        # "verdict = standard  sigma_hat = 0.0" and exited 0
        x = efunc.GridSpec().nodes()
        u = -np.log(x**0.25)
        data = tmp_path / "data.csv"
        data.write_text("x,f\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), (u + 2 * np.sin(u)).tolist())))
        out = tmp_path / "o"
        assert run("classify", "--csv", str(data), "--out", str(out)) == 0
        assert capsys.readouterr().out.startswith("verdict = inconclusive  sigma_hat = 1.3697")
        report = load(out / "classify.json")["report"]
        assert report["sigma_hat"] == max(report["s_m"][20:]) and max(report["s_m"][-8:]) < report["tau_std"]
        assert any(w.startswith("sigma_hat = 1.36971, set at octave ") for w in report["warnings"])

    def test_overflowing_profile_is_usage_error(self, capsys, tmp_path):
        # regression: exited 0 after a RuntimeWarning, with Infinity in
        # classify.json and the trend "vanishing" beside sigma_hat = inf
        assert_usage_error(capsys, tmp_path, "error: the star profile overflows at octave 5: max(f) - f there "
                           "exceeds the largest double", "classify", "--builtin", "bounded_osc", "--param", "1e308")

    def test_unallocatable_grid_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # regression: numpy's _ArrayMemoryError traceback, exit 1; the builder of
        # the pass's nodes fails as an allocation of 1e11 doubles would, without making it
        asked = []

        def nodes(K, m_max):
            asked.append((K, m_max))
            raise MemoryError

        monkeypatch.setattr(efunc, "_Nodes", nodes)
        out = tmp_path / "o"
        assert run("classify", "--builtin", "std_log", "--grid", "100000000000,60", "--out", str(out)) == 2
        assert asked == [(100000000000, 60)]
        assert "--grid 100000000000,60 needs 6000000000001 nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_standard_flow(self, tmp_path):
        out = tmp_path / "o"
        assert run("classify", "--flow", "standard", "--out", str(out)) == 0
        assert load(out / "classify.json")["report"]["verdict"] == "standard"

    @pytest.mark.parametrize("argv", [("--builtin", "std_log"), ("--flow", "standard")], ids=["builtin", "flow"])
    def test_report_holds_the_fixed_thresholds(self, tmp_path, argv):
        # the thresholds are constants that no flag sets; the report still
        # writes them, and holds no witnesses, which classify never checks
        out = tmp_path / "o"
        assert run("classify", *argv, "--grid", QUICK, "--out", str(out)) == 0
        obj = load(out / "classify.json")
        assert (obj["report"]["tau_std"], obj["report"]["tau_ns"]) == (0.001, 0.1)
        assert "witnesses" not in obj["report"] and not {"tau_std", "tau_ns"} & set(obj["config"])

    def test_flow_json(self, tmp_path):
        cfgp = tmp_path / "flow.json"
        cfgp.write_text(json.dumps({
            "kind": "realized", "c0": 0.25, "c1": 0.5, "lambda": 2.0,
            "f": {"builtin": "bounded_osc", "params": [2.0]},
        }))
        out = tmp_path / "o"
        assert run("classify", "--flow", str(cfgp), "--out", str(out)) == 0
        rep = load(out / "classify.json")["report"]
        assert rep["verdict"] == "nonstandard"
        assert rep["provenance"] == "extracted-from-flow"
        assert rep["shifts"]["time_factor"] == 2.0

    def test_malformed_flow_json(self, tmp_path):
        cfgp = tmp_path / "flow.json"
        cfgp.write_text("{not json")
        assert run("classify", "--flow", str(cfgp), "--out", str(tmp_path)) == 2

    def test_unknown_flow_kind_is_usage_error(self, capsys, tmp_path):
        # regression: a "bogus" kind was classified as a realized flow, exit 0;
        # a non-object config or a value of the wrong type exited 1 with a
        # traceback, and "lambda": true was read as 1.0; a "shift" other than
        # the derived lift loaded with the lift
        std = {"builtin": "std_log"}
        cases = [
            ({"kind": "bogus", "f": std}, "unknown flow kind 'bogus'"),
            ([1, 2], "flow config must be a JSON object"),
            ("standard", "flow config must be a JSON object"),
            ({"kind": "realized", "f": {"builtin": "bounded_osc", "params": 5}}, "'params'"),
            ({"kind": "realized", "f": {"csv": 5}}, "'csv'"),
            ({"kind": "realized", "f": std, "c0": None}, "'c0'"),
            ({"kind": "time_scaled", "lambda": True}, "'lambda'"),
            ({"kind": "standard", "c0": 0.3}, "unknown key 'c0'"),
            ({"kind": "realized", "f": std, "shift": 5.0}, "'shift' 5.0 is not the lift 0.0"),
            ({"kind": "realized", "f": std, "shift": "abc"}, "'shift' 'abc' is not the lift 0.0"),
        ]
        cfgp = tmp_path / "flow.json"
        out = tmp_path / "o"
        for obj, message in cases:
            cfgp.write_text(json.dumps(obj))
            assert run("classify", "--flow", str(cfgp), "--out", str(out)) == 2
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "key, value", [("lambda", 10**400), ("c0", -(10**400)), ("c1", 10**400), ("shift", 10**400)],
        ids=["lambda", "c0", "c1", "shift"])
    def test_an_integer_no_double_holds_is_usage_error(self, capsys, tmp_path, key, value):
        # regression: OverflowError from float() escaped main with a traceback, exit 1
        cfgp = tmp_path / "flow.json"
        cfgp.write_text(json.dumps({"kind": "realized", "f": {"builtin": "std_log"}, key: value}))
        assert_usage_error(capsys, tmp_path, f"flow config {key!r}", "classify", "--flow", str(cfgp))
        cfgp.write_text(json.dumps({"kind": "realized", "f": {"builtin": "bounded_osc", "params": [value]}}))
        assert_usage_error(capsys, tmp_path, "flow source 'params': ", "classify", "--flow", str(cfgp))

    @pytest.mark.parametrize(
        "source, message",
        [
            ({"builtin": "std_log", "params": [2]}, "flow source 'params': too many parameters for std_log"),
            ({"builtin": "nope"}, "flow source 'builtin': unknown builtin 'nope'"),
            ({"builtin": "bounded_osc", "params": [math.nan]}, "flow source 'params': bounded_osc amplitude must be"),
        ],
        ids=["params", "builtin", "nan-param"],
    )
    def test_flow_builtin_errors_name_the_key(self, capsys, tmp_path, source, message):
        # regression: exit 2 with the builtin's own message, naming no key
        cfgp = tmp_path / "flow.json"
        cfgp.write_text(json.dumps({"kind": "realized", "f": source}))
        assert_usage_error(capsys, tmp_path, message, "classify", "--flow", str(cfgp))

    @pytest.mark.parametrize("lam", BAD_LAMBDAS)
    def test_bad_lambda_is_usage_error(self, capsys, tmp_path, lam):
        assert_lambda_rejected(capsys, tmp_path, "classify", "--flow", "standard", "--lambda", lam)

    @pytest.mark.parametrize("flag, value", [("--tau-std", "0.5"), ("--tau-ns", "0.2")])
    def test_threshold_flags_are_not_taken(self, capsys, tmp_path, flag, value):
        # the verdict thresholds are constants: no flag sets them
        assert_usage_error(capsys, tmp_path, f"unrecognized arguments: {flag} {value}",
                           "classify", "--builtin", "std_log", flag, value)

    @pytest.mark.parametrize(
        "argv",
        [("sigma", "--builtin", "std_log"), ("sigma", "--builtin", "doubling_osc", "--variant", "sharp"),
         ("classify", "--builtin", "std_log"), ("classify", "--flow", "standard")],
        ids=["sigma", "sigma-sharp", "classify", "classify-flow"],
    )
    @pytest.mark.parametrize("octaves", ["10", "15"])
    def test_grid_shorter_than_two_tail_windows_is_usage_error(self, capsys, tmp_path, argv, octaves):
        # regression: "need at least 16 octaves for a tail window of 8, have 10" named no flag,
        # and sigma measured its minimum against a flag of its own
        assert_usage_error(
            capsys, tmp_path,
            f"--grid gives {octaves} octaves of the input, fewer than the 16 that sigma_hat and its trend read",
            *argv, "--grid", f"512,{octaves}",
        )


class TestTransitionCommand:
    def test_standard_value(self, tmp_path):
        out = tmp_path / "o"
        assert run("transition", "--flow", "standard", "--x", "0.1353352832366127",
                   "--out", str(out)) == 0
        assert load(out / "transition.json")["time"] == pytest.approx(2.0, abs=1e-10)

    def test_missing_x(self, tmp_path):
        assert run("transition", "--flow", "standard", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("lam", BAD_LAMBDAS)
    def test_bad_lambda_is_usage_error(self, capsys, tmp_path, lam):
        assert_lambda_rejected(
            capsys, tmp_path, "transition", "--flow", "standard", "--x", "0.5", "--lambda", lam
        )

    @pytest.mark.parametrize("x", BAD_POSITIVES)
    def test_bad_x_is_usage_error(self, capsys, tmp_path, x):
        # regression: nan and inf exited 0 and wrote NaN / -Infinity into transition.json
        out = tmp_path / "o"
        assert run("transition", "--flow", "standard", "--x", x, "--out", str(out)) == 2
        assert "argument --x: expected a positive finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lam", ["NaN", "Infinity"])
    def test_nonfinite_flow_lambda_is_usage_error(self, capsys, tmp_path, lam):
        # regression: NaN printed a NaN time and wrote it into transition.json, exit 0
        cfgp = tmp_path / "flow.json"
        cfgp.write_text(f'{{"kind": "time_scaled", "lambda": {lam}}}')
        out = tmp_path / "o"
        assert run("transition", "--flow", str(cfgp), "--x", "0.5", "--out", str(out)) == 2
        assert "lambda must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_off_grid_dip_is_usage_error(self, capsys, spike_flow, tmp_path):
        # regression: printed a negative time and exited 0
        path, _ = spike_flow
        out = tmp_path / "o"
        assert run("transition", "--flow", str(path), "--grid", "512,12", "--x", "0.30005",
                   "--out", str(out)) == 2
        assert "not positive at leaf c = 0.30005" in capsys.readouterr().err
        assert not (out / "transition.json").exists()


class TestPlotCommand:
    def test_function_profile(self, tmp_path):
        out = tmp_path / "o"
        assert run("plot", "--builtin", "bounded_osc", "--param", "2", "--grid", QUICK,
                   "--out", str(out)) == 0
        assert (out / "plot.svg").exists()

    def test_flow_orbit(self, tmp_path):
        cfgp = tmp_path / "flow.json"
        cfgp.write_text(json.dumps({
            "kind": "realized", "f": {"builtin": "doubling_osc", "params": []},
        }))
        out = tmp_path / "o"
        assert run("plot", "--flow", str(cfgp), "--x", "0.125", "--out", str(out)) == 0
        assert (out / "orbit.csv").read_text().splitlines()[0] == "t,xi,eta"
        assert (out / "plot.svg").exists()

    def test_an_orbit_at_one_far_point_is_plotted(self, tmp_path):
        # regression: every point at xi = 1e300, where the widening x_lo + 1.0 rounds to x_lo, and
        # line_plot divided by the zero width of the range
        out = tmp_path / "o"
        assert run("plot", "--flow", "standard", "--lambda", "1e-300", "--x", "1e300", "--tmax", "1",
                   "--out", str(out)) == 0
        assert "nan" not in (out / "plot.svg").read_text()

    @pytest.mark.parametrize("flag", ["--x", "--tmax"])
    @pytest.mark.parametrize("value", BAD_POSITIVES)
    def test_bad_orbit_parameter_is_usage_error(self, capsys, tmp_path, flag, value):
        out = tmp_path / "o"
        assert run("plot", "--flow", "standard", flag, value, "--out", str(out)) == 2
        assert f"argument {flag}: expected a positive finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_off_grid_dip_is_usage_error(self, capsys, spike_flow, tmp_path):
        # regression: a RuntimeError traceback with exit 1
        path, _ = spike_flow
        assert run("plot", "--flow", str(path), "--grid", "512,12", "--x", "0.30005",
                   "--out", str(tmp_path / "o")) == 2
        assert "not positive at leaf c = 0.30005" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestSvgOutputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sigma", "--builtin", "bounded_osc", "--param", "2", "--grid", QUICK),
            ("roundtrip", "--builtin", "doubling_osc", "--lambda", "2", "--grid", QUICK),
            ("linearize", "--builtin", "koenigs_demo", "--homeo", "square", "--lambda", "2"),
            ("classify", "--builtin", "doubling_osc", "--grid", QUICK),
            ("plot", "--builtin", "bounded_osc", "--grid", QUICK),
            ("plot", "--flow", "standard", "--x", "0.125"),
        ],
    )
    def test_every_svg_parses(self, tmp_path, argv):
        out = tmp_path / "o"
        assert run(*argv, "--out", str(out)) == 0
        svgs = sorted(out.glob("*.svg"))
        assert svgs
        for path in svgs:
            root = ET.parse(path).getroot()
            assert root.tag == "{http://www.w3.org/2000/svg}svg", path.name
            for line in root.iter("{http://www.w3.org/2000/svg}polyline"):
                assert all(len(p.split(",")) == 2 for p in line.get("points").split())


    def test_csv_name_with_markup_is_escaped(self, tmp_path):
        # regression: plot.svg titled "csv:a&b.csv" was not well-formed XML
        data = tmp_path / "a&b <1>.csv"
        x = np.exp2(-np.arange(0, 8 * 20 + 1) / 8)
        data.write_text("x,f\n" + "".join(f"{v!r},{-math.log(v)!r}\n" for v in x.tolist()))
        out = tmp_path / "o"
        assert run("plot", "--csv", str(data), "--out", str(out)) == 0
        title = ET.parse(out / "plot.svg").getroot().find("{http://www.w3.org/2000/svg}text")
        assert title.text == f"csv:{data}"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sigma", "--builtin", "bounded_osc", "--param", "2", "--grid", QUICK),
            ("classify", "--builtin", "doubling_osc", "--grid", QUICK),
            ("roundtrip", "--builtin", "doubling_osc", "--grid", QUICK),
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, argv):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(*argv, "--out", str(a)) == 0
        assert run(*argv, "--out", str(b)) == 0
        for pa in sorted(a.iterdir()):
            pb = b / pa.name
            assert pa.read_bytes() == pb.read_bytes(), pa.name


# a flow whose window is not the default (0.25, 0.5)
WINDOW_FLOW = {"kind": "realized", "c0": 0.3, "c1": 0.6, "f": {"builtin": "std_log"}}


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """Run in tmp_path, which holds data.csv (-ln x, 8 nodes per octave over 20 octaves) and flow.json."""
    monkeypatch.chdir(tmp_path)
    x = np.exp2(-np.arange(0, 8 * 20 + 1) / 8).tolist()
    (tmp_path / "data.csv").write_text("x,f\n" + "".join(f"{v!r},{-math.log(v)!r}\n" for v in x))
    (tmp_path / "flow.json").write_text(json.dumps(WINDOW_FLOW))


# (argv, the flag its error line must name): each exited 0 with a flag or an
# input dropped, or raised a TypeError, while every subcommand took one shared
# flag set
UNREAD = [
    (["transition", "--x", "0.5"], "--flow"),
    (["transition", "--builtin", "std_log", "--x", "0.5"], "--flow"),
    (["sigma", "--builtin", "std_log", "--lambda", "5"], "--lambda"),
    (["classify", "--builtin", "bounded_osc", "--lambda", "100"], "--lambda"),
    (["plot", "--builtin", "std_log", "--lambda", "3"], "--lambda"),
    (["plot", "--builtin", "std_log", "--x", "0.5"], "--x"),
    (["plot", "--builtin", "std_log", "--tmax", "3"], "--tmax"),
    (["classify", "--flow", "standard", "--builtin", "bounded_osc"], "--builtin"),
    (["sigma", "--builtin", "std_log", "--csv", "data.csv"], "--csv"),
    (["sigma", "--builtin", "std_log", "--csv", "missing.csv"], "--csv"),
    (["sigma", "--csv", "data.csv", "--param", "2"], "--param"),
    (["classify", "--flow", "standard", "--param", "2"], "--param"),
    (["classify"], "--flow"),
]

# subcommand: (its input group, its other options, its required options); 45 options in all
FUNCTION = {"--builtin", "--csv"}
SURFACE = {
    "sigma": (FUNCTION, {"--param", "--grid", "--out", "--variant"}, set()),
    "roundtrip": (FUNCTION, {"--param", "--grid", "--out", "--lambda", "--tol", "--c0", "--c1"}, set()),
    "linearize": (
        FUNCTION,
        {"--param", "--grid", "--out", "--lambda", "--homeo", "--shift-expr", "--tol"},
        {"--lambda", "--homeo"},
    ),
    "classify": (
        FUNCTION | {"--flow"}, {"--param", "--grid", "--out", "--lambda"}, set()
    ),
    "transition": ({"--flow"}, {"--grid", "--out", "--lambda", "--x"}, {"--x"}),
    "plot": (FUNCTION | {"--flow"}, {"--param", "--grid", "--out", "--lambda", "--x", "--tmax"}, set()),
}


class TestFlagSurface:
    @pytest.mark.parametrize("argv, flag", UNREAD, ids=[" ".join(a) for a, _ in UNREAD])
    def test_unread_flag_or_input_is_usage_error(self, capsys, tmp_path, inputs, argv, flag):
        out = tmp_path / "o"
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert flag in err.strip().splitlines()[-1] and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("amp", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [["sigma"], ["roundtrip"], ["linearize", "--homeo", "halve", "--lambda", "2"],
                                      ["classify"], ["plot"]], ids=lambda a: a[0])
    def test_non_finite_param_is_usage_error(self, capsys, tmp_path, argv, amp):
        # regression: taken, and the run failed later with "transit target not positive at
        # leaf c = 0.499324", "witness relation ... residual nan" or "non-finite value at grid node"
        assert_usage_error(capsys, tmp_path, f"--param: bounded_osc amplitude must be finite and >= 0, got {amp}",
                           argv[0], "--builtin", "bounded_osc", f"--param={amp}", *argv[1:])

    def test_each_subcommand_declares_the_flags_it_reads(self):
        ap = build_parser()
        (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(SURFACE)
        for name, p in sub.choices.items():
            (group,) = [g for g in p._mutually_exclusive_groups if g.required]
            inputs = {s for a in group._group_actions for s in a.option_strings}
            options = {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            required = {a.option_strings[0] for a in p._actions if a.required}
            assert (inputs, options - inputs, required) == SURFACE[name], name

    def test_help_shows_the_defaults_it_reads(self):
        # regression: --grid's help copied "512,40" beside the value GridSpec(), and
        # roundtrip's --lambda "1"; both now format the default argparse holds
        ap = build_parser()
        (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
        g = efunc.GridSpec()
        for name, p in sub.choices.items():
            (grid,) = [a for a in p._actions if a.dest == "grid"]
            assert "%(default)s" in grid.help and grid.type(grid.default) == g, name
            assert f"(default {g.samples_per_octave},{g.octave_max})" in " ".join(p.format_help().split())
        (lam,) = [a for a in sub.choices["roundtrip"]._actions if a.dest == "lam"]
        assert "%(default)g" in lam.help
        assert "time scale (default 1)" in " ".join(sub.choices["roundtrip"].format_help().split())
        # every option with a default prints it, and the printed text reads back as that value
        shown = set()
        for name, p in sub.choices.items():
            text = " ".join(p.format_help().split())
            for a in p._actions:
                if a.default is None or a.default == argparse.SUPPRESS:
                    continue
                assert "%(default)" in (a.help or ""), (name, a.dest)
                printed = re.search(r"\(default (\S+)\)$", a.help % {"default": a.default}).group(1)
                assert f"(default {printed})" in text, (name, a.dest)
                read = a.type or str
                assert read(printed) == (read(a.default) if isinstance(a.default, str) else a.default)
                shown.add((name, a.dest))
        assert {("sigma", "variant"), ("roundtrip", "c0"), ("roundtrip", "c1")} <= shown
        assert all((name, "out") in shown for name in sub.choices)

    @pytest.mark.parametrize(
        "argv, defaults",
        [
            (["roundtrip", "--builtin", "std_log"], {"lam": 1.0, "tol": 1e-9}),
            (["linearize", "--builtin", "std_log", "--homeo", "square", "--lambda", "2"], {"tol": 1e-10}),
        ],
    )
    def test_defaults_are_floats(self, argv, defaults):
        # the JSON config records them, so 1 and 1.0 would write different bytes
        args = build_parser().parse_args(argv)
        for dest, value in defaults.items():
            got = getattr(args, dest)
            assert type(got) is float and got == value, dest


# one run per subcommand that writes JSON and per kind of input, with the
# value that each declared non-input flag must echo: the one given, else the
# argparse default (None for a flag that the input does not read)
ECHO = [
    (["sigma", "--builtin", "bounded_osc", "--param", "2"], {"param": [2.0], "variant": "star"}),
    (["sigma", "--csv", "data.csv", "--variant", "star"], {"param": None, "variant": "star"}),
    (["roundtrip", "--builtin", "std_log", "--c0", "0.3", "--c1", "0.6"],
     {"param": None, "lam": 1.0, "tol": 1e-9, "c0": 0.3, "c1": 0.6}),
    (["linearize", "--builtin", "koenigs_demo", "--homeo", "square", "--lambda", "2"],
     {"param": None, "lam": 2.0, "homeo": "square", "shift_expr": None, "tol": 1e-10}),
    (["classify", "--csv", "data.csv"], {"param": None, "lam": None}),
    (["classify", "--flow", "flow.json", "--lambda", "1.5"], {"param": None, "lam": 1.5}),
    (["transition", "--flow", "flow.json", "--x", "0.5"], {"lam": None, "x": 0.5}),
]


def subparsers() -> dict:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestConfigEcho:
    @pytest.mark.parametrize("argv, flags", ECHO, ids=[" ".join(a) for a, _ in ECHO])
    def test_config_is_the_parsed_flags(self, tmp_path, inputs, argv, flags):
        # regression: the config came from a hand-kept table that echoed flags the
        # subcommand does not declare, with their defaults, dropped --shift-expr,
        # and wrote "lam": null for a given --lambda of a flow
        out = tmp_path / "o"
        assert run(*argv, "--grid", QUICK, "--out", str(out)) == 0
        (path,) = out.glob("*.json")
        config = load(path)["config"]
        p = subparsers()[argv[0]]
        (group,) = [g for g in p._mutually_exclusive_groups if g.required]
        declared = {a.dest for a in p._actions if a.option_strings and a not in group._group_actions}
        dests = declared - {"help", "grid", "out"}
        assert set(config) == {"command", "input", "grid"} | dests
        assert {d: config[d] for d in dests} == flags
        assert config["command"] == argv[0] and config["grid"]["K"] == 128

    @pytest.mark.parametrize("argv", [["classify", "--flow", "flow.json"],
                                      ["transition", "--flow", "flow.json", "--x", "0.5"]])
    def test_flow_window_is_not_echoed(self, tmp_path, inputs, argv):
        # regression: a flow with "c0": 0.3, "c1": 0.6 was echoed as c0 0.25, c1 0.5
        out = tmp_path / "o"
        assert run(*argv, "--grid", QUICK, "--out", str(out)) == 0
        (path,) = out.glob("*.json")
        assert not {"c0", "c1"} & set(load(path)["config"])
