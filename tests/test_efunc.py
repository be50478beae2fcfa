import json
import math
import operator
import re
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reebflow import (
    BUILTIN_NAMES,
    DomainError,
    EFunction,
    GridSpec,
    builtin,
    diagnose_class,
    from_csv,
    from_expression,
    gallery_homeo,
    sample,
)
from reebflow.efunc import (
    _BLOCK,
    _SCRATCH,
    _TAIL_OCTAVES,
    _blocks,
    _nodes,
    _Nodes,
    _octave_blocks,
    _scratch,
    _tail_span,
    compile_expr,
    write_csv,
)

from star_identities import octave_slice


class TestBuiltins:
    def test_doubling_osc_at_one(self):
        assert builtin("doubling_osc")(1.0) == pytest.approx(1.0, rel=1e-12)

    def test_doubling_osc_at_half(self):
        # f(x/2) = 2 f(x) specializes to f(1/2) = 2 f(1) = 2
        assert builtin("doubling_osc")(0.5) == pytest.approx(2.0, rel=1e-12)

    def test_doubling_osc_quarter_octave(self):
        # sin term hits -1 at x = 2^(-1/4), giving 2^(1/4) * 2^(-1) = 2^(-3/4)
        got = builtin("doubling_osc")(2.0 ** -0.25)
        assert got == pytest.approx(2.0 ** -0.75, rel=1e-12)
        assert got == pytest.approx(0.5946035575013605, rel=1e-12)

    def test_std_log_at_one(self):
        assert builtin("std_log")(1.0) == 0.0

    def test_koenigs_demo(self):
        assert builtin("koenigs_demo")(1.0) == pytest.approx(0.5, rel=1e-12)

    def test_bounded_osc_amplitude(self):
        f = builtin("bounded_osc", [2.0])
        u = 1.25
        assert f(math.exp(-u)) == pytest.approx(u + 2.0 * math.sin(u), rel=1e-12)

    @pytest.mark.parametrize("amp", [0.0, 0.5, 2.0])
    def test_bounded_osc_bits_of_the_two_log_form(self, amp):
        # -ln x is computed once; the bits are those of -ln x + A sin(-ln x)
        x = GridSpec(4096, 60).nodes()
        want = -np.log(x) + amp * np.sin(-np.log(x))
        assert builtin("bounded_osc", [amp])(x).tobytes() == want.tobytes()
        assert float(builtin("bounded_osc", [amp])(0.3)) == float(-np.log(0.3) + amp * np.sin(-np.log(0.3)))

    def test_a_parameter_no_double_holds_is_a_value_error(self):
        # regression: OverflowError from float(p)
        with pytest.raises(ValueError, match="^the parameters of bounded_osc must be numbers that a double holds$"):
            builtin("bounded_osc", [10**400])

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin("nope")

    def test_negative_amplitude(self):
        with pytest.raises(ValueError, match="amplitude"):
            builtin("bounded_osc", [-1.0])

    @pytest.mark.parametrize("amp", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_is_rejected(self, amp):
        # regression: taken, and the run failed later with a message naming neither
        with pytest.raises(ValueError, match=f"^bounded_osc amplitude must be finite and >= 0, got {amp:g}$"):
            builtin("bounded_osc", [amp])

    @pytest.mark.parametrize(
        "name,params,takes", [("std_log", [2.0], 0), ("doubling_osc", [1.0], 0), ("koenigs_demo", [1.0, 2.0], 0),
                              ("bounded_osc", [2.0, 3.0], 1)]
    )
    def test_parameters_the_function_does_not_take_are_rejected(self, name, params, takes):
        # regression: std_log dropped its parameter and bounded_osc all but the first
        with pytest.raises(ValueError, match=f"too many parameters for {name}: got {len(params)}, it takes {takes}$"):
            builtin(name, params)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            builtin("std_log")(-1.0)
        with pytest.raises(DomainError):
            builtin("std_log")(np.array([0.5, 0.0]))

    def test_nan_passes_a_full_domain_as_before(self):
        # with no finite upper bound the max of x is not taken; NaN still reaches f
        f = builtin("std_log")
        for x in ([0.5, math.nan], [math.nan, 0.25], [math.nan]):
            assert f(np.array(x)).tobytes() == (-np.log(np.array(x))).tobytes()
        assert math.isnan(f(math.nan))

    def test_nan_does_not_hide_a_point_outside_the_domain(self):
        # regression: [nan, -1.0] evaluated to [nan, nan] with a RuntimeWarning, for the min of x was NaN
        f = builtin("std_log")
        for x in ([math.nan, -1.0], [-1.0, math.nan], [[0.5, math.nan], [math.nan, 0.0]]):
            with pytest.raises(DomainError, match="^std_log is defined on x > 0$"):
                f(np.array(x))
        s = EFunction("sampled", lambda x: -np.log(x), "E", "s", (0.25, 1.0))
        with pytest.raises(DomainError, match=r"^evaluation outside domain \[0\.25, 1\] for s$"):
            s(np.array([math.nan, 2.0]))
        assert np.isnan(s(np.array([math.nan, 0.5]))).tolist() == [True, False]
        assert np.isnan(s(np.array([math.nan]))).all() and math.isnan(s(math.nan))

    @pytest.mark.parametrize("form", ["builtin", "scaled", "shifted", "composed", "plus", "restricted"])
    def test_nan_does_not_hide_a_point_outside_the_domain_of_a_derived_function(self, form):
        # every form of f keeps the domain check of EFunction.__call__, which skips NaN
        derive = {
            "builtin": lambda f: f,
            "scaled": lambda f: f.scaled(2.0),
            "shifted": lambda f: f.shifted(1.0),
            "composed": lambda f: f.composed(gallery_homeo("halve"), "halve"),
            "plus": lambda f: f.plus(lambda x: x / (1.0 + x)),
            "restricted": lambda f: replace(f, kind="sampled", domain=(2.0**-10, 1.0)),
        }[form]
        for name in BUILTIN_NAMES:
            g = derive(builtin(name))
            for x in ([math.nan, -1.0], [0.0, math.nan]):
                with pytest.raises(DomainError, match=" is defined on x > 0$"):
                    g(np.array(x))
            assert np.isnan(g(np.array([math.nan, 0.5]))).tolist() == [True, False]

    def test_full_domain_takes_no_max(self, monkeypatch):
        f, x = builtin("koenigs_demo"), np.array([1.0, 0.5, 2.0**-40])
        want = f(x)
        monkeypatch.setattr(np, "max", None)
        assert f(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name,params", [("std_log", ()), ("doubling_osc", ())])
    def test_divergence_toward_zero(self, name, params):
        f = builtin(name, params)
        assert f(2.0 ** -40) > f(2.0 ** -20) > f(2.0 ** -5)


class TestGridSpec:
    def test_nodes_decreasing(self, grid):
        x = grid.nodes()
        assert np.all(np.diff(x) < 0)
        assert x[0] == 1.0

    def test_halving_exact_every_index(self, grid):
        x = grid.nodes()
        K = grid.samples_per_octave
        assert np.array_equal(x[K:], x[:-K] / 2.0)

    def test_octave_nodes_are_powers_of_two(self, grid):
        x = grid.nodes()
        K = grid.samples_per_octave
        for m in range(grid.octave_max + 1):
            assert x[m * K] == 2.0 ** -m

    def test_octave_slice_covers_window(self, grid):
        # the tests' reference for octave_windows, read off the nodes alone
        x = grid.nodes()
        for m in (0, 7, grid.octave_max - 1):
            w = x[octave_slice(grid, m)]
            assert w[0] == 2.0 ** -m
            assert w[-1] == 2.0 ** -(m + 1)

    def test_octave_windows_cover_their_octaves(self, grid):
        windows = grid.octave_windows(grid.nodes())
        for m in (0, 7, grid.octave_max - 1):
            assert windows[m][0] == 2.0 ** -m
            assert windows[m][-1] == 2.0 ** -(m + 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(samples_per_octave=0)
        with pytest.raises(ValueError):
            GridSpec(octave_max=0)
        with pytest.raises(ValueError):
            GridSpec(octave_max=61)

    def test_nodes_are_one_cached_read_only_array(self):
        g = GridSpec(samples_per_octave=8, octave_max=6)
        x = g.nodes()
        # equal specs share the array
        assert GridSpec(samples_per_octave=8, octave_max=6).nodes() is x
        with pytest.raises(ValueError):
            x[0] = 2.0
        i = np.arange(0, 8 * 6 + 1)
        want = np.ldexp(np.exp2(-(i % 8) / 8), -(i // 8))
        assert np.array_equal(x.view(np.int64), want.view(np.int64))
        y = x.copy()
        y[0] = 2.0  # a copy is the caller's to write
        assert g.nodes()[0] == 1.0

    @pytest.mark.parametrize("K", [1, 2, 3, 5, 7, 8, 64, 100, 512, 1000, 1024, 4096, 16384, 32768])
    def test_nodes_from_one_octave_keep_the_bits_of_the_whole_grid_formula(self, K):
        # the nodes are built one octave at a time; the formula over the whole
        # grid, ldexp(2^(-(i mod K)/K), -(i div K)), does not depend on m_max,
        # so every grid of K nodes per octave is a prefix of the deepest one
        i = np.arange(K * 60 + 1)
        want = np.concatenate(
            [np.ldexp(np.exp2(-(i[s] % K) / K), -(i[s] // K)) for s in _blocks(i.size)]
        )
        for m_max in (1, 2, 16, 20, 40, 59, 60):
            x = _nodes.__wrapped__(K, m_max)
            assert x.tobytes() == want[: K * m_max + 1].tobytes(), m_max

    @pytest.mark.parametrize("field", ["samples_per_octave", "octave_max"])
    @pytest.mark.parametrize("bad", [512.5, 2.0, True, np.float64(8.0), "8", None], ids=repr)
    def test_a_field_that_is_not_an_integer_is_named(self, field, bad):
        # regression: GridSpec(512.5, 40).nodes() raised numpy's TypeError,
        # GridSpec(True, 20) wrote "K": true and GridSpec(512, 20, 2.5) passed
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            GridSpec(**{field: bad})

    def test_numpy_integers_are_kept_as_python_ints(self):
        # regression: json.dumps(GridSpec(np.int64(512), 40).to_json()) raised
        # "Object of type int64 is not JSON serializable"
        g = GridSpec(np.int64(512), np.int32(40))
        assert [type(v) for v in (g.samples_per_octave, g.octave_max)] == [int] * 2
        assert g == GridSpec(512, 40) and hash(g) == hash(GridSpec(512, 40))
        assert json.loads(json.dumps(g.to_json())) == {"K": 512, "m_min": 0, "m_max": 40, "tail_octaves": 20}

    @given(
        K=st.sampled_from([1, 2, 512]),
        octaves=st.integers(1, 4),
        extra=st.lists(st.sampled_from([1.0, -1.0]) | st.floats(-1e6, 1e6), max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_octave_envelopes_equal_per_slice_loop(self, K, octaves, extra, seed):
        # few distinct values, so windows hold ties, and signed zeros side by side
        g = GridSpec(samples_per_octave=K, octave_max=octaves)
        values = np.random.default_rng(seed).choice(np.array([0.0, -0.0, *extra]), g.node_count)
        sups, mins = g.octave_envelopes(values)
        want_sups = np.array([values[octave_slice(g, m)].max() for m in range(g.octave_max)])
        want_mins = np.array([values[octave_slice(g, m)].min() for m in range(g.octave_max)])
        assert np.array_equal(sups.view(np.int64), want_sups.view(np.int64))
        assert np.array_equal(mins.view(np.int64), want_mins.view(np.int64))

    def test_json_keeps_m_min_zero(self, small_grid):
        # every grid starts at x = 1 and ends its tail at 2^20; the keys stay so artifacts keep their bytes
        assert small_grid.to_json() == {"K": 64, "m_min": 0, "m_max": 24, "tail_octaves": 20}


SPAN_KS = [1, 3, 7, 100, 512, 4096, 16384, 32768, 40000]


class TestNodeSpans:
    """The streaming passes write the nodes of each block into a buffer of their own (``_Nodes.span``)."""

    @pytest.mark.parametrize("m_max", [1, 2, 16, 60])
    @pytest.mark.parametrize("K", SPAN_KS)
    def test_spans_are_the_bits_of_the_slices_of_the_nodes(self, K, m_max):
        x, nodes = _nodes.__wrapped__(K, m_max), _Nodes(K, m_max)
        n, step = x.size, len(nodes.head) - 1
        # the head holds the first min(max(1, 2^15 // K), m_max) octaves and the node that ends them
        assert step == min(max(1, _BLOCK // K), m_max) * K
        assert len(nodes) == n and nodes.head.tobytes() == x[: step + 1].tobytes()
        for lo in range(0, n - 1, step):  # the octave-aligned blocks, then offsets K/2 and K
            for start in (lo, lo + K // 2, lo + K):
                for length in (step + 1, _BLOCK):
                    if start < n:
                        buf = np.full(min(length, n - start), np.nan)
                        assert nodes.span(start, buf) is buf
                        assert buf.tobytes() == x[start : start + buf.size].tobytes(), (start, length)
        last = np.full(1, np.nan)
        assert nodes.span(n - 1, last).tobytes() == x[-1:].tobytes() and x[-1] == 2.0**-m_max
        assert [nodes[i] for i in (0, K // 2, K, n - 1, -1)] == x[[0, K // 2, K, n - 1, -1]].tolist()

    @pytest.mark.parametrize("tail", [1, 3, 20])
    @pytest.mark.parametrize("K", SPAN_KS)
    def test_tail_spans_are_the_bits_of_the_tail_nodes(self, K, tail):
        t = np.arange(K * tail + 1, dtype=float)
        _tail_span(K, 0, t, t)  # the whole tail in one span, in place
        assert t.tobytes() == np.exp2(np.arange(t.size) / K).tobytes()  # one exp2 over the whole tail
        ramp, buf = np.arange(_BLOCK, dtype=float), np.full(_BLOCK, np.nan)
        for s in _blocks(t.size):
            got = _tail_span(K, s.start, ramp, buf[: s.stop - s.start])
            assert got.tobytes() == t[s].tobytes(), s
        assert t[-1] == 2.0**tail


class TestSample:
    def test_std_log_coarse(self):
        g = GridSpec(samples_per_octave=1, octave_max=3)
        v = sample(builtin("std_log"), g)
        want = np.array([0.0, math.log(2), 2 * math.log(2), 3 * math.log(2)])
        np.testing.assert_allclose(v, want, rtol=1e-15, atol=0.0)

    def test_constant_expression(self):
        g = GridSpec(samples_per_octave=2, octave_max=2)
        v = sample(from_expression("5.0 + 0*x"), g)
        assert v.shape == g.nodes().shape and np.all(v == 5.0)


class TestExpression:
    A = np.array([1.0, 0.5, 0.25, 2.0**-40])

    @pytest.mark.parametrize("expr", ["x", "abs(x)", "-log(x) + sin(x)"])
    def test_result_is_a_new_array(self, expr):
        a = self.A.copy()
        out = from_expression(expr)(a)
        assert not np.shares_memory(out, a) and out.flags.writeable
        out[:] = 7.0
        assert a.tobytes() == self.A.tobytes()

    @pytest.mark.parametrize("expr", ["5.0", "pi", "1"])
    def test_constant_has_the_shape_of_x(self, expr):
        fn = compile_expr(expr, "function")
        for x in (self.A, self.A.reshape(2, 2), np.float64(0.5)):
            out = fn(x)
            assert out.shape == np.shape(x) and np.all(out == float(eval(expr, {"pi": math.pi})))
        out = from_expression("5.0")(self.A)
        out[0] = 1.0  # each element its own: not a broadcast view
        assert out.tolist() == [1.0, 5.0, 5.0, 5.0]

    def test_a_new_result_is_not_copied(self, monkeypatch):
        fn, want = compile_expr("-log(x)", "function"), -np.log(self.A)
        monkeypatch.setattr(np, "broadcast_to", None)
        assert fn(self.A).tobytes() == want.tobytes()

    def test_bits_are_those_of_the_numpy_expression(self):
        a = GridSpec(64, 24).nodes()
        for expr, want in (("x", a), ("-log(x) + 0.3*sin(log(x))", -np.log(a) + 0.3 * np.sin(np.log(a))),
                           ("exp2(sin(2*pi*log2(x)))/x", np.exp2(np.sin(2 * math.pi * np.log2(a))) / a)):
            assert from_expression(expr)(a).tobytes() == want.tobytes()

    def test_deterministic_bitwise(self, grid):
        f = builtin("doubling_osc")
        a = sample(f, grid)
        b = sample(f, grid)
        assert a.tobytes() == b.tobytes()
        # each call returns a new writable array
        assert a.flags.writeable and not np.shares_memory(a, b)

    def test_nonfinite_rejected(self):
        g = GridSpec(samples_per_octave=2, octave_max=2)
        # the node prints as a plain float (regression: x=np.float64(0.5))
        with pytest.raises(DomainError, match=r"non-finite value at grid node x=0\.5$"):
            sample(from_expression("log(x - 0.6)"), g)

    @pytest.mark.parametrize("name", ["std_log", "doubling_osc", "bounded_osc", "koenigs_demo"])
    def test_blocks_give_the_whole_array_bits(self, name):
        g = GridSpec(samples_per_octave=4096, octave_max=20)  # 81,921 nodes
        assert g.node_count > 2 * _BLOCK
        f = builtin(name)
        assert sample(f, g).tobytes() == f(g.nodes()).tobytes()

    def test_domain_error_before_nonfinite_in_an_earlier_block(self):
        # NaN in the first block, outside the domain only in the last one
        g = GridSpec(samples_per_octave=4096, octave_max=20)
        f = EFunction(
            "sampled", lambda x: np.where(x > 0.9, np.nan, -np.log(x)), "E", "nan_head", (2.0**-18, 1.0)
        )
        with pytest.raises(DomainError, match=r"^evaluation outside domain \[3\.8147e-06, 1\] for nan_head$"):
            sample(f, g)

    def test_error_in_a_later_block_before_nonfinite_in_an_earlier_one(self):
        # every block is evaluated before a non-finite value is reported, so
        # an error f raises in the last block wins over a NaN in the first
        g = GridSpec(samples_per_octave=4096, octave_max=20)

        def fn(x):
            if x[-1] < 2.0**-19:
                raise DomainError("raised in the last block")
            return np.where(x > 0.9, np.nan, -np.log(x))

        with pytest.raises(DomainError, match="^raised in the last block$"):
            sample(EFunction("expression", fn, "E", "late"), g)
        with pytest.raises(DomainError, match=r"^non-finite value at grid node x=1\.0$"):
            sample(EFunction("expression", lambda x: np.where(x > 0.9, np.nan, -np.log(x)), "E", "nan"), g)

    def test_call_checks_positivity_before_the_domain(self):
        f = EFunction("sampled", lambda x: -np.log(x), "E", "clipped", (0.5, 1.0))
        with pytest.raises(DomainError, match="^clipped is defined on x > 0$"):
            f(np.array([2.0, 0.0]))
        with pytest.raises(DomainError, match=r"^evaluation outside domain \[0\.5, 1\] for clipped$"):
            f(np.array([0.75, 0.25]))
        with pytest.raises(DomainError, match=r"^evaluation outside domain"):
            f(np.array([0.75, 2.0]))
        assert f(np.array([0.5, 1.0])).tolist() == [math.log(2.0), 0.0]

    def test_csv_writer_round_trips(self, tmp_path):
        g = GridSpec(samples_per_octave=4, octave_max=4)
        out = tmp_path / "profile.csv"
        write_csv(out, ["x", "f"], [g.nodes(), sample(builtin("std_log"), g)])
        lines = out.read_text().splitlines()
        assert lines[0] == "x,f"
        x0, f0 = lines[1].split(",")
        assert float(x0) == 1.0 and float(f0) == 0.0


class TestCsv:
    @staticmethod
    def _write(tmp_path, text, name="data.csv"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_round_trip_log_samples(self, tmp_path):
        p = self._write(tmp_path, "x,f\n1,0\n0.5,0.6931\n0.25,1.3863\n")
        f = from_csv(p)
        assert f(1.0) == pytest.approx(0.0, abs=1e-12)
        assert f(0.5) == pytest.approx(0.6931, abs=1e-12)
        assert f(0.25) == pytest.approx(1.3863, abs=1e-12)

    def test_log_linear_interpolation(self, tmp_path):
        p = self._write(tmp_path, "x,f\n1,0\n0.25,2\n")
        f = from_csv(p)
        # halfway in log x between 1 and 1/4 sits x = 1/2
        assert f(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            from_csv(self._write(tmp_path, ""))

    def test_single_row(self, tmp_path):
        with pytest.raises(ValueError, match="two samples"):
            from_csv(self._write(tmp_path, "x,f\n1,0\n"))

    def test_negative_x(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            from_csv(self._write(tmp_path, "x,f\n1,0\n-1,2\n"))

    def test_non_monotone(self, tmp_path):
        with pytest.raises(ValueError, match="decreasing"):
            from_csv(self._write(tmp_path, "x,f\n1,0\n0.5,1\n0.7,2\n"))

    def test_malformed_row(self, tmp_path):
        with pytest.raises(ValueError, match="malformed"):
            from_csv(self._write(tmp_path, "x,f\n1,zero\n"))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_nonfinite_rejected_at_its_row(self, tmp_path, bad, column):
        # regression: a nan x got past the decreasing check and failed later
        # at the wrong grid node
        row = [bad, "1.0"] if column == 0 else ["0.5", bad]
        p = self._write(tmp_path, f"x,f\n1.0,0.0\n{','.join(row)}\n0.25,2.0\n")
        with pytest.raises(ValueError, match=r"data\.csv:3: non-finite value"):
            from_csv(p)

    @pytest.mark.parametrize("text, message", [
        ("x,f\n1.0,0.0\n\n\n0.5,abc\n", "data.csv:5: malformed row ['0.5', 'abc']"),
        ("x,f\n\n1.0,0.0\n0.5\n", "data.csv:4: need two columns"),
        ("x,f\n1.0,0.0\n\n0.5,nan\n", "data.csv:4: non-finite value in row ['0.5', 'nan']"),
        ("\nx,f\n1.0,0.0\n , \n-1,2\n", "data.csv:5: x must be positive, got -1.0"),
        ("x,f\n1.0,0.0\n\n0.5,1\n\n0.7,2\n", "data.csv:6: x column must be strictly decreasing"),
        ('x,f\n1.0,"0.0\n"\n0.5,abc\n', "data.csv:4: malformed row ['0.5', 'abc']"),
    ], ids=["malformed", "one-column", "non-finite", "not-positive", "not-decreasing", "quoted-newline"])
    def test_a_rejected_row_is_named_by_its_line_in_the_file(self, tmp_path, text, message):
        # regression: rows were numbered after the blank ones were dropped
        with pytest.raises(ValueError) as err:
            from_csv(self._write(tmp_path, text))
        assert str(err.value).endswith(message)

    def test_bad_header(self, tmp_path):
        with pytest.raises(ValueError, match="header"):
            from_csv(self._write(tmp_path, "a,b\n1,0\n"))

    def test_outside_range(self, tmp_path):
        f = from_csv(self._write(tmp_path, "x,f\n1,0\n0.25,2\n"))
        with pytest.raises(DomainError):
            f(0.1)
        with pytest.raises(DomainError):
            f(2.0)

    def test_above_the_range_is_outside_the_domain(self, tmp_path):
        # a finite upper bound still takes the max of x
        f = from_csv(self._write(tmp_path, "x,f\n1,0\n0.25,2\n"))
        for x in (np.array([0.5, 1.0 + 2**-52]), np.array([4.0, 0.5, 0.3])):
            with pytest.raises(DomainError, match=r"^evaluation outside domain \[0\.25, 1\] for csv:"):
                f(x)


class TestWriteCsv:
    SPECIAL = [-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf, 0.1, 1.0 / 3.0]

    @staticmethod
    def _bits(values):
        return np.asarray(values, dtype=np.float64).view(np.int64)

    def test_cells_parse_back_bit_for_bit(self, tmp_path):
        a = np.array(self.SPECIAL)
        b = a[::-1].copy()
        out = tmp_path / "c.csv"
        write_csv(out, ["a", "b"], [a, list(b)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        np.testing.assert_array_equal(self._bits([float(r[0]) for r in rows]), self._bits(a))
        np.testing.assert_array_equal(self._bits([float(r[1]) for r in rows]), self._bits(b))

    def test_rows_span_blocks_in_order(self, tmp_path):
        # more rows than one formatting block, in order
        a = np.random.default_rng(1).normal(size=10000) * 1e3
        out = tmp_path / "c.csv"
        write_csv(out, ["a", "i"], [a, np.arange(10000.0)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 10000
        np.testing.assert_array_equal(self._bits([float(r[0]) for r in rows]), self._bits(a))
        assert [float(r[1]) for r in rows] == list(range(10000))

    def test_cells_are_repr(self, tmp_path):
        out = tmp_path / "c.csv"
        write_csv(out, ["v"], [np.array(self.SPECIAL)])
        assert out.read_text().splitlines()[1:] == [repr(v) for v in self.SPECIAL]

    def test_header_as_given_and_newline_endings(self, tmp_path):
        out = tmp_path / "c.csv"
        write_csv(out, ["x", "f_minus_f_inf"], [[1.0, 0.5], [2.0, 3.0]])
        assert out.read_bytes() == b"x,f_minus_f_inf\n1.0,2.0\n0.5,3.0\n"

    @pytest.mark.parametrize("columns", [[], [[], []], [np.empty(0), np.empty(0)]])
    def test_no_rows_writes_header_only(self, tmp_path, columns):
        out = tmp_path / "c.csv"
        write_csv(out, ["t", "xi"], columns)
        assert out.read_bytes() == b"t,xi\n"

    @pytest.mark.parametrize(
        "header, columns, lengths",
        [
            (["a", "b"], [[1.0, 2.0], [3.0]], "[2, 1]"),
            (["a", "b", "c"], [[1.0, 2.0], [3.0, 4.0]], "[2, 2]"),
            (["a"], [[1.0, 2.0], [3.0, 4.0]], "[2, 2]"),
            (["a", "b"], [np.empty(0)], "[0]"),
        ],
    )
    def test_mismatched_header_or_lengths_raise_and_write_nothing(self, tmp_path, header, columns, lengths):
        # regression: the shorter column set the row count, and the header's width was never checked
        out = tmp_path / "c.csv"
        message = rf"^CSV header of {len(header)} names over columns of lengths \{lengths}$"
        with pytest.raises(ValueError, match=message):
            write_csv(out, header, columns)
        assert not out.exists()


class TestWriteCsvReuse:
    """A column bitwise equal to an earlier one, block by block, is written as if formatted afresh."""

    N = 3 * 4096 + 123  # four formatting blocks, the last one short

    @pytest.fixture
    def check(self, tmp_path, reference_csv):
        """Write the columns, compare with the cell-by-cell bytes and return the text."""

        def check(columns):
            header = [f"c{i}" for i in range(len(columns))]
            write_csv(tmp_path / "c.csv", header, columns)
            assert (tmp_path / "c.csv").read_bytes() == reference_csv(header, columns)
            return (tmp_path / "c.csv").read_text()

        return check

    def _random(self, seed=2):
        return np.random.default_rng(seed).normal(size=self.N) * 1e3

    def test_equal_column_over_several_blocks(self, check):
        a = self._random()
        check([np.arange(float(self.N)), a, a.copy(), a[::-1].copy()])

    def test_equal_in_the_first_block_only(self, check):
        a = self._random()
        b = a.copy()
        b[4096:] = self._random(3)[4096:]
        check([a, b])

    def test_equal_but_for_one_row(self, check):
        a = self._random()
        b = a.copy()
        b[5000] = np.nextafter(b[5000], np.inf)
        rows = check([a, b]).splitlines()[1:]
        assert [i for i, r in enumerate(rows) if r.split(",")[0] != r.split(",")[1]] == [5000]

    def test_zero_and_negative_zero_differ(self, check):
        zeros = np.zeros(self.N)
        assert check([zeros, -zeros, zeros.copy()]).splitlines()[1] == "0.0,-0.0,0.0"

    def test_nans(self, check):
        a = self._random()
        a[::7] = math.nan
        check([a, a.copy(), np.full(self.N, math.nan)])

    def test_three_equal_columns(self, check):
        a = self._random()
        check([a, a.copy(), list(a)])


class TestDiagnosis:
    def test_gallery_clean(self, small_grid):
        for name, params in (("std_log", ()), ("doubling_osc", ()), ("bounded_osc", (2.0,))):
            assert diagnose_class(builtin(name, params), small_grid) == []

    def test_sampled_dip_reported(self, tmp_path, small_grid):
        # values crash back to 0 around 2^-6: more than any oscillation allowance
        rows = ["x,f"]
        for m in range(0, 13):
            val = float(m) if m < 6 else float(m) - 6.0
            rows.append(f"{2.0 ** -m!r},{val!r}")
        p = tmp_path / "dip.csv"
        p.write_text("\n".join(rows) + "\n")
        warnings = diagnose_class(from_csv(p), small_grid)
        assert warnings and "class E suspect" in warnings[0]

    def test_e0_tail_reported(self, small_grid):
        fake = replace(from_expression("1 + 1/x"), claimed_class="E0")
        warnings = diagnose_class(fake, small_grid)
        assert any("E0 suspect" in w for w in warnings)

    def test_e0_tail_reads_the_horizon_alone(self, small_grid):
        # regression: f ran at the points 2^1 .. 2^tail, and only f(2^tail) was read
        base = replace(from_expression("1 + 1/x"), claimed_class="E0")
        seen = []
        fake = replace(base, fn=lambda x: seen.extend(np.ravel(x).tolist()) or base.fn(x))
        warnings = diagnose_class(fake, small_grid)
        assert warnings == ["class E0 suspect: |f(2^20)| = 1 is not small"]
        assert [v for v in seen if v > 1.0] == [2.0**20]


class TestAlgebra:
    def test_scaled_and_shifted(self):
        f = builtin("std_log")
        assert f.scaled(3.0)(0.5) == pytest.approx(3 * math.log(2), rel=1e-15)
        assert f.shifted(2.0)(1.0) == pytest.approx(2.0, rel=1e-15)
        with pytest.raises(ValueError):
            f.scaled(-1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0])
    def test_scaled_needs_a_finite_positive_factor(self, lam):
        # regression: scaled(nan) returned a function whose every value is NaN
        with pytest.raises(ValueError, match=f"^scale factor must be finite and positive, got {lam:g}$"):
            builtin("std_log").scaled(lam)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_shifted_needs_a_finite_constant(self, c):
        # regression: shifted(nan) returned a function whose every value is NaN
        with pytest.raises(ValueError, match=f"^shift constant c must be finite, got {c:g}$"):
            builtin("std_log").shifted(c)

    def test_shift_drops_decay_claim(self):
        f = builtin("doubling_osc")
        assert f.claimed_class == "E0"
        assert f.shifted(1.0).claimed_class == "E"
        assert f.scaled(2.0).claimed_class == "E0"

    def test_composed(self):
        f = builtin("std_log")
        g = f.composed(lambda x: x * x, "square")
        assert g(0.5) == pytest.approx(2 * math.log(2), rel=1e-14)

    def test_plus(self):
        f = builtin("std_log")
        g = f.plus(lambda x: x / (1 + x))
        assert g(1.0) == pytest.approx(0.5, rel=1e-14)


# The gallery as the lambdas it was written as before it became expressions: the reference for their bits.
GALLERY_LAMBDAS = {
    "std_log": lambda x: -np.log(x),
    "doubling_osc": lambda x: np.exp2(np.sin(2.0 * math.pi * np.log2(x))) / x,
    "bounded_osc": lambda x: (lambda u: u + 2.0 * np.sin(u))(-np.log(x)),
    "koenigs_demo": lambda x: -np.log(x) + x / (1.0 + x),
}


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


class TestProgram:
    """The expression program: the gallery's bits, a grammar checked when compiled, and into."""

    A = np.array([1.0, 0.5, 0.25, 2.0**-40])

    @pytest.mark.parametrize("grid", [(512, 40), (16384, 60)], ids=["512x40", "16384x60"])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_the_gallery_keeps_the_bits_of_its_lambdas(self, name, grid):
        # a call on every node, and into through the streaming pass, which writes f into its block buffers
        g = GridSpec(*grid)
        f, want = builtin(name), bits(GALLERY_LAMBDAS[name](g.nodes()))
        assert bits(f(g.nodes())) == want and bits(sample(f, g)) == want

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_the_gallery_keeps_its_bits_on_the_sharp_tail_and_at_scalars(self, name):
        K = 16384
        n = K * _TAIL_OCTAVES + 1
        t = _tail_span(K, 0, np.arange(n, dtype=float), np.empty(n))  # 2^(i/K) up to the horizon 2^20
        f, lam = builtin(name), GALLERY_LAMBDAS[name]
        out = np.empty(n)
        f.fn.into(t, out)
        assert bits(f.fn(t)) == bits(lam(t)) == bits(out)
        for s in (1.0, 0.5, 2.0**-0.25, 0.3, 1e-300, 2.0**20, 7.5):
            assert bits(f(s)) == bits(lam(np.asarray(s))), s

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_scaled_and_shifted_append_one_op_with_the_bits_of_the_arithmetic(self, name):
        g, lam = GridSpec(512, 40), GALLERY_LAMBDAS[name]
        x = g.nodes()
        for k in (3.0, 0.1):
            f = builtin(name).scaled(k)
            assert len(f.fn.ops) == len(builtin(name).fn.ops) + 1
            assert bits(f(x)) == bits(sample(f, g)) == bits(k * lam(x))
        for c in (1.0, -2.5):
            f = builtin(name).shifted(c)
            assert bits(f(x)) == bits(sample(f, g)) == bits(lam(x) + c)

    def test_scaled_and_shifted_of_any_fn_are_programs(self):
        sampled = EFunction("sampled", lambda x: -np.log(x), "E", "s", (2.0**-10, 1.0))
        x = GridSpec(64, 10).nodes()
        assert bits(sampled.scaled(2.0).shifted(1.0)(x)) == bits(2.0 * -np.log(x) + 1.0)
        assert bits(sample(sampled.scaled(2.0), GridSpec(64, 10))) == bits(2.0 * -np.log(x))

    @pytest.mark.parametrize(
        "expr", ["-log(x) + 0*sin(x, x)", "maximum(x, 1, x)", "minimum(x, 1, out=x)", "exp(x, out=x)",
                 "where(x > 1, x, 1, x)", "sqrt()"])
    def test_an_expression_cannot_write_into_its_argument(self, expr):
        # regression: numpy took the extra argument as out, so the call overwrote the caller's array
        a = self.A.copy()
        with pytest.raises(ValueError, match=f"^function expression {re.escape(repr(expr))} is not valid: "):
            from_expression(expr)(a)
        assert bits(a) == bits(self.A)

    @pytest.mark.parametrize(
        "expr",
        ["x[0]", "x[:]", "x[::-1]", "x[100000] + 0*x", "x.real", "[v for v in x]", "sum(v for v in x)",
         "(lambda v: v)(x)", "x if x else 1", "where(0 < x < 1, x, 1)", "(x > 1) + x", "x and 1", "sin(*x)",
         "'x'", "True*x", "1j*x", "foo(x)", "np.sin(x)", "sin", "x = 1", "+".join(["x"] * 20000)],
        ids=lambda expr: expr if len(expr) < 40 else "x+x+...+x",
    )
    def test_what_the_grammar_lacks_is_rejected_when_compiled(self, expr):
        with pytest.raises(ValueError, match=f"^homeo expression {re.escape(repr(expr))} is not valid: "):
            compile_expr(expr, "homeo")

    def test_a_part_without_x_is_evaluated_when_compiled(self):
        with pytest.raises(ValueError, match=r"^function expression '-log\(x\) \+ 1/0' failed: "):
            from_expression("-log(x) + 1/0")
        with pytest.raises(ValueError, match="failed: "):
            from_expression("x * 10**400")  # no double holds 10**400
        f = compile_expr("exp2(sin(2*pi*log2(x))) / x", "function")
        assert 2.0 * math.pi in f.regs  # 2*pi is folded, as Python evaluates it first
        g = compile_expr("x*2*pi", "function")  # nothing is reassociated: (x*2)*pi
        assert [op[0] for op in g.ops] == [operator.mul, operator.mul]
        assert bits(g(self.A)) == bits(self.A * 2 * math.pi)

    def test_common_subexpressions_run_once(self):
        f = compile_expr("-log(x) + 1.5*sin(3.0*log(x))", "function")
        assert [op[0] for op in f.ops].count(np.log) == 1
        assert bits(f(self.A)) == bits(-np.log(self.A) + 1.5 * np.sin(3.0 * np.log(self.A)))
        assert [op[0] for op in builtin("bounded_osc").fn.ops].count(operator.neg) == 1

    def test_a_text_compiles_once(self):
        assert from_expression("-log(x) + 0.25*x").fn is from_expression("-log(x) + 0.25*x").fn
        assert builtin("bounded_osc", [3.0]).fn is builtin("bounded_osc", [3.0]).fn

    @pytest.mark.parametrize(
        "expr", ["x", "5.0", "-log(x)", "where(x < 0.3, x**2, -x)", "maximum(x, 0.5) % 0.3 // 0.1", "e**x + pi"])
    def test_into_writes_the_bits_of_a_call(self, expr):
        f = compile_expr(expr, "function")
        for out in (np.empty(4), np.empty(5)[1:]):  # a buffer that starts a cache line, and one that does not
            f.into(self.A, out)
            assert bits(out) == bits(f(self.A)) == bits(np.broadcast_to(f(self.A), self.A.shape))

    @pytest.mark.parametrize("expr,slots", [("-log(x)", 0), ("exp2(sin(2*pi*log2(x))) / x", 0),
                                            ("-log(x) + x / (1.0 + x)", 1), ("-log(x) + 2.0*sin(-log(x))", 1),
                                            ("sin(x)*cos(x) + exp(x)*sqrt(x)", 2)])
    def test_into_takes_a_scratch_slot_for_each_register_but_the_root(self, expr, slots):
        # the root's register is out; std_log and doubling_osc run every op in it, in place
        f, out, pool = compile_expr(expr, "function"), np.empty(len(self.A)), []

        def run():  # in a new thread, whose pool starts empty
            f.into(self.A, out)
            pool.extend(_SCRATCH.__dict__.get("into", []))

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        assert len(pool) == slots and bits(out) == bits(f(self.A))

    def test_an_efunction_writes_through_its_program_or_a_copy_of_its_fn(self):
        # the one writer of the passes and build_flow: no domain check, and a wrapped fn sees the call
        calls, prog = [], builtin("koenigs_demo")
        wrapped = replace(prog, fn=lambda x: calls.append(np.array(x)) or prog.fn(x))
        for f in (prog, wrapped):
            out = np.empty(len(self.A))
            assert f.into(self.A, out) is out and bits(out) == bits(prog(self.A))
        assert len(calls) == 1 and bits(calls[0]) == bits(self.A)
        with pytest.raises(DomainError):
            prog(np.array([0.5, 0.0]))
        with np.errstate(divide="ignore"):  # the caller checks the domain once, as the passes do
            prog.into(np.array([0.5, 0.0]), np.empty(2))

    def test_temporaries_are_dropped_at_their_last_use(self):
        # five terms summed left to right: at most the sum, a term, the next sum and x are alive at once
        f, x = compile_expr("sin(x) + cos(x) + exp(x) + sqrt(x) + log(x)", "function"), np.linspace(1, 2, 1 << 20)
        f(x)
        tracemalloc.start()
        try:
            f(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * x.nbytes

    def test_the_pass_writes_each_block_where_a_cache_line_starts(self):
        blocks = list(_octave_blocks(builtin("koenigs_demo"), GridSpec(4096, 20)))
        assert len(blocks) > 2 and all(v[1:].ctypes.data % 64 == 0 for lo, x, v, _ in blocks if lo)
        assert all(b.ctypes.data % 64 == 0 for b in _scratch("into", 3, 100))
