import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reebflow import (
    DEFAULT_TRANSVERSAL,
    DomainError,
    Flow,
    GridSpec,
    QuarterPlanePoint,
    Transversal,
    build_flow,
    builtin,
    extract_transition,
    flow_classify,
    flow_from_json,
    flow_step,
    flow_to_json,
    from_expression,
    standard_flow,
    standard_step,
    time_scale,
    transition_time,
)
from reebflow.cli import main
from reebflow.efunc import _octave_blocks
from reebflow.flow import _held_source, _leaf_position, _leaf_time, _transit_target, orbit_rows

GALLERY = {"std_log": (), "doubling_osc": (), "bounded_osc": (2.0,), "koenigs_demo": ()}
# 241,665 nodes in (0, 1/2], so build_flow's grid passes take eight blocks
DEEP = GridSpec(4096, 60)


class TestPoints:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuarterPlanePoint(0.0, 0.0)
        with pytest.raises(ValueError):
            QuarterPlanePoint(-1.0, 1.0)
        assert QuarterPlanePoint(0.0, 2.0).interior is False

    def test_leaf_coords_round_trip(self):
        for xi in (1e-6, 0.37, 1.0, 1e6):
            for eta in (1e-6, 2.5, 1e6):
                p = QuarterPlanePoint(xi, eta)
                c, s = p.leaf_coords()
                q = QuarterPlanePoint(math.exp(s), c / math.exp(s))
                assert q.xi == pytest.approx(p.xi, rel=1e-12)
                assert q.eta == pytest.approx(p.eta, rel=1e-12)

    def test_boundary_has_no_leaf_coords(self):
        with pytest.raises(DomainError):
            QuarterPlanePoint(0.0, 1.0).leaf_coords()


class TestStandardStep:
    def test_identity(self):
        p = standard_step(0.0, QuarterPlanePoint(1.0, 1.0))
        assert (p.xi, p.eta) == (1.0, 1.0)

    def test_unit_time(self):
        p = standard_step(1.0, QuarterPlanePoint(1.0, 1.0))
        assert p.xi == pytest.approx(math.e, rel=1e-15)
        assert p.eta == pytest.approx(1.0 / math.e, rel=1e-15)

    def test_leaf_preserved(self):
        p = standard_step(math.log(4.0), QuarterPlanePoint(0.5, 2.0))
        assert p.xi == pytest.approx(2.0, rel=1e-15)
        assert p.eta == pytest.approx(0.5, rel=1e-15)
        assert p.leaf == pytest.approx(1.0, rel=1e-12)

    def test_axes_allowed(self):
        p = standard_step(2.0, QuarterPlanePoint(0.0, 3.0))
        assert p.xi == 0.0
        assert p.eta == pytest.approx(3.0 * math.exp(-2.0), rel=1e-15)

    def test_overflow_reported(self):
        with pytest.raises(ValueError, match="700"):
            standard_step(701.0, QuarterPlanePoint(1.0, 1.0))


class TestBuildFlow:
    def test_std_log_realizes_standard(self, grid):
        F = build_flow(builtin("std_log"), g=grid)
        x = grid.nodes()
        np.testing.assert_allclose(F.transit(x), -np.log(x), rtol=1e-14, atol=1e-16)
        assert F.shift == 0.0

    def test_flow_step_matches_standard_on_std_log(self, grid):
        F = build_flow(builtin("std_log"), g=grid)
        for c in (0.01, 0.125, 0.4):
            for t in (-3.0, -0.2, 0.7, 4.0):
                p = QuarterPlanePoint(c, 1.0)
                a = flow_step(F, t, p)
                b = standard_step(t, p)
                assert a.xi == pytest.approx(b.xi, rel=1e-12)
                assert a.eta == pytest.approx(b.eta, rel=1e-12)

    def test_prescription_window_exact(self, grid):
        f = builtin("doubling_osc")
        F = build_flow(f, g=grid)
        x = grid.nodes()
        sel = x <= F.c0
        np.testing.assert_array_equal(F.transit(x[sel]), np.asarray(f(x[sel])))

    def test_a_grid_with_no_node_below_c1_is_rejected(self):
        # GridSpec(8, 1) ends at x = 1/2, above c1 = 0.3
        with pytest.raises(ValueError, match="^grid has no nodes below c1$"):
            build_flow(builtin("std_log"), 0.1, 0.3, GridSpec(8, 1))

    def test_bounded_osc_needs_no_lift(self, grid):
        # grid minimum of ln(1/x) + 2 sin(ln(1/x)) over (0, 1/2] is
        # ln 2 + 2 sin(ln 2) = 1.971..., safely positive
        F = build_flow(builtin("bounded_osc", [2.0]), g=grid)
        assert F.shift == 0.0

    def test_negative_profile_lifted_to_tenth(self, grid):
        f = from_expression("-log(x) - 1")
        F = build_flow(f, g=grid)
        # grid minimum of f over (0, 1/2] is ln 2 - 1 < 0
        want = 0.1 - (math.log(2.0) - 1.0)
        assert F.shift == pytest.approx(want, rel=1e-12)
        x = grid.nodes()
        sel = x <= F.c1
        lifted = np.asarray(f(x[sel])) + F.shift
        assert float(np.min(lifted)) == pytest.approx(0.1, abs=1e-12)
        assert float(np.min(F.transit(x[sel]))) > 0.0

    @pytest.mark.parametrize("name,params", GALLERY.items())
    def test_f_runs_once_over_the_nodes_below_c1(self, name, params):
        # f runs block by block, once per node; the positivity check reads f
        # from the values the shift was taken from
        f = builtin(name, params)
        calls = []

        def fn(x, _fn=f.fn):
            calls.append(np.array(x, dtype=float))
            return _fn(x)

        F = build_flow(dataclasses.replace(f, fn=fn), g=DEEP)
        x = DEEP.nodes()
        assert len(calls) > 1
        assert np.concatenate(calls).tobytes() == x[x <= F.c1].tobytes()

    def test_check_names_the_first_bad_leaf(self):
        # -inf at a node lifts by inf, so f + shift is NaN there only; the
        # window is searched from its first leaf, and 2^-3 comes before 2^-20
        for bad, shown in (((0.125, 2.0**-20), r"0\.125"), ((2.0**-20,), r"9\.53674e-07")):

            def fn(x, bad=bad):
                x = np.asarray(x, dtype=float)
                return np.where(np.isin(x, bad), -np.inf, -np.log(x))

            f = dataclasses.replace(builtin("std_log"), fn=fn)
            with np.errstate(invalid="ignore"), pytest.raises(DomainError, match=rf"not positive at leaf c = {shown}$"):
                build_flow(f, g=DEEP)

    def test_window_validation(self, grid):
        with pytest.raises(ValueError, match="c0"):
            build_flow(builtin("std_log"), c0=0.5, c1=0.25, g=grid)

    def test_blend_is_continuous(self, grid):
        F = build_flow(builtin("bounded_osc", [2.0]), g=grid)
        eps = 1e-9
        for c_edge in (F.c0, F.c1):
            lo = float(F.transit(c_edge * (1 - eps)))
            hi = float(F.transit(c_edge * (1 + eps)))
            assert lo == pytest.approx(hi, abs=1e-6)


def marked(val, where):
    """-ln x, but ``val`` at the nodes x where ``where(x)`` holds."""

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where(where(x), val, -np.log(x))

    return dataclasses.replace(builtin("std_log"), fn=fn)


def at_nodes(*nodes):
    return lambda x: np.isin(x, nodes)


def whole_array_flow(f, c0, c1, g):
    """(shift, T) of ``build_flow`` as one whole-array pass: the lift from the minimum of f over
    the nodes in (0, c1], then the transit target at all of them of a flow that holds nothing."""
    x = g.nodes()
    x = x[x <= c1]
    fmin = float(f(x).min())
    shift = 0.0 if fmin > 0.0 else 0.1 - fmin
    return shift, Flow(c0=c0, c1=c1, shift=shift, source=f).transit(x)


# 100,001 nodes in [1/2, 1]: the blend (0.3, 0.99] holds 98,551 of them, four blocks of 2^15
WIDE = GridSpec(100000, 1)
B = DEEP.nodes()[4096 + 1000]  # a node of the default blend (1/4, 1/2)
W = WIDE.nodes()[80000]  # a node of the blend of WIDE in its third block
# (profile, c0, c1, grid, the leaf the error names or None); the window is on nodes, then off them
PARITY = {
    "nan_in_window": (marked(np.nan, at_nodes(2.0**-5)), 0.25, 0.5, DEEP, "0.499915"),
    "nan_in_blend_off_nodes": (marked(np.nan, at_nodes(B)), 0.3, 0.45, DEEP, "0.44997"),
    "ninf_in_window": (marked(-np.inf, at_nodes(2.0**-5, 2.0**-20)), 0.25, 0.5, DEEP, "0.03125"),
    "ninf_in_blend": (marked(-np.inf, at_nodes(B, 2.0**-5)), 0.25, 0.5, DEEP, f"{B:g}"),
    "pinf": (marked(np.inf, at_nodes(B, 2.0**-5)), 0.25, 0.5, DEEP, None),
    "pinf_and_negative": (marked(np.inf, at_nodes(B)).shifted(-3.0), 0.3, 0.45, DEEP, None),
    "negative_in_blend_only": (marked(-1.0, lambda x: (x > 0.26) & (x < 0.49)), 0.25, 0.5, DEEP, None),
    "negative_in_window_only": (marked(-5.0, lambda x: x < 0.2), 0.3, 0.45, DEEP, None),
    "huge_negative_in_window": (marked(-1e300, at_nodes(2.0**-6)), 0.25, 0.5, DEEP, "0.015625"),
    "huge_negative_in_window_off_nodes": (marked(-1e300, at_nodes(2.0**-6)), 0.3, 0.45, DEEP, "0.015625"),
    "huge_negative_in_blend": (marked(-1e300, at_nodes(B)), 0.25, 0.5, DEEP, None),
    "huge_negative_at_c1": (marked(-1e300, at_nodes(0.5)), 0.25, 0.5, GridSpec(1, 10), None),
    "wide_blend": (builtin("bounded_osc", (2.0,)), 0.3, 0.99, WIDE, None),
    "wide_blend_lifted": (from_expression("-log(x) - 1"), 0.3, 0.99, WIDE, None),
    "wide_blend_ninf": (marked(-np.inf, at_nodes(W)), 0.3, 0.99, WIDE, f"{W:g}"),
    "wide_blend_nan": (marked(np.nan, at_nodes(W)), 0.3, 0.99, WIDE, "0.99"),
}


class TestBuildFlowParity:
    """build_flow gives the bits and errors of one whole-array pass over the nodes below c1."""

    @pytest.mark.parametrize("case", PARITY)
    def test_bits_and_errors_of_a_whole_array_pass(self, case):
        f, c0, c1, g, bad = PARITY[case]
        with np.errstate(invalid="ignore"):
            if bad is not None:
                message = rf"^transit target not positive at leaf c = {re.escape(bad)}$"
                with pytest.raises(DomainError, match=message):
                    whole_array_flow(f, c0, c1, g)
                with pytest.raises(DomainError, match=message):
                    build_flow(f, c0, c1, g)
                return
            shift, T = whole_array_flow(f, c0, c1, g)
            F = build_flow(f, c0, c1, g)
        assert np.float64(F.shift).tobytes() == np.float64(shift).tobytes()
        assert F.held[3].tobytes() == T.tobytes() and not F.held[3].flags.writeable

    @pytest.mark.parametrize(
        "case, shift",
        [("pinf", 0.0), ("negative_in_window_only", 5.1), ("huge_negative_in_blend", 1e300),
         ("huge_negative_at_c1", 1e300)],
    )
    def test_the_lift(self, case, shift):
        # with fmin = -1e300 the lift is 1e300 and fmin + shift rounds to 0: the window is searched
        # and holds no leaf that is not positive, and the blend target stays positive
        f, c0, c1, g, _ = PARITY[case]
        F = build_flow(f, c0, c1, g)
        _, held_grid, window, T = F.held
        assert held_grid == g and window == (c0, c1, F.shift) and F.shift == shift
        assert np.all(T[g.nodes()[-len(T) :] < c1] > 0.0)

    def test_transit_target_runs_once_on_the_blend_leaves(self, monkeypatch):
        seen, original = [], _transit_target

        def spy(c, f_at, c0, c1):
            seen.append(np.array(c))
            return original(c, f_at, c0, c1)

        monkeypatch.setattr("reebflow.flow._transit_target", spy)
        for g, c0, c1 in ((DEEP, 0.25, 0.5), (WIDE, 0.3, 0.99), (GridSpec(1, 10), 0.25, 0.5)):
            seen.clear()
            build_flow(builtin("koenigs_demo"), c0, c1, g)
            x = g.nodes()
            assert len(seen) == 1 and seen[0].tobytes() == x[(x > c0) & (x <= c1)].tobytes()


class TestFlowStep:
    def test_uniform_segment_landing(self, grid):
        # from gamma1(1/8), running for exactly the prescribed time lands on
        # the second transversal {xi = 1}
        F = build_flow(builtin("doubling_osc"), g=grid)
        t = float(builtin("doubling_osc")(0.125))
        p = flow_step(F, t, QuarterPlanePoint(0.125, 1.0))
        assert p.xi == pytest.approx(1.0, rel=1e-12)

    def test_boundary_rejected_on_realized(self, grid):
        F = build_flow(builtin("std_log"), g=grid)
        with pytest.raises(DomainError, match="interior"):
            flow_step(F, 1.0, QuarterPlanePoint(0.0, 1.0))

    def test_off_grid_dip_is_domain_error(self, spike_flow):
        path, g = spike_flow
        F = flow_from_json(json.loads(path.read_text()), g)
        with pytest.raises(DomainError, match="not positive at leaf c = 0.30005"):
            flow_step(F, 1.0, QuarterPlanePoint(0.30005, 1.0))
        # the grid itself is fine, and so is a leaf away from the dip
        assert flow_step(F, 1.0, QuarterPlanePoint(0.125, 1.0)).leaf == pytest.approx(0.125, rel=1e-15)

    def test_time_overflow(self, grid):
        F = build_flow(builtin("std_log"), g=grid)
        with pytest.raises(ValueError, match="overflow"):
            flow_step(F, 1e5, QuarterPlanePoint(0.5, 1.0))

    @given(
        c=st.floats(min_value=2.0 ** -30, max_value=0.9),
        s0=st.floats(min_value=-3.0, max_value=3.0),
        t1=st.floats(min_value=-5.0, max_value=5.0),
        t2=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_group_law(self, flow_cache, c, s0, t1, t2):
        F = flow_cache
        p = QuarterPlanePoint(math.exp(s0), c / math.exp(s0))
        try:
            a = flow_step(F, t2, flow_step(F, t1, p))
            b = flow_step(F, t1 + t2, p)
        except ValueError:
            return  # time overflow for this draw; nothing to compare
        assert a.xi == pytest.approx(b.xi, rel=1e-10)
        assert a.eta == pytest.approx(b.eta, rel=1e-10)

    @given(
        c=st.floats(min_value=2.0 ** -30, max_value=0.9),
        t=st.floats(min_value=-20.0, max_value=20.0),
    )
    def test_leaf_invariance(self, flow_cache, c, t):
        p = QuarterPlanePoint(c, 1.0)
        try:
            q = flow_step(flow_cache, t, p)
        except ValueError:
            return
        assert q.leaf == pytest.approx(p.leaf, rel=1e-12)


def step_rows(F, p0, times):
    """Reference for ``orbit_rows``: one ``flow_step`` per time."""
    return [(v, q.xi, q.eta) for v in np.asarray(times, dtype=float).tolist() for q in [flow_step(F, v, p0)]]


def outcome(fn, *args):
    """``fn(*args)``'s rows as bytes, or its error's type and message."""
    try:
        return np.asarray(fn(*args), dtype=float).tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


class TestStandardOrbit:
    """A flow with no source forms its rows by one ``flow_step`` per time."""

    @pytest.mark.parametrize("lam", [1.0, 2.5, 1.0 / 3.0])
    @pytest.mark.parametrize(
        "xi, eta", [(0.1, 0.1), (3.0, 1e-300), (0.0, 2.0), (2.0, 0.0), (1e-20, 0.0)],
        ids=["interior", "interior-tiny", "eta-axis", "xi-axis", "xi-axis-tiny"],
    )
    @pytest.mark.parametrize(
        "times",
        [np.linspace(-4.0, 4.0, 2000), np.linspace(-280.0, 280.0, 1001), [0.0, math.nan, 1.0], [],
         [-650.0, 1000.0], [1000.0, -690.0]],
        ids=["plot", "wide", "nan", "empty", "late-overflow", "first-overflow"],
    )
    def test_rows_are_those_of_a_step_per_time(self, lam, xi, eta, times):
        F, p0 = standard_flow() if lam == 1.0 else time_scale(standard_flow(), lam), QuarterPlanePoint(xi, eta)
        assert outcome(orbit_rows, F, p0, times) == outcome(step_rows, F, p0, times)

    def test_errors_are_those_of_the_step(self):
        # the first time out of range names itself, and an axis point whose
        # coordinate underflows reaches the origin, as flow_step reports
        F = standard_flow()
        with pytest.raises(ValueError, match=r"^\|t\| = 1000 exceeds"):
            orbit_rows(F, QuarterPlanePoint(0.1, 0.1), [-650.0, 1000.0, 2000.0])
        with pytest.raises(ValueError, match="^the origin is not in the quarter plane"):
            orbit_rows(F, QuarterPlanePoint(1e-30, 0.0), [0.0, -690.0, 1000.0])
        with pytest.raises(ValueError, match="^the origin"):
            orbit_rows(time_scale(F, 2.5), QuarterPlanePoint(1e-30, 0.0), [-1.0, -276.0])


class TestOrbitLeafData:
    """An orbit takes r, the breakpoints and the times to them once per leaf."""

    @pytest.mark.parametrize("xi, eta", [(0.1, 0.1), (0.6, 0.5), (0.9, 0.8)])  # window, blend, above c1
    def test_an_orbit_evaluates_f_at_one_point(self, xi, eta):
        f, points = builtin("koenigs_demo"), []

        def fn(x, _fn=f.fn):
            points.extend(np.ravel(x).tolist())
            return _fn(x)

        F = build_flow(dataclasses.replace(f, fn=fn), g=DEEP)
        points.clear()
        rows = orbit_rows(F, QuarterPlanePoint(xi, eta), np.linspace(-4.0, 4.0, 2000))
        assert len(rows) == 2000
        assert points == ([xi * eta] if xi * eta < F.c1 else [])

    @pytest.mark.parametrize("name", GALLERY)
    def test_one_leaf_gives_the_bits_of_a_leaf_per_time(self, gallery_flows, name):
        # the leaf data broadcast against t has the bits of taking it at every time
        F, t = time_scale(gallery_flows[name], 1.7), np.linspace(-6.0, 6.0, 2000)
        for c, s0 in ((0.01, -1.5), (0.3, -0.2), (0.7, 0.1), (DEEP.nodes()[6000], 0.0)):
            full = _leaf_position(F, np.full(t.shape, c), np.full(t.shape, s0), t)
            assert _leaf_position(F, c, s0, t).tobytes() == full.tobytes()

    @pytest.mark.parametrize("name", GALLERY)
    def test_leaves_in_arrays_give_the_bits_of_one_leaf_at_a_time(self, gallery_flows, name):
        # user transversals and flow_step pass arrays of leaves; each keeps its own bits
        F, rng = gallery_flows[name], np.random.default_rng(5)
        points = [QuarterPlanePoint(*(2.0 ** rng.uniform(-10.0, 0.5, 2))) for _ in range(40)]
        c, s0 = np.array([p.leaf_coords() for p in points]).T
        t = rng.uniform(-5.0, 5.0, 40)
        one = [float(_leaf_position(F, ci, si, ti)) for ci, si, ti in zip(c, s0, t)]
        assert _leaf_position(F, c, s0, t).tolist() == one
        grid = _leaf_position(F, c[:, None], s0[:, None], t[:7])
        assert grid.shape == (40, 7) and grid[:, 3].tolist() == _leaf_position(F, c, s0, t[3]).tolist()
        assert [flow_step(F, ti, p).xi for p, ti in zip(points, t)] == [math.exp(v) for v in one]


@pytest.fixture(scope="module")
def flow_cache():
    return build_flow(builtin("doubling_osc"), g=GridSpec())


@pytest.fixture(scope="module")
def gallery_flows():
    return {name: build_flow(builtin(name, params)) for name, params in GALLERY.items()}


HELD_GRIDS = {"512x40": GridSpec(512, 40), "4096x60": DEEP}
# p, the first node <= c1 = 1/2, is node K: inside the first 8-octave block at K = 4096, the end node of
# the first 1-octave block (the node the second block starts from) at K = 40000, and in the only block at K = 1
SOURCE_GRIDS = [GridSpec(4096, 60), GridSpec(40000, 16), GridSpec(1, 20)]


@pytest.fixture(scope="module")
def held_flows():
    return {(name, gid): build_flow(builtin(name, params), g=g)
            for name, params in GALLERY.items() for gid, g in HELD_GRIDS.items()}


class TestHeldValues:
    """A realized flow keeps its transit target T at the nodes in (0, c1] that build_flow sampled,
    with the grid, and flow_classify on that grid reads T there by node index."""

    @pytest.mark.parametrize("lam", [1.0, 1.7, 1e-3])
    @pytest.mark.parametrize("gid", HELD_GRIDS)
    @pytest.mark.parametrize("name", GALLERY)
    def test_held_values_give_the_bits_of_evaluating_f(self, held_flows, name, gid, lam):
        g, F = HELD_GRIDS[gid], time_scale(held_flows[name, gid], lam)
        assert F.held is held_flows[name, gid].held  # time scaling carries them
        cleared = dataclasses.replace(F, held=None)
        assert F == cleared
        dump = lambda rep: json.dumps(rep.to_json(), sort_keys=True)  # noqa: E731
        assert dump(flow_classify(F, g=g)) == dump(flow_classify(cleared, g=g))
        x = g.nodes()
        for c in (x, x[g.samples_per_octave // 2 :], x[::3], x[-5:].copy()):
            assert extract_transition(F, g)(c).tobytes() == extract_transition(cleared, g)(c).tobytes()

    @pytest.mark.parametrize("gid", HELD_GRIDS)
    @pytest.mark.parametrize("name,params", GALLERY.items())
    def test_build_and_classify_run_f_once_per_node_below_c1(self, name, params, gid):
        # flow_classify reads f from the values build_flow took, at every node
        # it needs: those below c1
        f, g, calls = builtin(name, params), HELD_GRIDS[gid], []

        def fn(x, _fn=f.fn):
            calls.append(np.array(x, dtype=float))
            return _fn(x)

        F = build_flow(dataclasses.replace(f, fn=fn), g=g)
        flow_classify(time_scale(F, 1.7), g=g)
        x = g.nodes()
        assert np.concatenate(calls).tobytes() == x[x <= F.c1].tobytes()

    @pytest.mark.parametrize("gid", HELD_GRIDS)
    @pytest.mark.parametrize("name", GALLERY)
    def test_held_values_are_the_transit_target(self, held_flows, name, gid):
        # build_flow keeps T at the last nodes of its grid, those <= c1, with the grid, the window and the shift
        F = held_flows[name, gid]
        f, g, window, T = F.held
        assert f is F.source and g == HELD_GRIDS[gid] and window == (F.c0, F.c1, F.shift) and not T.flags.writeable
        x = g.nodes()
        p = len(x) - len(T)  # the first node <= c1
        assert x[p] <= F.c1 < x[p - 1]
        assert T.tobytes() == dataclasses.replace(F, held=None).transit(x[p:]).tobytes()

    @pytest.mark.parametrize("lam", [1.0, 1.3, 0.01])
    @pytest.mark.parametrize("g", SOURCE_GRIDS, ids=["p-inside-block-0", "p-on-a-block-boundary", "one-block"])
    @pytest.mark.parametrize("name,params", GALLERY.items())
    def test_the_held_source_gives_the_bits_of_the_formula(self, name, params, g, lam):
        # node i >= p reads T[i - p] / lam by index and the nodes above c1 the formula; flow_classify
        # then evaluates no f, and its report and every block of the pass keep the formula's bits
        f, calls = builtin(name, params), []

        def fn(x, _fn=f.fn):
            calls.append(len(x))
            return _fn(x)

        F = time_scale(build_flow(dataclasses.replace(f, fn=fn), g=g), lam)
        cleared = dataclasses.replace(F, held=None)
        calls.clear()
        got = json.dumps(flow_classify(F, g=g).to_json(), sort_keys=True)
        assert calls == []
        assert got == json.dumps(flow_classify(cleared, g=g).to_json(), sort_keys=True)
        calls.clear()
        fv = np.empty(g.node_count)
        for _ in _octave_blocks(extract_transition(F, g), g, fv, source=_held_source(F, g)):
            pass
        assert calls == []
        assert fv.tobytes() == extract_transition(cleared, g)(g.nodes()).tobytes()

    def test_the_held_source_compares_no_nodes(self, held_flows, monkeypatch):
        F = time_scale(held_flows["std_log", "4096x60"], 1.7)
        want = json.dumps(flow_classify(dataclasses.replace(F, held=None), g=DEEP).to_json())
        with monkeypatch.context() as m:
            m.setattr(np, "array_equal", None)  # the grid decides, not the nodes' values
            assert _held_source(F, DEEP) is not None
            assert json.dumps(flow_classify(F, g=DEEP).to_json()) == want

    @pytest.mark.parametrize("replaced", ["window", "shift"])
    def test_a_replaced_window_or_shift_reads_no_held_values(self, replaced):
        # regression: the held T of the old window (or shift) was read, so s_3 read 0.3325 for 0.2994
        g, f, calls = GridSpec(512, 40), builtin("bounded_osc"), []

        def fn(x, _fn=f.fn):
            calls.append(len(x))
            return _fn(x)

        F = build_flow(dataclasses.replace(f, fn=fn), g=g)
        G = dataclasses.replace(F, **({"c0": 0.1, "c1": 0.2} if replaced == "window" else {"shift": F.shift + 1.0}))
        assert _held_source(G, g) is None
        want = flow_classify(dataclasses.replace(G, held=None), g=g).sigma.s_m
        assert flow_classify(G, g=g).sigma.s_m.tobytes() == want.tobytes()
        calls.clear()
        S = time_scale(F, 1.7)  # time scaling keeps the window, the shift and the held values
        assert S.held is F.held and _held_source(S, g) is not None
        flow_classify(S, g=g)
        assert calls == []  # no f at the nodes <= c1, nor above

    @pytest.mark.parametrize("case", ["replaced-source", "other-grid", "equal-nodes-other-spec", "user-transversal"])
    def test_the_formula_path_off_the_build_grid(self, held_flows, case):
        # only the flow's own source on its own grid, through the default transversal, reads T
        F, g, tv = held_flows["bounded_osc", "512x40"], GridSpec(512, 40), DEFAULT_TRANSVERSAL
        f, calls = builtin("bounded_osc", (2.0,)), []

        def fn(x, _fn=f.fn):
            calls.append(len(x))
            return _fn(x)

        counted = dataclasses.replace(f, fn=fn)
        if case == "replaced-source":
            F = dataclasses.replace(F, source=counted)
        else:
            F = dataclasses.replace(F, held=(counted,) + F.held[1:], source=counted)
        if case == "other-grid":
            g = GridSpec(512, 20)
        elif case == "equal-nodes-other-spec":
            g = GridSpec(512, 40, tail_octaves=30)
        elif case == "user-transversal":
            tv = Transversal(((1e-30, 1e-30, 1.0), (1.0, 1.0, 1.0)), ((1.0, 1e-30), (1.0, 1.0)))
        assert (_held_source(F, g) is None) == (case != "user-transversal")
        dump = lambda rep: json.dumps(rep.to_json(), sort_keys=True)  # noqa: E731
        want = dump(flow_classify(dataclasses.replace(F, held=None), tv, g))
        calls.clear()
        assert dump(flow_classify(F, tv, g)) == want
        assert sum(calls) >= int(np.count_nonzero(g.nodes() < F.c1))  # f runs at every node below c1

    @pytest.mark.parametrize("gid", HELD_GRIDS)
    @pytest.mark.parametrize("name", GALLERY)
    def test_the_held_values_are_never_written(self, held_flows, name, gid):
        F = held_flows[name, gid]
        g, T = F.held[1], F.held[3]
        before = T.tobytes()
        for lam in (1.0, 1.7, 1e-3):
            G = time_scale(F, lam)
            flow_classify(G, g=g)
            out = G.transit(g.nodes())
            assert not np.shares_memory(out, T) and out.flags.writeable
            transition_time(G, x=float(g.nodes()[-7]))
        assert T.tobytes() == before and not T.flags.writeable

    def test_another_source_never_reads_the_held_values(self, held_flows):
        F, other = held_flows["std_log", "4096x60"], builtin("bounded_osc", (2.0,))
        G = dataclasses.replace(F, source=other)
        x = DEEP.nodes()
        x = x[x <= F.c0]
        assert G.transit(x).tobytes() == (other(x) + F.shift).tobytes()
        assert G.transit(x).tobytes() != F.transit(x).tobytes()

    def test_off_grid_dip_before_a_run_of_nodes_still_raises(self, spike_flow):
        # the leaves below 0.30005 are held nodes; 0.30005 itself is evaluated
        path, g = spike_flow
        F = flow_from_json(json.loads(path.read_text()), g)
        x = g.nodes()
        c = np.sort(np.append(x, 0.30005))[::-1]
        with pytest.raises(DomainError, match="not positive at leaf c = 0.30005"):
            F.transit(c)
        assert F.transit(x).tobytes() == dataclasses.replace(F, held=None).transit(x).tobytes()


class TestTransition:
    def test_standard_closed_form(self):
        F = standard_flow()
        assert transition_time(F, DEFAULT_TRANSVERSAL, math.exp(-2.0)) == pytest.approx(
            2.0, abs=1e-12
        )
        assert transition_time(F, DEFAULT_TRANSVERSAL, 1.0) == 0.0
        # above the diagonal the crossing lies in the past
        assert transition_time(F, DEFAULT_TRANSVERSAL, math.e) == pytest.approx(-1.0, abs=1e-12)

    def test_prescribed_value_round_trip(self, grid):
        F = build_flow(builtin("doubling_osc"), g=grid)
        assert transition_time(F, DEFAULT_TRANSVERSAL, 2.0 ** -6) == pytest.approx(
            64.0, abs=1e-9
        )

    def test_extract_matches_prescription_exactly(self, grid):
        for name, params in (("std_log", ()), ("doubling_osc", ()), ("bounded_osc", (2.0,))):
            f = builtin(name, params)
            F = build_flow(f, g=grid)
            ext = extract_transition(F, grid)
            x = grid.nodes()
            sel = x <= F.c0
            got = np.asarray(ext(x[sel]))
            want = np.asarray(f(x[sel])) + F.shift
            assert float(np.max(np.abs(got - want))) <= 1e-9

    def test_time_scaling_law(self, grid):
        F = build_flow(builtin("doubling_osc"), g=grid)
        base = extract_transition(F, grid)(grid.nodes())
        for lam in (0.5, 2.0, 3.0):
            scaled = extract_transition(time_scale(F, lam), grid)(grid.nodes())
            want = base / lam
            rel = np.max(np.abs(scaled - want) / np.maximum(np.abs(want), 1e-300))
            assert rel <= 1e-10

    @pytest.mark.parametrize(
        "make",
        [
            standard_flow,
            lambda: time_scale(standard_flow(), 3.0),
            lambda: build_flow(builtin("bounded_osc", (2.0,))),
        ],
        ids=["standard", "standard-scaled", "bounded_osc"],
    )
    def test_transition_time_is_extraction_bitwise(self, make):
        # regression: the standard flow's transition_time used math.log and its
        # extraction np.log, 1 ulp apart at 7 default-grid nodes
        F = make()
        x = GridSpec().nodes()
        got = np.array([transition_time(F, DEFAULT_TRANSVERSAL, float(v)) for v in x])
        want = np.asarray(extract_transition(F)(x))
        assert np.count_nonzero(got.view(np.int64) != want.view(np.int64)) == 0

    def test_time_scale_identity(self, grid):
        F = build_flow(builtin("doubling_osc"), g=grid)
        assert transition_time(time_scale(F, 1.0), DEFAULT_TRANSVERSAL, 0.1) == transition_time(
            F, DEFAULT_TRANSVERSAL, 0.1
        )

    def test_time_scale_standard(self):
        F = time_scale(standard_flow(), 2.0)
        assert flow_to_json(F)["kind"] == "time_scaled"
        assert transition_time(F, DEFAULT_TRANSVERSAL, math.exp(-2.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_time_scale_validated(self):
        with pytest.raises(ValueError):
            time_scale(standard_flow(), 0.0)

    @pytest.mark.parametrize(
        "F, lam",
        [(standard_flow(), math.nan), (standard_flow(), math.inf), (Flow(lam=1e200), 1e200)],
        ids=["nan", "inf", "overflow"],
    )
    def test_time_scale_must_stay_finite(self, F, lam):
        # regression: a NaN or infinite factor gave NaN or zero transition times
        with pytest.raises(ValueError, match="must be positive and finite"):
            time_scale(F, lam)

    @pytest.mark.parametrize(
        "make", [standard_flow, lambda: build_flow(builtin("std_log"))], ids=["standard", "realized"]
    )
    @pytest.mark.parametrize("c, shown", [(-1.0, "-1"), (0.0, "0"), (math.nan, "nan")])
    def test_transit_rejects_a_leaf_that_is_not_positive(self, make, c, shown):
        # regression: the standard flow raised TypeError at c = -1 and gave inf
        # at c = 0, and both flows gave nan at a NaN leaf
        F = make()
        for leaves in (c, [0.5, c, 0.125, -2.0]):
            with pytest.raises(DomainError, match=rf"leaves c > 0, got c = {shown}$"):
                F.transit(leaves)

    @pytest.mark.parametrize("name", [*GALLERY, "doubling_osc scaled"])
    def test_transit_does_not_depend_on_the_pieces(self, gallery_flows, name):
        # a piece wholly in (0, c0] takes f + shift alone, with no log and no
        # masks; the cuts give pieces above c1, straddling c1 (node 4096) and
        # c0 (node 8192), and wholly inside (0, c0]
        F = gallery_flows[name.split()[0]]
        F = time_scale(F, 1.5) if "scaled" in name else F
        x = DEEP.nodes()
        cuts = [0, 4000, 4200, 8100, 8300, 20000, 40000, 40001, 150000, len(x)]
        for read in (F.transit, extract_transition(F)):
            whole = np.asarray(read(x))
            pieces = np.concatenate([np.asarray(read(x[a:b])) for a, b in zip(cuts, cuts[1:])])
            assert whole.tobytes() == pieces.tobytes()

    def test_parameter_validated(self):
        # regression: x = NaN gave NaN for the standard flow, and x = inf gave -inf for a built one
        for F in (standard_flow(), build_flow(builtin("std_log"))):
            for x in (0.0, math.nan, math.inf):
                with pytest.raises(DomainError, match="transition parameter must be positive"):
                    transition_time(F, DEFAULT_TRANSVERSAL, x)


class TestUserTransversals:
    @staticmethod
    def _near_default(n=33, span=8.0):
        xs = np.exp2(-np.linspace(0.0, span, n))[::-1]
        g1 = tuple((float(v), float(v), 1.0) for v in xs)
        g2 = tuple((1.0, float(v)) for v in xs)
        return Transversal(g1, g2)

    def test_matches_default_on_sampled_curves(self, grid):
        tv = self._near_default()
        F = build_flow(builtin("doubling_osc"), g=grid)
        for x in (0.02, 0.1, 0.2):
            t_user = transition_time(F, tv, x)
            t_def = transition_time(F, DEFAULT_TRANSVERSAL, x)
            assert t_user == pytest.approx(t_def, rel=1e-8)

    def test_standard_flow_via_bisection(self):
        tv = self._near_default()
        t = transition_time(standard_flow(), tv, 0.05)
        assert t == pytest.approx(-math.log(0.05), rel=1e-8)

    def test_leaf_outside_curve_range(self):
        tv = self._near_default(span=4.0)
        with pytest.raises(DomainError, match="range"):
            transition_time(standard_flow(), tv, 2.0 ** -6)

    def test_deep_leaf_closed_form(self, grid):
        # at x = 2^-40 the transit is ~2^40: the per-piece sum keeps it to rounding
        tv = self._near_default(83, 41.0)
        F = build_flow(builtin("doubling_osc"), g=grid)
        want = float(F.transit(2.0 ** -40))
        assert transition_time(F, tv, 2.0 ** -40) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("octave", [10, 12, 14])
    def test_doubling_osc_identity_curves_do_not_overflow(self, octave):
        # regression: the doubling bracket overshot |s| <= 700 at 2^-10 and 2^-14
        tv = self._near_default(64, 21.0)
        F = build_flow(builtin("doubling_osc"))
        t = transition_time(F, tv, 2.0 ** -octave)
        assert t == pytest.approx(float(F.transit(2.0 ** -octave)), rel=1e-13)
        assert t == pytest.approx(2.0 ** octave, rel=1e-12)

    @given(
        name=st.sampled_from(sorted(GALLERY)),
        n=st.integers(min_value=2, max_value=120),
        exps=st.lists(st.floats(min_value=0.0, max_value=40.0), min_size=1, max_size=20),
    )
    def test_identity_curves_match_default_closed_form(self, gallery_flows, name, n, exps):
        F = gallery_flows[name]
        x = np.exp2(-np.asarray(exps))
        user = extract_transition(F, tv=self._near_default(n, 40.0))(x)
        default = extract_transition(F)(x)
        # relative to max(1, |t|): the interpolated curve puts s = ln x off by
        # an ulp of |ln x_node| <= 28, which near x = 1, where t -> 0, is not
        # small relative to t itself
        np.testing.assert_allclose(user, default, rtol=1e-13, atol=1e-13)

    @given(
        which=st.sampled_from([("bounded_osc", -60.0), ("doubling_osc", -8.0), ("std_log", -60.0)]),
        u=st.floats(min_value=0.0, max_value=1.0),
        ends=st.lists(
            st.one_of(st.floats(min_value=-45.0, max_value=5.0), st.sampled_from(["lc-1", "lc", 0.0, 1.0])),
            min_size=2,
            max_size=2,
        ),
        lam=st.floats(min_value=0.25, max_value=4.0),
    )
    def test_leaf_position_inverts_leaf_time(self, gallery_flows, which, u, ends, lam):
        # times stay below ~1e3 here: a time of flight T carries an absolute
        # rounding of T * 2^-53, which the inverse turns into a position error
        name, lo = which
        F = gallery_flows[name]
        c = np.array([2.0 ** (lo * u) * 0.99])
        lc = float(np.log(c[0]))
        s1, s2 = (np.array([{"lc-1": lc - 1.0, "lc": lc}.get(e, e)], dtype=float) for e in ends)
        t = _leaf_time(time_scale(F, lam), c, s1, s2)
        assert float(_leaf_position(F, c, s1, t * lam)[0]) == pytest.approx(s2[0], abs=1e-12)
        assert float(_leaf_position(time_scale(F, lam), c, s1, t)[0]) == pytest.approx(s2[0], abs=1e-12)

    @pytest.mark.parametrize("c", [2.0 ** -30, 0.01, 0.3])
    def test_leaf_time_matches_quadrature(self, gallery_flows, c):
        # reference: the speed as the class docstring defines it, integrated
        # by the trapezoid rule on a fine grid
        F = gallery_flows["bounded_osc"]
        lc = math.log(c)
        r = -lc / float(F.transit(c))
        knots = [lc - 1.0, lc, 0.0, 1.0]
        s = np.union1d(np.linspace(lc - 2.5, 2.0, 400_001), knots)
        want = np.trapezoid(1.0 / np.interp(s, knots, [1.0, r, r, 1.0]), s)
        got = _leaf_time(F, np.array([c]), s[:1], s[-1:])[0]
        assert got == pytest.approx(want, rel=1e-9)

    G1, G2 = ((0.5, 0.5, 1.0), (1.0, 1.0, 1.0)), ((1.0, 0.5), (1.0, 1.0))

    @pytest.mark.parametrize(
        "g1, g2, message",
        [
            (((0.5, 1.0), (1.0, 1.0)), G2, "gamma1 nodes must be (x, xi, eta) triples"),
            (G1[:1], G2, "gamma1 nodes must be (x, xi, eta) triples"),
            (G1, ((1.0, 0.5, 1.0), (1.0, 1.0, 1.0)), "gamma2 nodes must be (xi, eta) pairs"),
            (G1, G2[:1], "gamma2 nodes must be (xi, eta) pairs"),
            (((0.5, 0.0, 1.0), (1.0, 1.0, 1.0)), G2, "must be interior"),
            (G1, ((1.0, -0.5), (1.0, 1.0)), "must be interior"),
            (G1[::-1], G2, "gamma1 parameter column must be strictly increasing"),
        ],
        ids=["g1-pairs", "g1-one-node", "g2-triples", "g2-one-node", "g1-on-axis", "g2-negative", "g1-descending"],
    )
    def test_node_validation(self, g1, g2, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Transversal(g1, g2)
        Transversal(self.G1, self.G2)  # the valid pair the cases start from

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("curve, column", [("gamma1", 0), ("gamma1", 1), ("gamma1", 2),
                                               ("gamma2", 0), ("gamma2", 1)])
    def test_non_finite_nodes_are_rejected(self, curve, column, value):
        # regression: a NaN parameter gave gamma1([0.5]) = nan, and an inf in gamma2
        # gave s_on_leaf2([1.0]) = nan, each from a transversal that was taken
        nodes = {"gamma1": [list(p) for p in self.G1], "gamma2": [list(p) for p in self.G2]}
        nodes[curve][0][column] = value
        with pytest.raises(ValueError, match=f"^{curve} nodes must be finite$"):
            Transversal(*(tuple(map(tuple, nodes[c])) for c in ("gamma1", "gamma2")))

    @pytest.mark.parametrize("x", [[0.0], [0.5, -1.0], [-0.0]], ids=["zero", "negative", "minus-zero"])
    @pytest.mark.parametrize("user", [False, True], ids=["default", "user"])
    def test_gamma1_rejects_a_parameter_that_is_not_positive(self, x, user):
        tv = Transversal(self.G1, self.G2) if user else DEFAULT_TRANSVERSAL
        with pytest.raises(DomainError, match="^transversal parameter must be positive$"):
            tv.gamma1(x)

    def test_validation(self):
        with pytest.raises(ValueError, match="both curves"):
            Transversal(gamma1_nodes=((1.0, 1.0, 1.0),), gamma2_nodes=None)
        with pytest.raises(ValueError, match="monotone"):
            Transversal(
                ((0.5, 0.5, 1.0), (1.0, 1.0, 1.0)),
                ((1.0, 0.5), (1.0, 0.7), (1.0, 0.6)),
            )


class TestSerialization:
    def test_round_trip_realized(self, grid, tmp_path):
        spec = {"builtin": "doubling_osc", "params": []}
        F = build_flow(builtin("doubling_osc"), g=grid, source_spec=spec)
        obj = flow_to_json(time_scale(F, 2.0))
        assert obj["kind"] == "time_scaled"
        G = flow_from_json(obj, grid)
        x = grid.nodes()[::64]
        a = np.array([transition_time(time_scale(F, 2.0), DEFAULT_TRANSVERSAL, v) for v in x])
        b = np.array([transition_time(G, DEFAULT_TRANSVERSAL, v) for v in x])
        np.testing.assert_array_equal(a, b)

    def test_standard_round_trip(self):
        obj = flow_to_json(standard_flow())
        assert obj == {"kind": "standard", "lambda": 1.0}
        assert flow_from_json(obj) == standard_flow()

    def test_csv_source(self, grid, tmp_path):
        p = tmp_path / "f.csv"
        x = np.exp2(-np.linspace(0.0, 12.0, 1201))
        rows = ["x,f"] + [f"{float(v)!r},{-math.log(v)!r}" for v in x]
        p.write_text("\n".join(rows) + "\n")
        G = flow_from_json(
            {"kind": "realized", "f": {"csv": str(p)}}, GridSpec(octave_max=12)
        )
        assert transition_time(G, DEFAULT_TRANSVERSAL, 0.125) == pytest.approx(
            math.log(8.0), rel=1e-9
        )

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="flow source"):
            flow_from_json({"kind": "realized", "f": {"what": 1}})

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"kind": "bogus", "f": {"builtin": "std_log"}}, "^unknown flow kind 'bogus'; "),
            ({"kind": "Realized", "f": {"builtin": "std_log"}}, "^unknown flow kind 'Realized'; "),
            ({"kind": None, "f": {"builtin": "std_log"}}, "^unknown flow kind None; "),
            ([1, 2], "^flow config must be a JSON object, got \\[1, 2\\]$"),
            ("standard", "^flow config must be a JSON object, got 'standard'$"),
            ({"kind": "realized", "f": {"builtin": "bounded_osc", "params": 5}}, "^flow source 'params' "),
            ({"kind": "realized", "f": {"csv": 5}}, "^flow source 'csv' "),
            ({"kind": "realized", "f": {"builtin": "std_log"}, "c0": None}, "^flow config 'c0' "),
            ({"lambda": True}, "^flow config 'lambda' must be a number, got True$"),
            (
                {"kind": "realized", "f": {"builtin": "std_log"}, "lamda": 2},
                "^flow config has unknown key 'lamda'; accepted: kind, lambda, c0, c1, shift, f$",
            ),
            (
                {"kind": "realized", "f": {"builtin": "bounded_osc", "param": [5]}},
                "^flow source has unknown key 'param'; accepted: builtin, params$",
            ),
            ({"kind": "standard", "c0": 0.3}, "^flow config has unknown key 'c0'; accepted: kind, lambda$"),
        ],
        ids=[
            "bogus", "Realized", "None", "list", "string", "params", "csv", "c0-null", "lambda-bool",
            "lamda-typo", "param-typo", "standard-c0",
        ],
    )
    def test_unknown_kind_rejected(self, obj, message):
        # regression: any kind but "standard" silently built a realized flow; a
        # config that is not an object, or a value of the wrong type, escaped as
        # an AttributeError or TypeError, and "lambda": true was read as 1.0;
        # an unknown key was dropped, so a misspelt "lamda" built a flow with
        # lambda 1 and "param" the default amplitude
        with pytest.raises(ValueError, match=message):
            flow_from_json(obj)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"builtin": "std_log", "params": [2]}, "flow source 'params': too many parameters for std_log: got 1"),
            ({"builtin": "bounded_osc", "params": [2, 3]}, "flow source 'params': too many parameters for"),
            ({"builtin": "bounded_osc", "params": [-1]}, "flow source 'params': bounded_osc amplitude must"),
            ({"builtin": "nope"}, "flow source 'builtin': unknown builtin 'nope'; "),
            ({"builtin": "bounded_osc", "params": [math.nan]},
             "flow source 'params': bounded_osc amplitude must be finite and >= 0, got nan"),
            ({"builtin": "bounded_osc", "params": [math.inf]},
             "flow source 'params': bounded_osc amplitude must be finite and >= 0, got inf"),
        ],
        ids=["std_log-param", "bounded_osc-two", "bounded_osc-negative", "unknown", "bounded_osc-nan", "bounded_osc-inf"],
    )
    def test_builtin_errors_name_the_key(self, spec, message):
        # regression: the builtin's own message, naming no key of the config
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            flow_from_json({"kind": "realized", "f": spec})

    @pytest.mark.parametrize(
        "shift, shown",
        [(5.0, "5.0"), ("abc", "'abc'"), (math.nan, "nan"), (math.inf, "inf"), (True, "True"), (None, "None")],
        ids=["differs", "string", "nan", "inf", "bool", "null"],
    )
    def test_a_shift_that_is_not_the_derived_lift_is_rejected(self, shift, shown):
        # regression: "shift" was an accepted key that nothing read, so 5.0 and "abc" loaded with shift 0.0
        obj = {"kind": "realized", "shift": shift, "f": {"builtin": "std_log"}}
        message = f"^flow config 'shift' {re.escape(shown)} is not the lift 0.0 build_flow derives on the grid$"
        with pytest.raises(ValueError, match=message):
            flow_from_json(obj)

    @pytest.mark.parametrize("amp", [2.0, 5.0, 10.0])
    @pytest.mark.parametrize("g", [GridSpec(512, 20), GridSpec(4096, 60)], ids=["512x20", "4096x60"])
    def test_a_written_flow_loads_on_its_grid(self, g, amp):
        spec = {"builtin": "bounded_osc", "params": [amp]}
        F = build_flow(builtin("bounded_osc", (amp,)), g=g, source_spec=spec)
        obj = json.loads(json.dumps(flow_to_json(time_scale(F, 1.5))))
        assert obj["shift"] == F.shift and (F.shift > 0.0) == (amp > 3.0)  # 5 and 10 dip below 0
        assert flow_to_json(flow_from_json(obj, g)) == obj
        if F.shift:  # the lift on another grid is another number
            with pytest.raises(ValueError, match="^flow config 'shift' "):
                flow_from_json(obj, GridSpec(512, 20) if g.samples_per_octave == 4096 else GridSpec(4096, 60))

    def test_orbit_rows(self, grid):
        F = build_flow(builtin("doubling_osc"), g=grid)
        rows = orbit_rows(F, QuarterPlanePoint(0.25, 1.0), np.linspace(0.0, 3.0, 7))
        assert len(rows) == 7
        products = [xi * eta for _, xi, eta in rows]
        np.testing.assert_allclose(products, 0.25, rtol=1e-12)

    def test_orbit_rows_and_csv(self, tmp_path):
        # plot --flow writes the rows of orbit_rows under a header, bit for bit
        cfgp = tmp_path / "flow.json"
        cfgp.write_text(json.dumps({"kind": "realized", "f": {"builtin": "doubling_osc", "params": []}}))
        assert main(["plot", "--flow", str(cfgp), "--grid", "512,20", "--x", "0.125", "--out", str(tmp_path)]) == 0
        header, *lines = (tmp_path / "orbit.csv").read_text().splitlines()
        assert header == "t,xi,eta"
        F = build_flow(builtin("doubling_osc"), g=GridSpec(512, 20))
        rows = orbit_rows(F, DEFAULT_TRANSVERSAL.point1(0.125), np.linspace(0.0, 2.0 * math.log(8.0), 201))
        got = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert np.array_equal(got.view(np.int64), np.array(rows).view(np.int64))
