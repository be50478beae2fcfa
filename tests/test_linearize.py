import dataclasses
import decimal
import math
import re
import tracemalloc

import numpy as np
import pytest

from reebflow import (
    ConvergenceFailure,
    DomainError,
    EquivalenceWitness,
    GridSpec,
    Homeo,
    LinearizeConfig,
    ToleranceFailure,
    WitnessReport,
    basin_of_zero,
    builtin,
    check_witness,
    gallery_homeo,
    koenigs_limit,
)
from reebflow import efunc, linearize
from reebflow.efunc import _blocks
from reebflow.oscillation import as_shift

# (builtin, homeo) pairs linearized with the derived shift lam*f - f o h
DERIVED = [("koenigs_demo", "square"), ("std_log", "square"), ("doubling_osc", "halve")]
FLOOR = linearize._DEPTH_FLOOR  # orbit depth at which the derived shift is taken as settled
MULTI = GridSpec(samples_per_octave=4096, octave_max=20)  # 81,921 nodes


def nan_below_the_grid():
    """koenigs_demo, NaN on [2^-600, 2^-300]: below the (64, 30) grid, above FLOOR."""
    f = builtin("koenigs_demo")

    def fn(x, _fn=f.fn):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 2.0**-600) & (x <= 2.0**-300), np.nan, _fn(x))

    return dataclasses.replace(f, fn=fn)


def koenigs_shift(x):
    x = np.asarray(x, dtype=float)
    return 2.0 * x / (1.0 + x) - x * x / (1.0 + x * x)


def counting(f):
    """f, recording a copy of every array it is evaluated on."""
    calls = []

    def fn(x, _fn=f.fn):
        calls.append(np.array(x, dtype=float))
        return _fn(x)

    return dataclasses.replace(f, fn=fn), calls


def marking(fn, marks, calls):
    """fn, appending len(calls) to marks each time it is called."""

    def marked(*args):
        marks.append(len(calls))
        return fn(*args)

    return marked


def direct_iterate(f, h, lam, n, x):
    """The textbook iterate lam^-n f(h^n(x)) at one point, the oracle of the Koenigs limit.

    Callers keep n small enough that h^n(x) stays well above the underflow floor.
    """
    for _ in range(n):
        x = h(x)
    if x < 1e-280:
        raise ValueError(f"orbit point h^{n} underflowed; reduce n")
    return lam ** (-n) * float(f(x))


def series_reference(f, h, lam, res, x):
    """f_inf at x in the basin as the series f + shift - sum_n lam^(-n-1) k_s o h^n.

    k_s = lam*f - f o h - k0, taken as 0 where h^n(x) or h^(n+1)(x) is at or
    below FLOOR; each term evaluates f twice.
    """
    acc = np.zeros_like(x)
    cur = x.copy()
    for n in range(res.iterations):
        hx = np.asarray(h(cur), dtype=float)
        live = (cur > FLOOR) & (hx > FLOOR)
        ks = np.zeros_like(cur)
        ks[live] = lam * f(cur[live]) - f(hx[live]) - res.k0
        acc += lam ** (-n - 1) * ks
        cur = hx
    return np.asarray(f(x)) + res.shift - acc


def decimal_iterate(name, hid, res, x):
    """lam^(-M) (f(h^M(x)) + shift) for lam = 2 in 40-digit decimal arithmetic.

    M is ``res.iterations``, cut at the first n where the double orbit point
    h^n(x) or h^(n+1)(x) is at or below FLOOR.
    """
    h = gallery_homeo(hid)
    y, m = x, 0
    while m < res.iterations and y > FLOOR and float(h(y)) > FLOOR:
        y, m = float(h(y)), m + 1
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        yd = decimal.Decimal(x)
        for _ in range(m):
            yd = yd * yd if hid == "square" else yd / 2
        fd = -yd.ln() + (yd / (1 + yd) if name == "koenigs_demo" else 0)
        return (fd + decimal.Decimal(res.shift)) / 2**m


@pytest.fixture(scope="module")
def cfg(grid):
    return LinearizeConfig(2.0, grid)


class TestBoundedCase:
    def test_std_log_squares_to_truncated_log(self, grid, cfg):
        # 2^-n * (-ln(x^(2^n))) = -ln x exactly on (0, 1), 0 beyond
        res = koenigs_limit(builtin("std_log"), gallery_homeo("square"), None, cfg)
        assert res.case == "bounded"
        assert res.b == pytest.approx(1.0, rel=1e-12)
        assert res.residual <= 1e-12
        p = res.probes
        assert np.max(np.abs(res.f_inf(p) + np.log(p))) <= 1e-12
        assert np.all(res.f_inf(np.array([1.0, 2.0, 8.0])) == 0.0)

    def test_koenigs_demo_sheds_its_perturbation(self, grid, cfg):
        f = builtin("koenigs_demo")
        res = koenigs_limit(f, gallery_homeo("square"), koenigs_shift, cfg)
        assert res.case == "bounded"
        assert res.residual <= 1e-10
        p = res.probes
        assert np.all(p <= 0.99)
        assert np.max(np.abs(res.f_inf(p) - np.maximum(-np.log(p), 0.0))) <= 1e-8
        # the discarded part is exactly x/(1+x), continuous with limit 0 at 0
        gap = np.abs(np.asarray(f(p)) - np.asarray(res.f_inf(p)))
        assert np.max(np.abs(gap - p / (1.0 + p))) <= 1e-10
        oct5 = np.abs(float(f(2.0 ** -5)) - float(res.f_inf(2.0 ** -5)))
        oct30 = np.abs(float(f(2.0 ** -30)) - float(res.f_inf(2.0 ** -30)))
        assert oct30 < oct5

    def test_derived_shift_matches_explicit(self, grid, cfg):
        f = builtin("koenigs_demo")
        h = gallery_homeo("square")
        a = koenigs_limit(f, h, koenigs_shift, cfg)
        b = koenigs_limit(f, h, None, cfg)
        p = a.probes
        assert np.max(np.abs(a.f_inf(p) - b.f_inf(p))) <= 1e-9

    def test_telescoping_bound_everywhere(self, grid, cfg):
        f = builtin("koenigs_demo")
        res = koenigs_limit(f, gallery_homeo("square"), koenigs_shift, cfg)
        p = res.probes
        lhs = np.abs(np.asarray(f(p)) + res.shift - np.asarray(res.f_inf(p)))
        assert np.all(lhs <= res.telescoping_bound(p) + 1e-15)

    @pytest.mark.parametrize("name,hid", DERIVED)
    def test_telescoping_bound_of_a_derived_shift(self, name, hid):
        # the bound sums |k_s| along orbits that start at points f has not seen
        f = builtin(name)
        res = koenigs_limit(f, gallery_homeo(hid), None, LinearizeConfig(2.0, GridSpec(64, 24)))
        p = res.probes
        lhs = np.abs(np.asarray(f(p)) + res.shift - np.asarray(res.f_inf(p)))
        assert np.all(lhs <= res.telescoping_bound(p) + 1e-15)

    @pytest.mark.parametrize("name,hid", DERIVED)
    def test_telescoping_bound_is_nan_at_nan(self, grid, cfg, name, hid):
        # regression: at a NaN x the bound read the slack alone (1.22e-4, 3.55e-15
        # and 0.03125 for these three), while f_inf there is NaN
        res = koenigs_limit(builtin(name), gallery_homeo(hid), None, cfg)
        x = np.array([math.nan, 0.5, math.nan])
        got = res.telescoping_bound(x)
        assert np.isnan(got).tolist() == np.isnan(res.f_inf(x)).tolist() == [True, False, True]
        assert got[1] == res.telescoping_bound(np.array([0.5]))[0]
        assert math.isnan(res.telescoping_bound(math.nan))

    @pytest.mark.parametrize("name,hid", DERIVED)
    def test_f_inf_keeps_its_domain_check_at_nan(self, cfg, name, hid):
        # a NaN beside x <= 0 no longer hides it from f_inf's domain check, held probes or not
        res = koenigs_limit(builtin(name), gallery_homeo(hid), None, cfg)
        for x in ([math.nan, -1.0], [0.0, math.nan], [*res.probes[:3], math.nan, -res.probes[0]]):
            with pytest.raises(DomainError, match=" is defined on x > 0$"):
                res.f_inf(np.array(x))
        assert np.isnan(res.f_inf(np.array([math.nan, 0.5]))).tolist() == [True, False]

    def test_direct_iteration_oracle(self, grid, cfg):
        # the stable series against the textbook iterate at safe depths
        f = builtin("koenigs_demo")
        res = koenigs_limit(f, gallery_homeo("square"), koenigs_shift, cfg)
        for x in (0.3, 0.5, 0.7, 0.9):
            want = direct_iterate(f, gallery_homeo("square"), 2.0, 9, x)
            assert float(res.f_inf(x)) == pytest.approx(want, abs=1e-10)

    def test_constant_normalization_recorded(self, grid):
        # lifting f by 1 turns k into k + (lam - 1); the solver must undo it
        f = builtin("koenigs_demo").shifted(1.0)
        k = lambda x: koenigs_shift(x) + 1.0  # noqa: E731
        res = koenigs_limit(f, gallery_homeo("square"), k, LinearizeConfig(2.0, GridSpec()))
        assert res.k0 == pytest.approx(1.0, rel=1e-12)
        assert res.shift == pytest.approx(-1.0, rel=1e-12)
        p = res.probes
        assert np.max(np.abs(res.f_inf(p) + np.log(p))) <= 1e-8


class TestKoenigsIterate:
    """With a derived shift f_inf is the Koenigs iterate lam^(-M) (f o h^M + shift)."""

    @pytest.mark.parametrize("name,hid", DERIVED)
    def test_f_inf_evaluates_f_once_per_point(self, small_grid, name, hid):
        # the probes and their images are held from the limit computation;
        # any other set is walked, f once per point
        f, calls = counting(builtin(name))
        h = gallery_homeo(hid)
        res = koenigs_limit(f, h, None, LinearizeConfig(2.0, small_grid))
        calls.clear()
        res.f_inf(res.probes)
        res.f_inf(h(res.probes))
        assert calls == []
        res.f_inf(res.probes[1:].copy())
        assert [c.size for c in calls] == [res.probes.size - 1]

    @pytest.mark.parametrize(
        "name,hid,g",
        [(name, hid, None) for name, hid in DERIVED]
        + [("std_log", "square", MULTI), ("doubling_osc", "halve", MULTI)],
        ids=[f"{name}-{hid}" for name, hid in DERIVED] + ["std_log-square-multi", "doubling_osc-halve-multi"],
    )
    def test_sweeps_evaluate_f_once_each(self, small_grid, monkeypatch, name, hid, g):
        # the witness check is sweep 0: before the settling test f runs at the
        # nodes, block by block, then at the images it cannot read from them.
        # halve carries x_i onto x_(i+K), so only the last K images are
        # evaluated, in one call; square keeps no image on a node, so all are,
        # block by block.  The settling test reads sweep 0, so f does not run
        # again before the basin.  After it only sweeps 1 .. iterations-1 run,
        # then the residual's right side and, in the global case, the
        # tail-decay law's one f_inf call at its 11 points
        g = g or small_grid
        f, calls = counting(builtin(name))
        h = gallery_homeo(hid)
        marks = []
        monkeypatch.setattr(linearize, "_settled_shift", marking(linearize._settled_shift, marks, calls))
        monkeypatch.setattr(linearize, "basin_of_zero", marking(linearize.basin_of_zero, marks, calls))
        res = koenigs_limit(f, h, None, LinearizeConfig(2.0, g))
        settle, basin = marks
        assert basin == settle
        x = g.nodes()
        blocks = list(_blocks(x.size))
        assert len(blocks) > 1 or g is small_grid
        for s, fx in zip(blocks, calls):
            assert np.array_equal(fx, x[s])
        images = calls[len(blocks) : settle]
        if hid == "halve":
            assert [c.size for c in images] == [g.samples_per_octave]
            assert np.array_equal(images[0], h(x[-g.samples_per_octave :]))
        else:
            assert len(images) == len(blocks)
            for s, fhx in zip(blocks, images):
                assert np.array_equal(fhx, h(x[s]))
        # after it each block of probes has its own walk, and the walks take
        # sweeps 1 .. iterations-1 in lockstep: per sweep, f runs once per block
        # with points left, at h of that block's points of the previous sweep
        # still above the floor; the probes descend, so those are a prefix.
        # Without a node shift the residual's f_inf(h(x)) is sweep
        # ``iterations``, one more such sweep; under halve it walks only the
        # orbits of the last K images, whose points are no probes
        n, p = res.iterations, res.probes
        after, pos = calls[basin:], 0
        ys = [h(p[s]) for s in _blocks(p.size)]
        for _ in range(n - 1 if hid == "halve" else n):
            seen = []
            for b, y in enumerate(ys):
                hy = h(y)
                live = (y > FLOOR) & (hy > FLOOR)
                ys[b] = hy[: np.count_nonzero(live)]
                assert np.all(live[: ys[b].size])
                if ys[b].size:
                    assert np.array_equal(after[pos], ys[b])
                    seen.append(after[pos])
                    pos += 1
            if seen:  # f sees no point twice in a sweep
                assert np.unique(np.concatenate(seen)).size == sum(c.size for c in seen)
        tail = after[pos:]
        if hid == "halve":
            residual, *tail = tail
            orbits = [h(p[-g.samples_per_octave :])]
            for _ in range(n):
                orbits.append(h(orbits[-1]))
            assert residual.size == g.samples_per_octave
            assert np.all(np.isin(residual, np.concatenate(orbits)))
        assert [c.size for c in tail] == ([linearize._DECAY_STEPS + 1] if res.case == "global" else [])

    @pytest.mark.parametrize("g", [None, MULTI], ids=["single", "multi"])
    @pytest.mark.parametrize(
        "name,hid,k", [("koenigs_demo", "square", koenigs_shift), ("doubling_osc", "halve", 0.0)],
        ids=["bounded", "global"],
    )
    def test_explicit_shift_evaluates_f_only_in_the_witness_sweep(self, small_grid, monkeypatch, name, hid, k, g):
        # an explicit k is summed as a series, which evaluates k, not f, along
        # the orbits.  f runs in the witness sweep as for a derived k: at the
        # nodes, block by block, then at the images it cannot read from them.
        # f_inf at the probes and at their images reads f there from that
        # sweep, so after the basin f runs only at the tail-decay law's one
        # f_inf call at its 11 points, in the global case
        g = g or small_grid
        f, calls = counting(builtin(name))
        h = gallery_homeo(hid)
        marks = []
        monkeypatch.setattr(linearize, "basin_of_zero", marking(linearize.basin_of_zero, marks, calls))
        res = koenigs_limit(f, h, k, LinearizeConfig(2.0, g))
        x = g.nodes()
        blocks = list(_blocks(x.size))
        assert len(blocks) > 1 or g is small_grid
        assert [bits(c) for c in calls[: len(blocks)]] == [bits(x[s]) for s in blocks]
        images = calls[len(blocks) : marks[0]]
        if hid == "halve":
            assert [bits(c) for c in images] == [bits(h(x[-g.samples_per_octave :]))]
        else:
            assert [bits(c) for c in images] == [bits(h(x[s])) for s in blocks]
        tail = calls[marks[0] :]
        assert [c.size for c in tail] == ([linearize._DECAY_STEPS + 1] if res.case == "global" else [])

    def test_explicit_shift_runs_at_every_node_under_an_h_that_is_not_increasing(self, small_grid):
        # the witness check keeps f from the images of such an h, but not k
        # from the nodes: k's own error is raised, else the failed relation
        h = Homeo(lambda x: x / 2 * (1 + 0.9 * np.sin(50 * np.log(x))))
        seen = []

        def k(x):
            seen.append(np.array(x))
            return 0.0 * x

        with pytest.raises(ValueError, match="; h is not increasing on the grid$"):
            koenigs_limit(builtin("std_log"), h, k, LinearizeConfig(2.0, small_grid))
        assert bits(np.concatenate(seen)) == bits(small_grid.nodes())

        def failing(x):
            raise ZeroDivisionError("k is undefined at these nodes")

        with pytest.raises(ZeroDivisionError, match="^k is undefined at these nodes$"):
            koenigs_limit(builtin("std_log"), h, failing, LinearizeConfig(2.0, small_grid))

    def test_non_monotone_h_is_rejected_before_f_sees_its_images(self, small_grid):
        # the derived shift lam*f - f o h must not evaluate f at h(x) either
        f, calls = counting(builtin("std_log"))
        h = Homeo(lambda x: x / 2 * (1 + 0.9 * np.sin(50 * np.log(x))))
        with pytest.raises(ValueError, match="; h is not increasing on the grid"):
            koenigs_limit(f, h, None, LinearizeConfig(2.0, small_grid))
        assert np.array_equal(np.concatenate(calls), small_grid.nodes())

    @pytest.mark.parametrize("name,hid", DERIVED)
    def test_matches_the_shift_series(self, small_grid, name, hid):
        f, h = builtin(name), gallery_homeo(hid)
        res = koenigs_limit(f, h, None, LinearizeConfig(2.0, small_grid))
        p = res.probes
        want = series_reference(f, h, 2.0, res, p)
        got = res.f_inf(p)
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 4e-16

    @pytest.mark.parametrize("name,hid", DERIVED[:2])
    def test_no_less_accurate_than_the_series(self, small_grid, name, hid):
        # against the iterate in 40 digits, on probes cut and not cut by the floor
        f, h = builtin(name), gallery_homeo(hid)
        res = koenigs_limit(f, h, None, LinearizeConfig(2.0, small_grid))
        p = res.probes[:: res.probes.size // 12]
        exact = [decimal_iterate(name, hid, res, float(x)) for x in p]
        scale = np.array([max(1.0, abs(float(e))) for e in exact])

        def err(values):
            return np.array([abs(decimal.Decimal(v) - e) for v, e in zip(values, exact)], dtype=float) / scale

        telescoped, series = err(res.f_inf(p)), err(series_reference(f, h, 2.0, res, p))
        assert np.max(telescoped) <= 2.0**-52
        assert np.max(telescoped) <= max(np.max(series), 2.0**-53)


def telescoped_reference(f, h, lam, res, x):
    """lam^(-M) (f(h^M(x)) + shift) over whole arrays, M = ``res.iterations`` cut
    at the first n where h^n(x) or h^(n+1)(x) is at or below FLOOR; 0 at or
    above b."""
    y, m = x.copy(), np.zeros(x.size, dtype=int)
    live = np.ones(x.size, dtype=bool)
    for n in range(res.iterations):
        hy = np.asarray(h(y), dtype=float)
        live &= (y > FLOOR) & (hy > FLOOR)
        y[live], m[live] = hy[live], n + 1
    out = (lam ** -np.arange(res.iterations + 1.0))[m] * (np.asarray(f(y)) + res.shift)
    return out if res.b is None else np.where(x < res.b, out, 0.0)


def explicit_reference(f, h, k, lam, res, x):
    """f + shift - sum_n lam^(-n-1) (k - k0)(h^n x) over ``res.iterations`` terms;
    an explicit k is summed with no floor."""
    acc, y = np.zeros(x.size), x
    for n in range(res.iterations):
        acc += lam ** (-n - 1) * (np.asarray(k(y), dtype=float) - res.k0)
        y = np.asarray(h(y), dtype=float)
    return np.asarray(f(x), dtype=float) + res.shift - acc


class TestHeldValues:
    """f_inf at the probes and at their images comes from the limit
    computation: the bits of a fresh walk, in the held array itself, read-only."""

    CASES = [(name, hid, None) for name, hid in DERIVED] + [
        ("koenigs_demo", "square", koenigs_shift),
        ("doubling_osc", "halve", lambda x: 0.0 * x),
    ]
    IDS = [f"{name}-{hid}" for name, hid in DERIVED] + ["explicit-square", "explicit-halve"]

    @pytest.fixture(scope="class")
    def results(self):
        return {
            (gid, name, hid, k is None): koenigs_limit(
                builtin(name), gallery_homeo(hid), k, LinearizeConfig(2.0, g, tol=1e-9)
            )
            for gid, g in (("single", GridSpec(64, 24, 10)), ("multi", MULTI))
            for name, hid, k in self.CASES
        }

    @pytest.mark.parametrize("gid", ["single", "multi"])
    @pytest.mark.parametrize("name,hid,k", CASES, ids=IDS)
    def test_held_values_are_the_walked_bits(self, results, gid, name, hid, k):
        res = results[gid, name, hid, k is None]
        assert res.case == ("global" if hid == "halve" else "bounded")
        f, h = builtin(name), gallery_homeo(hid)
        for x in (res.probes, np.asarray(h(res.probes))):
            if k is None:
                want = telescoped_reference(f, h, 2.0, res, x)
            else:
                want = explicit_reference(f, h, as_shift(k), 2.0, res, x)
            assert bits(res.f_inf(x)) == bits(want)
            assert bits(res.f_inf(x.reshape(-1, 1))) == bits(want)  # walked, not held

    def test_images_of_probes_with_no_live_sweep_are_walked(self):
        # x^20 sinks below FLOOR in one step from the deep probes, across
        # blocks: their images are walked, the others end the orbits one sweep on
        f, h = builtin("std_log"), gallery_homeo("pow:20")
        res = koenigs_limit(f, h, None, LinearizeConfig(20.0, GridSpec(4096, 52)))
        images = np.asarray(h(res.probes))
        assert np.count_nonzero(images <= FLOOR) > 2 * 4096
        assert bits(res.f_inf(images)) == bits(telescoped_reference(f, h, 20.0, res, images))

    @pytest.mark.parametrize("name,hid,k", CASES, ids=IDS)
    def test_writing_into_an_answer_leaves_the_next_alone(self, results, name, hid, k):
        res = results["single", name, hid, k is None]
        for x in (res.probes, gallery_homeo(hid)(res.probes)):
            want = bits(res.f_inf(x))
            got = res.f_inf(x)
            with pytest.raises(ValueError, match="read-only"):
                got += 1.0
            assert bits(res.f_inf(x)) == want

    @pytest.mark.parametrize("gid", ["single", "multi"])
    @pytest.mark.parametrize("name,hid,k", CASES, ids=IDS)
    def test_the_held_points_get_one_read_only_object(self, results, gid, name, hid, k):
        res = results[gid, name, hid, k is None]
        h = gallery_homeo(hid)
        for points in (lambda: res.probes, lambda: h(res.probes), lambda: res.probes.copy()):
            got = res.f_inf(points())
            assert res.f_inf(points()) is got and not got.flags.writeable
            assert bits(got) == bits(res.f_inf(points().reshape(-1, 1)))  # walked, not held
        assert res.f_inf(res.probes.copy()) is res.f_inf(res.probes)

    @pytest.mark.parametrize("gid", ["single", "multi"])
    @pytest.mark.parametrize("name,hid,k", CASES, ids=IDS)
    def test_another_first_point_is_walked_with_no_whole_compare(self, results, monkeypatch, gid, name, hid, k):
        res = results[gid, name, hid, k is None]
        held = res.f_inf(res.probes)
        x = res.probes.copy()
        x[0] = np.nextafter(x[0], 0.0)
        compares = []
        monkeypatch.setattr(np, "array_equal", lambda *a, **kw: compares.append(a) or True)
        got = res.f_inf(x)
        assert compares == []
        assert got is not held and got.flags.writeable
        assert bits(got[1:]) == bits(held[1:]) and bits(got[:1]) != bits(held[:1])

    @pytest.mark.parametrize("name,hid,k", CASES, ids=IDS)
    def test_another_shape_is_walked_into_its_own_shape(self, small_grid, name, hid, k):
        f, calls = counting(builtin(name))
        res = koenigs_limit(f, gallery_homeo(hid), k, LinearizeConfig(2.0, small_grid, tol=1e-9))
        calls.clear()
        column = res.f_inf(res.probes.reshape(-1, 1))
        assert column.shape == (res.probes.size, 1)
        assert [c.size for c in calls] == [res.probes.size]
        assert bits(column) == bits(res.f_inf(res.probes))


def scalar_tail_decay(f_inf, h, lam):
    """The tail-decay law read point by point: f_inf at 1 and at each preimage h^-n(1) in its own call."""
    base = float(f_inf(1.0))
    worst, cur = 0.0, 1.0
    for n in range(1, linearize._DECAY_STEPS + 1):
        cur = h.inverse(cur)
        want = lam ** (-n) * base
        worst = max(worst, abs(float(f_inf(cur)) - want) / max(1e-300, abs(want)))
    return worst


class TestSharedBuffers:
    """The read-out writes f_inf into the arrays of the first sweep: over f at the probes, under a node
    shift into the same buffer j on for the images, and without one over sweep 0's f(h(x)) when the walk
    took one sweep.  Each path gives the bits of whole-array references."""

    CASES = [(name, hid, None, 2.0) for name, hid in DERIVED] + [
        ("std_log", "pow:3", None, 3.0),
        ("doubling_osc+x^2", "halve", None, 2.0),  # a node shift over 11 sweeps
        ("doubling_osc+1", "halve", 1.0, 2.0),  # an explicit k keeps its own arrays under a node shift
    ]
    IDS = [f"{name}-{hid}" for name, hid, _, _ in CASES[:-1]] + ["explicit-halve"]
    SWEEPS = {"koenigs_demo": 12, "doubling_osc+x^2": 11}  # else one

    @staticmethod
    def profile(name):
        if name == "doubling_osc+x^2":
            return builtin("doubling_osc").plus(lambda x: np.asarray(x) ** 2, "x^2")
        if name == "doubling_osc+1":
            return builtin("doubling_osc").shifted(1.0)
        return builtin(name)

    @pytest.fixture(scope="class")
    def results(self):
        return {
            (gid, name, hid): koenigs_limit(
                self.profile(name), gallery_homeo(hid), k, LinearizeConfig(lam, g, tol=1e-9)
            )
            for gid, g in (("4096x60", GridSpec(4096, 60)), ("multi", MULTI))
            for name, hid, k, lam in self.CASES
        }

    @pytest.mark.parametrize("gid", ["4096x60", "multi"])
    @pytest.mark.parametrize("name,hid,k,lam", CASES, ids=IDS)
    def test_held_values_are_the_whole_array_bits(self, results, gid, name, hid, k, lam):
        res = results[gid, name, hid]
        f, h = self.profile(name), gallery_homeo(hid)
        assert res.iterations == self.SWEEPS.get(name, 1)
        for x in (res.probes, np.asarray(h(res.probes))):
            if k is None:
                want = telescoped_reference(f, h, lam, res, x)
            else:
                want = explicit_reference(f, h, as_shift(k), lam, res, x)
            assert bits(res.f_inf(x)) == bits(want)

    @pytest.mark.parametrize("gid", ["4096x60", "multi"])
    @pytest.mark.parametrize("name,hid,k,lam", CASES, ids=IDS)
    def test_walked_points_give_the_held_bits(self, results, gid, name, hid, k, lam):
        res = results[gid, name, hid]
        h = gallery_homeo(hid)
        for x in (res.probes, np.asarray(h(res.probes))):
            walked = res.f_inf(x[::3])
            assert walked.flags.writeable  # a fresh array: walked, not held
            assert bits(walked) == bits(res.f_inf(x)[::3])

    @pytest.mark.parametrize("gid", ["4096x60", "multi"])
    @pytest.mark.parametrize("name,hid,k,lam", CASES, ids=IDS)
    def test_tail_decay_read_in_one_call_has_the_scalar_bits(self, results, gid, name, hid, k, lam):
        res = results[gid, name, hid]
        if res.case == "bounded":
            assert res.tail_decay_dev is None
            return
        assert bits(res.tail_decay_dev) == bits(scalar_tail_decay(res.f_inf, gallery_homeo(hid), lam))


class TestReadOutChecks:
    """f_inf skips the domain pass only where it holds its values, and gives NaN at NaN in both basin cases."""

    @pytest.mark.parametrize("name,hid", DERIVED)
    def test_held_points_skip_the_domain_pass(self, small_grid, monkeypatch, name, hid):
        h = gallery_homeo(hid)
        res = koenigs_limit(builtin(name), h, None, LinearizeConfig(2.0, small_grid))
        images = h(res.probes)
        seen = []
        check = efunc.EFunction._check_domain

        def spy(self, *bounds):
            seen.append((self, bounds))
            return check(self, *bounds)

        monkeypatch.setattr(efunc.EFunction, "_check_domain", spy)
        res.f_inf(res.probes)
        res.f_inf(images)
        assert seen == []
        res.f_inf(res.probes[1:].copy())  # walked: checked once, then f runs at the orbit ends
        assert [a for fn, a in seen if fn is res.f_inf] == [(res.probes[-1], math.inf)]
        for bad in (0.0, -1.0, np.array([0.5, -0.5])):
            with pytest.raises(DomainError, match="is defined on x > 0"):
                res.f_inf(bad)

    @pytest.mark.parametrize("name,hid", DERIVED)
    def test_nan_stays_nan(self, grid, name, hid):
        # the bounded case used to give 0 at NaN, as from b on
        res = koenigs_limit(builtin(name), gallery_homeo(hid), None, LinearizeConfig(2.0, grid))
        assert math.isnan(res.f_inf(math.nan))
        x = np.array([math.nan, 0.5, 2.0, 4.0])
        got = res.f_inf(x)
        assert math.isnan(got[0]) and bits(got[1:]) == bits(res.f_inf(x[1:]))
        if res.case == "bounded":
            assert res.b == 1.0 and bits(got[2:]) == bits(np.zeros(2))


class TestPeakMemory:
    """One warm call at (4096, 60) holds one sweep of orbit state beside the arrays it returns."""

    MIB = 1 << 20

    @pytest.mark.parametrize("name,hid,k,peak_mib,held_mib", [
        ("koenigs_demo", "square", None, 10.5, 5.7), ("koenigs_demo", "square", koenigs_shift, 9.5, 5.7),
        ("std_log", "square", None, 7.5, 5.7), ("doubling_osc", "halve", None, 5.5, 3.8),
    ], ids=["koenigs_demo-square", "explicit-square", "std_log-square", "doubling_osc-halve"])
    def test_traced_peak_and_the_bytes_the_result_holds(self, name, hid, k, peak_mib, held_mib):
        # measured: peaks of 10.35, 8.99, 7.13 and 5.28 MiB; each holds 5.63 MiB, the images, f_inf
        # there and f_inf at the probes, but halve 3.78 MiB, where the last two are one buffer
        f, h, cfg = builtin(name), gallery_homeo(hid), LinearizeConfig(2.0, GridSpec(4096, 60))
        koenigs_limit(f, h, k, cfg)  # warm: the grid's nodes are cached
        tracemalloc.start()
        try:
            res = koenigs_limit(f, h, k, cfg)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.residual <= cfg.tol
        assert peak <= peak_mib * self.MIB and held <= held_mib * self.MIB, (peak, held)


class TestMultiBlock:
    """On 81,921 nodes, three blocks: the blocked first sweep and the orbit ends
    give the bits of whole-array passes."""

    @pytest.fixture(scope="class")
    def results(self):
        # 20 octaves are too shallow for koenigs_demo's shift to settle within
        # the default tol, so the gates are loosened to 1e-9 for all pairs
        cfg = LinearizeConfig(2.0, MULTI, tol=1e-9)
        return {
            (name, hid): koenigs_limit(builtin(name), gallery_homeo(hid), None, cfg)
            for name, hid in DERIVED
        }

    def test_grid_spans_several_blocks(self):
        assert len(list(_blocks(MULTI.node_count))) == 3

    @pytest.mark.parametrize("name,hid", DERIVED)
    def test_f_inf_is_the_telescoped_iterate(self, results, name, hid):
        res = results[name, hid]
        f, h = builtin(name), gallery_homeo(hid)
        p = res.probes
        assert np.array_equal(res.f_inf(p), telescoped_reference(f, h, 2.0, res, p))

    @pytest.mark.parametrize("name,hid", DERIVED)
    def test_residual_is_the_whole_array_residual(self, results, name, hid):
        res = results[name, hid]
        f, h = builtin(name), gallery_homeo(hid)
        p = res.probes
        lhs = 2.0 * telescoped_reference(f, h, 2.0, res, p)
        rhs = telescoped_reference(f, h, 2.0, res, np.asarray(h(p)))
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        assert res.residual == float(np.max(np.abs(lhs - rhs) / scale))

    def test_witness_failing_below_the_floor_reports_as_before(self):
        # x^16.8 sinks below FLOOR inside the grid; there the derived k is
        # taken as 0, and the relation fails
        f, h = builtin("std_log"), gallery_homeo("pow:16.8")
        g = GridSpec(samples_per_octave=4096, octave_max=60)
        rep = check_witness(f, None, EquivalenceWitness(h, floored_shift(f, h, 2.0), 2.0), g)
        msg = f"residual {rep.residual:.3g} (tol 1e-09) at x = {rep.worst_x:.3g}"
        assert msg == "residual 0.881 (tol 1e-09) at x = 1.39e-18"
        with pytest.raises(ValueError, match=re.escape(msg) + "$"):
            koenigs_limit(f, h, None, LinearizeConfig(2.0, g))


def whole_check_witness(f, f2, w, x, fx, sweep=None):
    """Reference for ``check_witness`` from whole-array passes and, with
    ``sweep`` a list, for the witness sweep of ``koenigs_limit``.

    f is evaluated at every positive image, never read from ``fx``.  h is
    increasing when its images descend, strictly above FLOOR; an image at 0
    counts as residual inf.  With ``sweep`` a k of None is the derived shift
    lam*f - f o h, taken as 0 where x or h(x) is at or below FLOOR, and the
    list receives f(x), h(x) and f(h(x)) when h is increasing.
    """
    hx = np.asarray(w.h(x), dtype=float)
    ties = (hx[1:] == hx[:-1]) & (hx[:-1] <= FLOOR)
    monotone = bool(hx[-1] >= 0) and bool(np.all((np.diff(hx) < 0) | ties))
    if not monotone:
        return WitnessReport(math.inf, float(x[0]), False, False)
    fx = np.asarray(f(x), dtype=float)
    lhs = w.lam * fx if f2 is None else np.asarray(f2(x), dtype=float)
    pos = hx > 0
    fhx = np.full(x.size, math.inf)
    fhx[pos] = f(hx[pos])
    if sweep is None or w.k is not None:
        rhs = fhx + as_shift(w.k)(x)
    else:
        live = (x > FLOOR) & (hx > FLOOR)
        rhs = fhx + np.where(live, lhs - fhx, 0.0)
    if sweep is not None:
        sweep += [fx, hx, fhx]
    with np.errstate(invalid="ignore"):
        rel = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(rhs), np.abs(lhs)), 1.0)
    rel[~pos] = math.inf
    i = int(np.argmax(rel))
    return WitnessReport(float(rel[i]), float(x[i]), True, float(rel[i]) <= 1e-9)


def whole_witness_sweep(f, h, k, lam, g):
    """Reference for ``linearize._witness_sweep`` on the grid g: the report, the first sweep (for an
    explicit k too) and the node shift j, when h(x_i) == x_(i+j) at every i + j on the grid.  For a
    derived k under that shift, f(x) and f(h(x)) are laid out as the read-out expects them: views of
    one buffer of f at the nodes and at the images past them, f(h(x)) j on."""
    x, sweep = g.nodes(), []
    rep = whole_check_witness(f, None, EquivalenceWitness(h, k, lam), x, None, sweep)
    hx = np.asarray(h(x), dtype=float)
    j = int(np.flatnonzero(x == hx[0])[0]) if rep.h_monotone and hx[0] in x else None
    j = j if j is not None and np.array_equal(hx[: x.size - j], x[j:]) else None
    if k is None and j is not None:
        fx, _, fhx = sweep
        assert bits(fhx[: x.size - j]) == bits(fx[j:])  # f at the same points, evaluated twice
        buf = np.concatenate([fx, fhx[x.size - j :]])
        sweep[0], sweep[2] = buf[: x.size], buf[j:]
    return rep, sweep, j


BENT = Homeo(lambda x: np.asarray(x * (1.0 - 0.6 * x)), None, "bent")


class TestWitnessImagesFromTheSample:
    """The witness check reads f(h(x)) from f(x) where h carries nodes onto
    nodes: against whole-array passes that evaluate f at every image, the
    report, the first sweep and the limit are bitwise the same."""

    @pytest.mark.parametrize("g", [MULTI, GridSpec(100, 30)], ids=["4096x20", "100x30"])
    @pytest.mark.parametrize(
        "name,hid,k",
        [
            ("doubling_osc", "halve", None),
            ("doubling_osc", "root_scale:2", None),
            ("doubling_osc", "root_scale:4", None),
            ("std_log", "square", None),
            ("koenigs_demo", "square", None),
            ("koenigs_demo", "square", koenigs_shift),
            ("std_log", BENT, None),
        ],
        ids=["halve", "root_scale:2", "root_scale:4", "square", "demo-square", "explicit-k", "non-monotone"],
    )
    def test_koenigs_limit_matches_whole_array_witness(self, monkeypatch, g, name, hid, k):
        # the witness sweep, against whole-array passes: through the derived
        # gate, for k None and for an explicit k alike
        f = builtin(name)
        h = hid if isinstance(hid, Homeo) else gallery_homeo(hid)
        real = linearize._witness_sweep

        def run(stage):
            seen = []

            def spy(*args):
                rep, sweep, onto = stage(*args)
                # copied now: the read-out overwrites f(x) with the orbit ends, or with f_inf
                seen.append((rep, bits(rep.residual), [bits(a) for a in sweep], onto))
                return rep, sweep, onto

            monkeypatch.setattr(linearize, "_witness_sweep", spy)
            try:
                res = koenigs_limit(f, h, k, LinearizeConfig(2.0, g, tol=1e-9))
            except (ValueError, ConvergenceFailure, ToleranceFailure) as exc:
                return seen, repr(exc)
            return seen, (res.to_json(), bits(res.probes), bits(res.f_inf(res.probes)))

        got, want = run(real), run(whole_witness_sweep)
        assert got == want
        ((rep, _, sweep, onto),), _ = got
        assert bool(sweep) == rep.h_monotone
        assert (onto is not None) == (hid == "halve")

    def test_halve_sweep_reads_all_but_the_last_octave_of_images(self):
        g = MULTI
        f, calls = counting(builtin("doubling_osc"))
        h = gallery_homeo("halve")
        x = g.nodes()
        w = EquivalenceWitness(h, None, 2.0)
        want = []
        rep, sweep, onto = linearize._witness_sweep(f, h, None, 2.0, g)
        assert rep == whole_check_witness(builtin("doubling_osc"), None, w, x, None, want)
        assert onto == g.samples_per_octave
        assert [bits(a) for a in sweep] == [bits(a) for a in want]
        blocks = list(_blocks(x.size))
        assert len(calls) == len(blocks) + 1
        assert np.array_equal(np.concatenate(calls[:-1]), x)
        assert np.array_equal(calls[-1], h(x[-g.samples_per_octave :]))


def bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


# (builtin, homeo, lam) with a derived shift that reach the basin: the global,
# bounded and repelling cases, on either side of the settle test, with b a
# node (1) or bisected between nodes (0.3), between 1 and 2 (1.5) and above 2 (3)
BASIN_INPUTS = [
    ("doubling_osc", "halve", 2.0), ("std_log", "square", 2.0), ("koenigs_demo", "square", 2.0),
    ("doubling_osc", "root_scale:2", 2.0), ("doubling_osc", "root_scale:4", 2.0), ("koenigs_demo", "pow:3", 3.0),
    ("koenigs_demo", "pow:0.5", 2.0), ("std_log", "x*x/0.3", 2.0), ("std_log", "x*x/1.5", 2.0),
    ("std_log", "where(x < 3, x/2, 2*x - 3)", 2.0),
]
BASIN_GRIDS = {"64x24": GridSpec(64, 24, 10), "100x30": GridSpec(100, 30), "512x24": GridSpec(512, 24),
               "512x40": GridSpec(), "4096x20": MULTI, "8x12": GridSpec(8, 12)}


class TestBasinFromSweep0:
    @pytest.mark.parametrize("gid", BASIN_GRIDS)
    @pytest.mark.parametrize("name,hid,lam", BASIN_INPUTS, ids=[f"{n}-{h}" for n, h, _ in BASIN_INPUTS])
    def test_basin_reads_h_at_the_nodes_from_sweep_0(self, monkeypatch, name, hid, lam, gid):
        # the basin gives the case and b of the standalone call, which runs h
        # over the nodes and then at the points above 1; inside koenigs_limit
        # it takes h(x) from the witness sweep and runs only at those points
        g, calls = BASIN_GRIDS[gid], []
        real = gallery_homeo(hid)

        def fn(x, _fn=real.fn):
            calls.append(np.array(x, dtype=float))
            return _fn(x)

        h = dataclasses.replace(real, fn=fn)
        alone = basin_of_zero(h, g)
        assert bits(calls[0]) == bits(g.nodes())
        standalone, seen = calls[1:], []
        calls.clear()

        def basin(*args):
            start = len(calls)
            seen.append((basin_of_zero(*args), calls[start:]))
            return seen[-1][0]

        monkeypatch.setattr(linearize, "basin_of_zero", basin)
        try:
            koenigs_limit(builtin(name), h, None, LinearizeConfig(lam, g))
        except (ValueError, ConvergenceFailure, ToleranceFailure):
            pass
        ((report, inside),) = seen
        assert report == alone
        assert [bits(c) for c in inside] == [bits(c) for c in standalone]


def floored_shift(f, h, lam):
    """The derived shift lam*f - f o h as an explicit k, 0 where h(x) is at or below FLOOR."""

    def k(x):
        hx = np.asarray(h(x), dtype=float)
        live = hx > FLOOR
        out = np.zeros(x.shape)
        out[live] = lam * f(x[live]) - f(hx[live])
        return out

    return k


class TestDerivedGate:
    @pytest.mark.parametrize("gid", BASIN_GRIDS)
    @pytest.mark.parametrize(
        "name,hid,lam", BASIN_INPUTS + [("std_log", BENT, 2.0)],
        ids=[f"{n}-{h}" for n, h, _ in BASIN_INPUTS] + ["std_log-bent"],
    )
    def test_derived_gate_reports_the_bits_of_check_witness(self, name, hid, lam, gid):
        # the witness sweep gates a derived k apart from ``check_witness``:
        # its report is that of check_witness with the floored shift as k,
        # and so is its report with that shift given as an explicit k
        g, f = BASIN_GRIDS[gid], builtin(name)
        h = hid if isinstance(hid, Homeo) else gallery_homeo(hid)
        rep, sweep, _ = linearize._witness_sweep(f, h, None, lam, g)
        explicit, _, _ = linearize._witness_sweep(f, h, floored_shift(f, h, lam), lam, g)
        want = check_witness(f, None, EquivalenceWitness(h, floored_shift(f, h, lam), lam), g)
        for got in (rep, explicit):
            as_bits = [bits(v) if isinstance(v, float) else v for v in dataclasses.astuple(got)]
            assert as_bits == [bits(v) if isinstance(v, float) else v for v in dataclasses.astuple(want)]
        assert bool(sweep) == rep.h_monotone


class TestGlobalCase:
    def test_doubling_osc_is_its_own_limit(self, grid, cfg):
        f = builtin("doubling_osc")
        res = koenigs_limit(f, gallery_homeo("halve"), 0.0, cfg)
        assert res.case == "global"
        p = res.probes
        fv = np.asarray(f(p))
        assert np.max(np.abs(res.f_inf(p) - fv) / np.abs(fv)) <= 1e-12
        assert res.iterations == 1  # k identically zero converges immediately

    def test_preimage_decay_law(self, grid, cfg):
        res = koenigs_limit(builtin("doubling_osc"), gallery_homeo("halve"), 0.0, cfg)
        assert res.tail_decay_dev is not None
        assert res.tail_decay_dev <= 1e-9

    def test_derived_shift_for_exact_self_similarity(self, grid, cfg):
        # derived k is rounding noise proportional to f; treated as vanishing
        res = koenigs_limit(builtin("doubling_osc"), gallery_homeo("halve"), None, cfg)
        assert res.k0 == 0.0
        assert res.shift == 0.0


class TestPreconditions:
    def test_lam_must_exceed_one(self, grid):
        with pytest.raises(ValueError, match="lam > 1"):
            LinearizeConfig(1.0, grid)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_lam_must_be_finite(self, grid, lam):
        # regression: lam = inf was taken, and the witness check then failed with residual nan
        with pytest.raises(ValueError, match=f"^linearization requires a finite lam > 1, got {lam:g}$"):
            LinearizeConfig(lam, grid)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
    def test_tol_must_be_finite_and_positive(self, grid, tol):
        # regression: tol = nan ran every sweep into a ConvergenceFailure, and
        # tol = inf stopped after one sweep and reported success
        with pytest.raises(ValueError, match=f"^tol must be finite and positive, got {tol:g}$"):
            LinearizeConfig(2.0, grid, tol=tol)

    def test_witness_failure_rejected(self, grid):
        wrong_k = lambda x: np.full_like(np.asarray(x, dtype=float), 0.5)  # noqa: E731
        with pytest.raises(ValueError, match="witness"):
            koenigs_limit(
                builtin("std_log"), gallery_homeo("square"), wrong_k, LinearizeConfig(2.0, grid)
            )

    def test_divergent_derived_shift_rejected(self, grid):
        # 2(-ln x) - (-ln(x/2)) = -ln x - ln 2 has no limit at 0
        with pytest.raises(ValueError, match="settle"):
            koenigs_limit(
                builtin("std_log"), gallery_homeo("halve"), None, LinearizeConfig(2.0, grid)
            )

    @pytest.mark.parametrize(
        "name,hid,lam",
        [("doubling_osc", "root_scale:2", 2.0), ("koenigs_demo", "square", 4.0)],
        ids=["constant-ratio", "log-growth"],
    )
    def test_shift_diverging_with_its_scale_rejected(self, grid, name, hid, lam):
        # 2f(x) - f(x/sqrt 2) is 0.2929 * 2f(x) at every 2^-m and grows like
        # 1/x; 4f(x) - f(x^2) grows like -2 ln x.  Either keeps its ratio to
        # the operand scale nearly still, so k itself must settle as well
        with pytest.raises(ValueError, match=r"does not settle toward 0 \(absolute tail increments"):
            koenigs_limit(builtin(name), gallery_homeo(hid), None, LinearizeConfig(lam, grid))

    @pytest.mark.parametrize("name,hid,lam", [("koenigs_demo", "square", 2.0), ("koenigs_demo", "pow:3", 3.0)])
    def test_settling_shift_above_the_rounding_floor_kept(self, name, hid, lam):
        # on 24 octaves k(2^-24) ~ 1e-7 is above the floor; its increments halve
        res = koenigs_limit(builtin(name), gallery_homeo(hid), None, LinearizeConfig(lam, GridSpec(512, 24)))
        assert 1e-7 < res.k0 < 2e-7

    def test_zero_repelling_rejected(self, grid):
        # 2(-ln x) = -ln sqrt(x) + k holds for k = -1.5 ln x at every node, and
        # k(0) = 1000 is finite, but k is not continuous there: the relation
        # passes the gate while sqrt pushes every node away from 0
        def k(x):
            with np.errstate(divide="ignore"):
                return np.minimum(-1.5 * np.log(np.asarray(x, dtype=float)), 1000.0)

        with pytest.raises(ValueError, match="repels"):
            koenigs_limit(builtin("std_log"), gallery_homeo("pow:0.5"), k, LinearizeConfig(2.0, grid))

    def test_repelling_h_with_a_derived_shift_rejected_as_repelling(self):
        # regression: the settle test ran before the basin check and reported
        # "does not settle toward 0" for an h that pushes every node away from 0
        with pytest.raises(ValueError, match="0 repels"):
            koenigs_limit(builtin("koenigs_demo"), gallery_homeo("pow:0.5"), None, LinearizeConfig(2.0))

    def test_iteration_cap_reported(self, grid):
        # the change per sweep halves down to the rounding level of f, never to 1e-300
        exact = LinearizeConfig(2.0, grid, tol=1e-300)
        with pytest.raises(ConvergenceFailure, match="within 64 sweeps; last sup-change"):
            koenigs_limit(builtin("doubling_osc"), gallery_homeo("halve"), None, exact)

    def test_residual_gate(self, grid):
        # a witness good enough for the precondition but worse than the
        # functional-equation gate trips the tolerance failure
        bad_k = lambda x: koenigs_shift(x) + 5e-10 * np.cos(np.asarray(x, dtype=float))  # noqa: E731
        with pytest.raises(ToleranceFailure, match="residual"):
            koenigs_limit(
                builtin("koenigs_demo"), gallery_homeo("square"), bad_k, LinearizeConfig(2.0, grid)
            )

    def test_nan_residual_fails_the_gate(self):
        # regression: a NaN residual passed `residual > tol`, and the call
        # returned residual nan with NaN f_inf at 405 probes
        with pytest.raises(ToleranceFailure, match="residual nan exceeds"):
            koenigs_limit(nan_below_the_grid(), gallery_homeo("square"), None, LinearizeConfig(2.0, GridSpec(64, 30)))

    def test_nan_sweep_change_is_not_dropped_between_blocks(self):
        # each sweep's maxima over the blocks are np.max over the whole sweep:
        # a NaN in any block makes the change NaN, which never converges.
        # Under halve the orbits stay in the NaN band well past sweep 64
        f = builtin("doubling_osc")

        def fn(x, _fn=f.fn):
            x = np.asarray(x, dtype=float)
            return np.where((x >= 2.0**-200) & (x <= 2.0**-32), np.nan, _fn(x))

        exact = LinearizeConfig(2.0, GridSpec(64, 30), tol=1e-300)
        with pytest.raises(ConvergenceFailure, match="within 64 sweeps; last sup-change nan$"):
            koenigs_limit(dataclasses.replace(f, fn=fn), gallery_homeo("halve"), None, exact)

    def test_numpy_scalar_is_a_constant_shift(self):
        # regression: np.int64(0) was called as a function
        h, g = gallery_homeo("halve"), GridSpec(8, 12)
        res = koenigs_limit(builtin("doubling_osc"), h, np.int64(0), LinearizeConfig(2.0, g))
        assert res.to_json() == koenigs_limit(builtin("doubling_osc"), h, 0, LinearizeConfig(2.0, g)).to_json()
        rep = check_witness(builtin("doubling_osc"), None, EquivalenceWitness(h, np.int64(0), 2.0), g)
        assert rep == check_witness(builtin("doubling_osc"), None, EquivalenceWitness(h, 0.0, 2.0), g)
        assert rep.passed

    @pytest.mark.parametrize("g", [GridSpec(512, 60), GridSpec(4096, 60)], ids=["one-block", "blocks"])
    def test_underflow_is_named_not_blamed_on_h(self, g):
        # x^20 rounds to 0 below x = 2^-53.75: the first such node has residual
        # inf, and the message says that h underflows there.  On 4096 nodes
        # per octave the last block lies wholly past that node
        f, h = builtin("std_log"), gallery_homeo("pow:20")
        msg = "residual inf (tol 1e-09) at x = 6.6e-17; h underflows to 0 there"
        with pytest.raises(ValueError, match=re.escape(msg) + "$"):
            koenigs_limit(f, h, None, LinearizeConfig(20.0, g))

    def test_derived_shift_fails_a_non_monotone_h(self):
        # a non-monotone h has residual inf, and f is never evaluated at its images
        h = Homeo(lambda x: x / 2 * (1 + 0.9 * np.sin(50 * np.log(x))))
        msg = "residual inf (tol 1e-09) at x = 1; h is not increasing on the grid"
        with pytest.raises(ValueError, match=re.escape(msg) + "$"):
            koenigs_limit(builtin("std_log"), h, None, LinearizeConfig(2.0, GridSpec(512, 60)))

    @pytest.mark.parametrize("g,ms", [(GridSpec(512, 40), range(32, 41)), (GridSpec(8, 2), [1, 2])])
    def test_settle_probes_are_whole_octave_nodes(self, g, ms):
        # 2^-m for m >= max(1, octave_max - 8), all on the grid
        assert g.nodes()[linearize._octave_nodes(g)].tolist() == [2.0**-m for m in ms]

    @pytest.mark.parametrize("g", [GridSpec(512, 1), GridSpec(8, 1)])
    def test_grid_too_short_to_test_settling(self, g):
        # regression: a single settle probe failed with numpy's "zero-size
        # array to reduction operation maximum"; an explicit shift needs none
        f, h = builtin("koenigs_demo"), gallery_homeo("square")
        with pytest.raises(ValueError, match="the grid has octave_max 1, the minimum is 2$"):
            koenigs_limit(f, h, None, LinearizeConfig(2.0, g))
        assert koenigs_limit(f, h, koenigs_shift, LinearizeConfig(2.0, g)).residual <= 1e-10

    def test_shift_must_be_finite_at_zero(self, grid):
        # indistinguishable from the true shift on the grid, infinite at 0
        k = lambda x: koenigs_shift(x) + 1e-25 / np.asarray(x, dtype=float)  # noqa: E731
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="finite at 0"):
                koenigs_limit(
                    builtin("koenigs_demo"), gallery_homeo("square"), k, LinearizeConfig(2.0, grid)
                )


class TestDirectIterate:
    def test_underflow_guard(self):
        with pytest.raises(ValueError, match="underflow"):
            direct_iterate(builtin("std_log"), gallery_homeo("square"), 2.0, 30, 0.3)

    def test_matches_definition(self):
        f = builtin("std_log")
        h = gallery_homeo("square")
        # 2^-3 * f(x^8)
        assert direct_iterate(f, h, 2.0, 3, 0.5) == pytest.approx(
            (8.0 * math.log(2)) / 8.0, rel=1e-14
        )
