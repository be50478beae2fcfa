import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reebflow import (
    DomainError,
    EFunction,
    EquivalenceWitness,
    GridSpec,
    Homeo,
    TailCheckError,
    builtin,
    check_witness,
    classify,
    from_expression,
    gallery_homeo,
    homeo_from_expression,
    sample,
    self_similarity_scan,
    sharp_profile,
    sigma_estimate,
    star_profile,
)
from reebflow.cli import main
from reebflow.efunc import _BLOCK, _blocks, _Nodes, _tail_span
from reebflow.oscillation import (
    _CHUNK,
    _TAIL_WINDOW,
    _profile_pass,
    _relative_residual,
    _running_max,
    _tail_max,
    _walk_images,
    as_shift,
    sigma_from_profile,
)

import star_identities
from star_identities import octave_slice

MOBIUS = "x*(2+x)/(2+2*x)"
MOBIUS_INV = "where(x < 1, 2*x/(sqrt(x**2+1) + 1 - x), (x-1) + sqrt(x**2+1))"

# analytic value of the largest oscillation drop of ln(1/x) + 2 sin(ln(1/x)):
# running max 2pi/3 + sqrt(3) minus local minimum 4pi/3 - sqrt(3)
BOUNDED_OSC_DROP = 2.0 * math.sqrt(3.0) - 2.0 * math.pi / 3.0


def brute_force_drop(u_hi: float, n: int = 1_000_001) -> float:
    """Independent oracle: running-max scan of u + 2 sin u on a dense grid."""
    u = np.linspace(0.0, u_hi, n)
    g = u + 2.0 * np.sin(u)
    return float(np.max(g) - g[-1])


def shift_k(x):
    x = np.asarray(x, dtype=float)
    return x / (1.0 + x)


class TestStarProfile:
    def test_monotone_input_gives_zero(self, grid):
        for name in ("std_log", "koenigs_demo"):
            prof = star_profile(builtin(name), grid)
            assert np.all(prof.values == 0.0)

    def test_reference_node_is_zero(self, grid):
        for name, params in (("doubling_osc", ()), ("bounded_osc", (2.0,))):
            prof = star_profile(builtin(name, params), grid)
            assert prof.values[0] == 0.0

    def test_nonnegative(self, grid):
        for name, params in (("doubling_osc", ()), ("bounded_osc", (2.0,))):
            prof = star_profile(builtin(name, params), grid)
            assert np.all(prof.values >= 0.0)

    @given(
        a=st.floats(min_value=0.0, max_value=5.0),
        b=st.floats(min_value=0.1, max_value=20.0),
        phase=st.floats(min_value=0.0, max_value=6.28),
    )
    def test_nonnegative_random_oscillations(self, small_grid, a, b, phase):
        f = from_expression(f"-log(x) + {a!r}*sin({b!r}*log(x) + {phase!r})")
        prof = star_profile(f, small_grid)
        assert np.all(prof.values >= -1e-12)  # construction actually gives >= 0

    def test_octave_envelopes_bracket(self, grid):
        prof = star_profile(builtin("bounded_osc", [2.0]), grid)
        for m in range(grid.octave_max):
            w = prof.values[octave_slice(grid, m)]
            assert prof.octave_sup[m] >= w.max()

    def test_bounded_osc_drop_against_brute_force(self, grid):
        # the drop at u = 4pi/3 (x = e^{-4pi/3}), checked three ways:
        # closed form, dense-scan oracle, and the grid profile
        u_star = 4.0 * math.pi / 3.0
        oracle = brute_force_drop(u_star)
        assert oracle == pytest.approx(BOUNDED_OSC_DROP, abs=1e-9)
        prof = star_profile(builtin("bounded_osc", [2.0]), grid)
        node = int(np.argmin(np.abs(np.log(prof.x) + u_star)))
        grid_err = 2.0 / grid.samples_per_octave
        assert prof.values[node] == pytest.approx(oracle, rel=grid_err)

    def test_doubling_osc_octave_sups_double(self, grid):
        prof = star_profile(builtin("doubling_osc"), grid)
        s = prof.octave_sup
        ratios = s[6:22] / s[5:21]  # s_{m+1}/s_m for m = 5..20
        assert np.all(ratios >= 1.95) and np.all(ratios <= 2.05)


class TestSharpProfile:
    def test_requires_decay_claim(self, grid):
        with pytest.raises(ValueError, match="E0"):
            sharp_profile(builtin("std_log"), grid)

    def test_tail_bound_enforced(self, grid):
        fake = from_expression("1 + 1/x", claimed_class="E0")
        with pytest.raises(TailCheckError):
            sharp_profile(fake, grid)

    def test_truncated_log_gives_zero(self, grid):
        f = from_expression("maximum(-log(x), 0.0)", claimed_class="E0")
        prof = sharp_profile(f, grid)
        assert np.all(prof.values == 0.0)

    def test_doubling_osc_tail_and_star_agreement(self, grid):
        f = builtin("doubling_osc")
        sp = sharp_profile(f, grid)
        st_ = star_profile(f, grid)
        assert _tail_max(f, grid) < 2.0
        K = grid.samples_per_octave
        # once the running max from below 1 dominates the tail seed the two
        # profiles coincide sample for sample
        assert np.array_equal(sp.values[2 * K :], st_.values[2 * K :])

    def test_halving_relation(self, grid):
        # f(x/2) = 2 f(x) transports to the profile: sharp(x/2) = 2 sharp(x)
        f = builtin("doubling_osc")
        sp = sharp_profile(f, grid)
        comp = f.composed(gallery_homeo("halve"), "halve")
        spc = sharp_profile(comp, grid)
        rm = np.maximum(np.maximum.accumulate(sp.f_values), _tail_max(f, grid))  # the running max, tail seed in
        scale = np.maximum(1.0, 2.0 * np.abs(rm))
        dev = np.max(np.abs(spc.values - 2.0 * sp.values) / scale)
        assert dev <= 1e-12

    @pytest.mark.parametrize(
        "hid",
        ["halve", "square", "mobius"],
    )
    def test_pushforward_within_interpolation_error(self, grid, hid):
        # sharp(f o h) at x vs sharp(f) interpolated at h(x), within four
        # per-cell oscillations of the reference profile
        f = builtin("doubling_osc")
        h = (
            homeo_from_expression(MOBIUS, MOBIUS_INV)
            if hid == "mobius"
            else gallery_homeo(hid)
        )
        spf = sharp_profile(f, grid)
        spc = sharp_profile(f.composed(h, hid), grid)
        x = grid.nodes()
        hx = np.asarray(h(x), dtype=float)
        ok = hx >= x[-1]
        lx = np.log2(spf.x[::-1])
        want = np.interp(np.log2(hx[ok]), lx, spf.values[::-1])  # linear in log2 x
        got = spc.values[ok]
        idx = np.clip(np.searchsorted(lx, np.log2(hx[ok])), 1, len(lx) - 1)
        cell = np.maximum(
            np.abs(np.diff(spf.values[::-1]))[idx - 1],
            np.abs(np.diff(spf.f_values[::-1]))[idx - 1],
        )
        tol = 4.0 * cell + 1e-9 * np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(got - want) <= tol)


class TestSigma:
    def test_std_log(self, grid):
        est = sigma_estimate(builtin("std_log"), grid)
        assert est.sigma_hat == 0.0
        assert est.trend == "vanishing"

    def test_bounded_osc_value_and_trend(self, grid):
        est = sigma_estimate(builtin("bounded_osc", [2.0]), grid)
        assert est.sigma_hat == pytest.approx(BOUNDED_OSC_DROP, abs=1e-3)
        assert est.trend == "bounded"

    def test_doubling_osc_grows(self, grid):
        est = sigma_estimate(builtin("doubling_osc"), grid)
        assert est.trend == "increasing"
        assert est.sigma_hat > 1e3

    def test_koenigs_demo_vanishes(self, grid):
        est = sigma_estimate(builtin("koenigs_demo"), grid)
        assert est.sigma_hat == 0.0
        assert est.trend == "vanishing"

    def test_sigma_bounded_by_global_sup(self, grid):
        est = sigma_estimate(builtin("bounded_osc", [2.0]), grid)
        assert 0.0 <= est.sigma_hat <= float(np.max(est.s_m))

    def test_needs_two_windows(self):
        g = GridSpec(samples_per_octave=32, octave_max=10)
        with pytest.raises(ValueError, match="^need at least 16 octaves, have 10$"):
            sigma_estimate(builtin("std_log"), g)

    def test_decaying_oscillation_trend_vanishing(self, grid):
        # oscillation amplitude ~ x dies toward 0
        f = from_expression("-log(x) + x*sin(log(x))")
        est = sigma_estimate(f, grid)
        assert est.trend == "vanishing"

    def test_conjugacy_invariance(self, grid):
        # sigma is blind to f -> f o h + k (bounded-sigma gallery members)
        h = gallery_homeo("halve")
        for name, params in (("std_log", ()), ("bounded_osc", (2.0,)), ("koenigs_demo", ())):
            f = builtin(name, params)
            transported = f.composed(h, "halve").plus(shift_k)
            a = sigma_estimate(f, grid).sigma_hat
            b = sigma_estimate(transported, grid).sigma_hat
            assert abs(a - b) <= 1e-2

    def test_json_keys(self, grid):
        obj = sigma_estimate(builtin("std_log"), grid).to_json()
        assert set(obj) >= {"s_m", "sigma_hat", "trend"}

    def test_an_overflowing_profile_names_its_first_octave(self, grid):
        # regression: f is finite, but its running max minus f overflowed to
        # inf, with a RuntimeWarning: sigma_hat read inf and the trend "vanishing"
        f = from_expression("-log(x) + 1e308*sin(log(x))")
        fx = np.asarray(f(grid.nodes()))
        with np.errstate(over="ignore"):
            s_m = grid.octave_envelopes(np.maximum.accumulate(fx) - fx)[0]
        first = int(np.argmax(s_m == math.inf))
        assert first > 0 and np.all(np.isfinite(fx))
        msg = f"the star profile overflows at octave {first}: max(f) - f there exceeds the largest double"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (sigma_estimate, star_profile, classify):
                with pytest.raises(DomainError, match=f"^{re.escape(msg)}$"):
                    call(f, grid)


class TestWitness:
    def test_doubling_self_similarity_exact(self, grid):
        f = builtin("doubling_osc")
        w = EquivalenceWitness(gallery_homeo("halve"), None, 2.0)
        rep = check_witness(f, None, w, grid)
        assert rep.residual <= 1e-12

    def test_std_log_square_witness(self, grid):
        # 2 (-ln x) = -ln(x^2)
        f = builtin("std_log")
        w = EquivalenceWitness(gallery_homeo("square"), None, 2.0)
        rep = check_witness(f, None, w, grid)
        assert rep.residual <= 1e-12

    def test_wrong_scale_fails_with_log_growth(self, grid):
        # 2(-ln x) - (-ln(x/2)) = -ln x - ln 2 grows; residual is order one
        f = builtin("std_log")
        w = EquivalenceWitness(gallery_homeo("halve"), None, 2.0)
        rep = check_witness(f, None, w, grid)
        assert not rep.passed
        assert rep.residual > 0.1

    def test_equivalence_mode(self, grid):
        f = builtin("bounded_osc", [2.0])
        h = gallery_homeo("halve")
        f2 = f.composed(h, "halve").plus(shift_k)
        w = EquivalenceWitness(h, shift_k, 1.0)
        rep = check_witness(f, f2, w, grid)
        assert rep.residual <= 1e-12
        assert not check_witness(f, None, w, grid).passed  # f2 given, not f, is the left side

    @pytest.mark.parametrize("k, want", [(None, 0.0), (0, 0.0), (-0.0, -0.0), (np.int64(3), 3.0), (2.5, 2.5)])
    def test_constant_shift_bits(self, k, want):
        # a constant shift is that float at every point, with the shape of x; -0.0 keeps its sign
        x = np.array([0.5, 0.25])
        got = as_shift(k)(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert got.view(np.int64).tolist() == np.full(2, want).view(np.int64).tolist()
        assert as_shift(k)(0.5).shape == ()

    def test_equivalence_mode_requires_unit_scale(self, grid):
        f = builtin("std_log")
        with pytest.raises(ValueError, match="lam = 1"):
            check_witness(f, f, EquivalenceWitness(gallery_homeo("halve"), None, 2.0), grid)

    def test_equivalence_mode_rejects_lam_before_h_runs(self, grid):
        # regression: h was walked over the grid first, so an h that raised
        # hid the lam message behind its own error
        def raising(x):
            raise RuntimeError("h raised")

        f = builtin("std_log")
        with pytest.raises(ValueError, match="^equivalence mode fixes lam = 1"):
            check_witness(f, f, EquivalenceWitness(Homeo(raising, None, "raising"), None, 2.0), grid)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -2.0])
    def test_witness_lam_must_be_finite_and_positive(self, lam):
        # regression: lam = nan gave residual nan and a failure that named nothing
        with pytest.raises(ValueError, match=f"^witness lam must be finite and positive, got {lam:g}$"):
            EquivalenceWitness(gallery_homeo("halve"), None, lam)

    def test_non_monotone_h_reported(self, grid):
        bent = Homeo(lambda x: np.asarray(x * (1.0 - 0.6 * x)), None, "bent")
        rep = check_witness(
            builtin("std_log"), None, EquivalenceWitness(bent, None, 1.0), grid
        )
        assert not rep.h_monotone
        assert not rep.passed


class TestIdentitySuite:
    @pytest.mark.parametrize("hid", ["halve", "square", "root_scale:4"])
    @pytest.mark.parametrize(
        "name,params", [("std_log", ()), ("doubling_osc", ()), ("koenigs_demo", ())]
    )
    def test_all_items_pass_off_gallery(self, grid, hid, name, params):
        rep = star_identities.suite(builtin(name, params), 3.7, 5.1, gallery_homeo(hid), shift_k, grid)
        assert all(item["passed"] for item in rep.values()), {n: i for n, i in rep.items() if not i["passed"]}

    def test_bounded_osc_zero_recurrence_window(self, grid):
        # the zeros of the profile recur once per oscillation period, which
        # spans ~9 octaves here: single-octave windows must miss them ...
        f, halve = builtin("bounded_osc", [2.0]), gallery_homeo("halve")
        rep = star_identities.suite(f, 2.0, 1.0, halve, shift_k, grid)
        assert not rep["zeros"]["passed"]
        assert rep["zeros"]["violating_octaves"][:6] == [4, 5, 6, 13, 14, 15]
        # ... while windows covering a full period catch a zero every time
        rep10 = star_identities.suite(f, 2.0, 1.0, halve, shift_k, grid, 10)
        assert rep10["zeros"]["passed"]
        others = {name: item["passed"] for name, item in rep.items() if name != "zeros"}
        assert all(others.values())

    def test_zero_recurrence_window_misses_longer_gap(self, grid):
        # bounded_osc(2) slowed by 4: u + 8 sin(u/4) has no record between
        # u = 8 pi / 3 and u = 4 * 5.3876 (octaves ~12.09 to ~31.09), so the
        # 10-octave windows starting at octaves 13..21, which fit inside that
        # stretch, hold no zero
        zeros = star_identities.zeros(star_profile(from_expression("-log(x) + 8*sin(0.25*log(1/x))"), grid), 10)
        assert not zeros["passed"]
        assert zeros["violating_octaves"] == list(range(13, 22))

    def test_pushforward_threshold_location(self, grid):
        f = builtin("doubling_osc")
        item = star_identities.pushforward(f, gallery_homeo("halve"), grid, star_profile(f, grid))
        assert 0.5 < item["a"] < 0.75
        assert item["octaves_below_a"] > 30

    def test_pushforward_trivial_at_fixed_one(self, grid):
        f = builtin("doubling_osc")
        assert star_identities.pushforward(f, gallery_homeo("square"), grid, star_profile(f, grid))["a"] == 1.0

    def test_perturbation_decay_strict_for_oscillating(self, grid):
        for name, params in (("doubling_osc", ()), ("bounded_osc", (2.0,))):
            f = builtin(name, params)
            d = star_identities.perturbation(f, shift_k, grid, star_profile(f, grid), 1)
            assert d["d_late"] < d["d_early"]
            assert d["d_early"] < 1.0 and d["d_late"] < 1.0

    def test_perturbation_decay_across_a_long_zero_free_stretch(self):
        # along the stretch of octaves ~12.09 to ~31.09 without a record the
        # max over [x, 1] stays at the octave-12 record, so the gap there is
        # k(2^-12.09) - k(x) ~ 2.3e-4; from the next record on it is 0.  Two
        # fixed octaves, 5 (before the stretch) and 30 (inside it), read this
        # as growth
        f = from_expression("-log(x) + 8*sin(0.25*log(1/x))")
        g = GridSpec(octave_max=50)
        d = star_identities.perturbation(f, shift_k, g, star_profile(f, g), 10)
        assert d["passed"]
        assert d["window_octaves"] == 10
        assert d["d_late"] == 0.0 and 2.2e-4 < d["d_early"] < 2.4e-4
        # on 40 octaves the stretch ends inside the last 10-octave window, which
        # then holds the largest gap: the grid is too short to show the decay
        g = GridSpec()
        d40 = star_identities.perturbation(f, shift_k, g, star_profile(f, g), 10)
        assert not d40["passed"]
        assert d40["d_late"] > d40["d_early"] > 2.2e-4

    @given(lam=st.floats(min_value=1e-3, max_value=10.0))
    def test_scaling_equivariance_random(self, small_grid, lam):
        f = builtin("bounded_osc", [2.0])
        base = star_profile(f, small_grid)
        scaled = star_profile(f.scaled(lam), small_grid)
        scale = np.maximum(1.0, lam * np.abs(np.maximum.accumulate(base.f_values)))
        assert np.max(np.abs(scaled.values - lam * base.values) / scale) <= 1e-12

    @given(c=st.floats(min_value=-10.0, max_value=10.0))
    def test_shift_invariance_random(self, small_grid, c):
        f = builtin("doubling_osc")
        base = star_profile(f, small_grid)
        shifted = star_profile(f.shifted(c), small_grid)
        scale = np.maximum(1.0, np.abs(base.f_values) + abs(c))
        assert np.max(np.abs(shifted.values - base.values) / scale) <= 1e-12

    def test_lam_validated(self, grid):
        with pytest.raises(ValueError):
            star_identities.suite(builtin("std_log"), -1.0, 0.0, gallery_homeo("halve"), None, grid)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0])
    def test_lam_must_be_finite_and_positive(self, small_grid, lam):
        # regression: lam = nan passed the check and inf reached the profile pass;
        # the scaling check refuses it through EFunction.scaled
        with pytest.raises(ValueError, match=f"^scale factor must be finite and positive, got {lam:g}$"):
            star_identities.suite(builtin("std_log"), lam, 0.0, gallery_homeo("halve"), None, small_grid)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_shift_constant_must_be_finite(self, small_grid, c):
        # regression: a NaN or infinite c raised a DomainError naming the grid node x = 1
        with pytest.raises(ValueError, match=f"^shift constant c must be finite, got {c:g}$"):
            star_identities.suite(builtin("std_log"), 2.0, c, gallery_homeo("halve"), None, small_grid)

    @pytest.mark.parametrize("window", [1, 39, np.int64(20)])
    def test_zero_window_is_read_as_given(self, grid, window):
        rep = star_identities.suite(builtin("bounded_osc"), 2.0, 1.0, gallery_homeo("halve"), shift_k, grid, window)
        assert rep["perturbation"]["window_octaves"] == rep["zeros"]["window_octaves"] == window
        assert type(rep["zeros"]["window_octaves"]) is int

    @pytest.mark.parametrize(
        "window, want", [(1, [4, 5, 6, 13, 14, 15, 22, 23, 24, 31, 32, 33]), (10, [])]
    )
    def test_zeros_item_against_a_plain_loop(self, grid, window, want):
        # reference: each window's minimum and supremum read octave by octave off the profile
        prof = star_profile(builtin("bounded_osc", [2.0]), grid)
        octs = [prof.values[octave_slice(grid, m)] for m in range(grid.octave_max)]
        loop = []
        for m in range(len(octs) - window + 1):
            run = octs[m : m + window]
            if min(o.min() for o in run) > 1e-6 * (1.0 + max(o.max() for o in run)):
                loop.append(m)
        assert star_identities.zeros(prof, window) == {"passed": not loop, "window_octaves": window,
                                                       "violating_octaves": loop}
        assert loop == want


class TestProfileExports:
    def test_csv_header(self, tmp_path):
        # the sigma command writes the profile: its header, then x, f and star(f) node by node, bit for bit
        assert main(["sigma", "--builtin", "std_log", "--grid", "64,24", "--out", str(tmp_path)]) == 0
        header, *rows = (tmp_path / "profile.csv").read_text().splitlines()
        assert header == "x,f,fstar"
        prof = star_profile(builtin("std_log"), GridSpec(64, 24))
        got = np.array([[float(v) for v in row.split(",")] for row in rows])
        want = np.column_stack([prof.x, prof.f_values, prof.values])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# grids that span several blocks of nodes: 81,921 nodes (two full blocks and
# a partial one), and 32,769 (one full block and a last block of one node)
MULTI = GridSpec(samples_per_octave=4096, octave_max=20)
ONE_NODE_TAIL = GridSpec(samples_per_octave=16384, octave_max=2)


def tail_nodes(g):
    """The tail nodes 2^(j/K) on [1, 2^tail_octaves] of g, in one ``_tail_span`` over the whole tail."""
    t = np.arange(g.samples_per_octave * g.tail_octaves + 1, dtype=float)
    return _tail_span(g.samples_per_octave, 0, t, t)


# a tail of 65,537 nodes, two full blocks and one node, and zeros of either sign on it
TAIL16 = GridSpec(samples_per_octave=4096, octave_max=20, tail_octaves=16)
TAIL16_NODES = tail_nodes(TAIL16)
SIGNED_ZEROS = np.where(np.random.default_rng(0).random(TAIL16_NODES.size) < 0.5, -0.0, 0.0)


def whole_profile(f, g, variant="star"):
    """Reference: the profile from whole-array passes over one sample of f."""
    fv = f(g.nodes())
    rm = np.maximum.accumulate(fv)
    if variant == "sharp":
        np.maximum(rm, float(f(tail_nodes(g)).max()), out=rm)
    vals = rm - fv
    return vals, g.octave_envelopes(vals)[0]


def whole_witness(f, f2, w, g):
    """Reference: (residual, worst_x, h_monotone) from whole-array passes."""
    x = g.nodes()
    hx = w.h(x)
    if not (np.all(np.diff(hx) < 0) and np.all(hx > 0)):
        return math.inf, float(x[0]), False
    lhs = f2(x) if f2 is not None else w.lam * f(x)
    rhs = f(hx) + as_shift(w.k)(x)
    rel = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(rhs), np.abs(lhs)), 1.0)
    i = int(np.argmax(rel))
    return float(rel[i]), float(x[i]), True


def bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def assert_profile_bits(prof, f, g):
    vals, sups = whole_profile(f, g, prof.variant)
    assert bits(prof.values) == bits(vals)
    assert bits(prof.octave_sup) == bits(sups)


def assert_witness_bits(rep, f, f2, w, g):
    residual, worst, monotone = whole_witness(f, f2, w, g)
    assert (bits(rep.residual), bits(rep.worst_x), rep.h_monotone) == (bits(residual), bits(worst), monotone)


def tabulated(values, g, tail=0.0, claimed_class="E0"):
    """An elementwise f equal to ``values[i]`` at node x_i, and to ``tail`` above 1."""
    x = g.nodes()

    def fn(t):
        i = np.minimum(np.searchsorted(-x, -t), len(x) - 1)
        return np.where(t > 1.0, tail, np.asarray(values)[i])

    return EFunction("expression", fn, claimed_class, "tabulated")


ZERO = from_expression("0*x")

# grids whose octave-aligned blocks are not 2^15 nodes: K = 3000 gives blocks
# of 10 octaves (30,000 nodes, three of them), K = 40000 blocks of one octave
ODD_K = GridSpec(samples_per_octave=3000, octave_max=30)
WIDE_K = GridSpec(samples_per_octave=40000, octave_max=2)


def block_edges(g):
    """The nodes where one octave-aligned block ends and the next begins."""
    step = max(1, _BLOCK // g.samples_per_octave) * g.samples_per_octave
    return list(range(step, g.node_count - 1, step))


PROFILE_GRIDS = [MULTI, ONE_NODE_TAIL, ODD_K, WIDE_K]
PROFILE_GRID_IDS = ["multi", "one_node_tail", "K3000", "K40000"]


class TestBlockedPasses:
    def test_grids_span_several_blocks(self):
        assert MULTI.node_count == 2 * _BLOCK + 16385
        assert ONE_NODE_TAIL.node_count == _BLOCK + 1

    @pytest.mark.parametrize("g", PROFILE_GRIDS, ids=PROFILE_GRID_IDS)
    @pytest.mark.parametrize("name", ["std_log", "doubling_osc", "bounded_osc", "koenigs_demo"])
    def test_star_profile_bits(self, g, name):
        f = builtin(name)
        assert_profile_bits(star_profile(f, g), f, g)

    @pytest.mark.parametrize("g", PROFILE_GRIDS, ids=PROFILE_GRID_IDS)
    def test_sharp_profile_bits(self, g):
        f = builtin("doubling_osc")
        assert_profile_bits(sharp_profile(f, g), f, g)

    @pytest.mark.parametrize("tail", [0.0, -0.0], ids=["tail+0", "tail-0"])
    @pytest.mark.parametrize("variant", ["star", "sharp"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_signed_zeros_across_block_boundaries(self, seed, variant, tail):
        # numpy's max picks between +0.0 and -0.0 by operand order and code
        # path; the carried running max must pick as the whole-array pass does
        rng = np.random.default_rng(seed)
        values = rng.choice([-0.0, 0.0], size=MULTI.node_count)
        values[_BLOCK - 2 : _BLOCK + 2] = [0.0, -0.0, 0.0, -0.0]
        values[2 * _BLOCK - 2 : 2 * _BLOCK + 2] = [-0.0, 0.0, -0.0, 0.0]
        if seed == 2:
            values[rng.integers(0, MULTI.node_count, 64)] = rng.choice([-1.0, 1.0], 64)
        f = tabulated(values, MULTI, tail)
        prof = star_profile(f, MULTI) if variant == "star" else sharp_profile(f, MULTI)
        assert_profile_bits(prof, f, MULTI)
        assert bits(sigma_estimate(f, MULTI, variant).s_m) == bits(prof.octave_sup)

    @pytest.mark.parametrize(
        "name,variant", [("doubling_osc", "sharp"), ("doubling_osc", "star"), ("bounded_osc", "star")]
    )
    def test_streamed_sigma_keeps_the_whole_array_suprema(self, name, variant):
        # sigma_estimate takes only the octave maxima of the profile, block by block
        f = builtin(name)
        vals = whole_profile(f, MULTI, variant)[0]
        want = [vals[octave_slice(MULTI, m)].max() for m in range(MULTI.octave_max)]
        assert bits(sigma_estimate(f, MULTI, variant).s_m) == bits(want)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "g,at",
        [
            (MULTI, (0,)),  # the first node
            (MULTI, (_BLOCK,)),  # the end node the first two blocks share
            (MULTI, (2 * _BLOCK, 40000)),  # the next shared end node, before a later one
            (MULTI, (2 * _BLOCK + 5000, MULTI.node_count - 1)),  # in the last, partial block
            (MULTI, (MULTI.node_count - 1,)),  # the last node
            (ONE_NODE_TAIL, (0,)),
            (ONE_NODE_TAIL, (ONE_NODE_TAIL.samples_per_octave,)),  # where two octave windows meet
            (ONE_NODE_TAIL, (20000, ONE_NODE_TAIL.node_count - 1)),
            (ONE_NODE_TAIL, (ONE_NODE_TAIL.node_count - 1,)),
        ],
        ids=["multi-first", "multi-edge", "multi-edge2", "multi-partial", "multi-last",
             "tail-first", "tail-window", "tail-mid", "tail-last"],
    )
    def test_non_finite_is_named_at_its_first_node(self, g, at, value):
        # the blocks read finiteness off the octave envelopes; the node named is
        # the first where np.isfinite fails over the whole array
        values = -np.log(g.nodes())
        values[list(at)] = value
        want = float(g.nodes()[np.argmin(np.isfinite(values))])
        f = tabulated(values, g)
        for run in (sample, star_profile, sigma_estimate, classify):
            with pytest.raises(DomainError, match=f"^non-finite value at grid node x={re.escape(repr(want))}$"):
                run(f, g)

    @pytest.mark.parametrize("variant", ["star", "sharp"])
    def test_a_streamed_pass_gives_the_suprema_of_a_held_one(self, variant):
        f = builtin("doubling_osc")
        _, sups = _profile_pass(f, MULTI, variant)
        held = star_profile(f, MULTI) if variant == "star" else sharp_profile(f, MULTI)
        assert bits(sups) == bits(held.octave_sup)

    def test_finite_blocks_are_not_searched(self, monkeypatch):
        f = builtin("bounded_osc")
        want = [sample(f, MULTI), sigma_estimate(f, MULTI).s_m, classify(f, MULTI).to_json()]
        monkeypatch.setattr(np, "isfinite", None)  # finiteness is read off the octave envelopes
        assert bits(sample(f, MULTI)) == bits(want[0]) and bits(sigma_estimate(f, MULTI).s_m) == bits(want[1])
        assert classify(f, MULTI).to_json() == want[2]

    @pytest.mark.parametrize("g", [MULTI, ONE_NODE_TAIL], ids=["multi", "one_node_tail"])
    def test_a_jump_across_the_last_block_boundary(self, g):
        # f steps up by 3 between the last two blocks, and by 1 inside a block
        b = (g.node_count - 1) // _BLOCK * _BLOCK
        values = np.zeros(g.node_count)
        values[b:] = 3.0
        values[b // 2 :] += 1.0
        f = tabulated(values, g)
        assert_profile_bits(star_profile(f, g), f, g)

    @pytest.mark.parametrize("g", [MULTI, ONE_NODE_TAIL], ids=["multi", "one_node_tail"])
    @pytest.mark.parametrize(
        "name,hid,k,lam",
        [
            ("doubling_osc", "halve", None, 2.0),
            ("doubling_osc", "root_scale:2", None, 2.0**0.5),
            ("bounded_osc", "square", shift_k, 2.0),
            ("std_log", "pow:2.0", 1.5, 2.0),
            ("koenigs_demo", "halve", shift_k, 1.0),
        ],
    )
    def test_check_witness_bits(self, g, name, hid, k, lam):
        f = builtin(name)
        w = EquivalenceWitness(gallery_homeo(hid), k, lam)
        assert_witness_bits(check_witness(f, None, w, g), f, None, w, g)

    @pytest.mark.parametrize("g", [MULTI, ONE_NODE_TAIL], ids=["multi", "one_node_tail"])
    def test_check_witness_under_halve_evaluates_f_once_per_node_and_at_the_last_images(self, g):
        # f runs block by block at the nodes; each block waits for the next and
        # reads f o h from the two, so f runs at the images past the grid's
        # end only: the last K, after the last block (on ONE_NODE_TAIL, whose
        # last block is one node, K - 1 of them before it is folded)
        calls, f = [], builtin("doubling_osc")
        counted = EFunction("builtin", lambda t: calls.append(np.array(t)) or f.fn(t), "E0", "counted")
        w = EquivalenceWitness(gallery_homeo("halve"), None, 2.0)
        rep = check_witness(counted, None, w, g)
        assert_witness_bits(rep, f, None, w, g)
        x, K = g.nodes(), g.samples_per_octave
        blocks = list(_blocks(x.size))
        want = [x[s] for s in blocks] + [w.h(x[-K:])]
        if blocks[-1].stop - blocks[-1].start < K:
            want[-1:] = [w.h(x[-K:-1]), w.h(x[-1:])]
        assert [bits(c) for c in calls] == [bits(c) for c in want]

    def test_equivalence_mode_bits(self):
        f = builtin("bounded_osc", [2.0])
        h = gallery_homeo("halve")
        f2 = f.composed(h, "halve").plus(shift_k).shifted(1e-9)
        w = EquivalenceWitness(h, shift_k, 1.0)
        assert_witness_bits(check_witness(f, f2, w, MULTI), f, f2, w, MULTI)

    def excess(self, at, node_count=MULTI.node_count):
        """f2 = ``value`` at the nodes ``at`` maps, 0 elsewhere: against f = 0 the
        relative residual is |value| / max(1, |value|) there."""
        values = np.zeros(node_count)
        for i, v in at.items():
            values[i] = v
        return tabulated(values, MULTI, claimed_class="E")

    @pytest.mark.parametrize(
        "at,worst",
        [
            ({10: 0.5, _BLOCK + 10: 0.5}, 10),  # a tie across blocks: the first wins
            ({_BLOCK - 1: 0.5, _BLOCK: 0.5, 2 * _BLOCK + 3: 0.25}, _BLOCK - 1),
            ({10: 0.25, 2 * _BLOCK + 3: 0.5}, 2 * _BLOCK + 3),
            ({5: 0.9, 2 * _BLOCK + 7: math.nan, 2 * _BLOCK + 100: math.nan}, 2 * _BLOCK + 7),
            ({_BLOCK + 3: math.nan, 2 * _BLOCK + 5: 0.9}, _BLOCK + 3),
        ],
        ids=["tie", "tie_at_boundary", "later_larger", "nan_after_max", "nan_before_max"],
    )
    def test_first_largest_residual_wins(self, at, worst):
        f2 = self.excess(at)
        w = EquivalenceWitness(gallery_homeo("halve"), None, 1.0)
        rep = check_witness(ZERO, f2, w, MULTI)
        assert rep.worst_x == MULTI.nodes()[worst]
        assert math.isnan(rep.residual) == any(math.isnan(v) for v in at.values())
        assert_witness_bits(rep, ZERO, f2, w, MULTI)

    def test_h_decreasing_only_across_a_block_boundary(self):
        x = MULTI.nodes()
        # x -> x/2, except that the first node of the second block maps above
        # the image of the last node of the first block
        kinked = Homeo(lambda t: np.where(t == x[_BLOCK], x[_BLOCK - 1], 0.5 * t), None, "kinked")
        assert np.all(np.diff(kinked(x)[:_BLOCK]) < 0) and np.all(np.diff(kinked(x)[_BLOCK:]) < 0)
        calls = []
        f = builtin("doubling_osc")
        counted = EFunction("builtin", lambda t: calls.append(np.array(t)) or f.fn(t), "E0", "counted")
        w = EquivalenceWitness(kinked, None, 2.0)
        rep = check_witness(counted, None, w, MULTI)
        assert not rep.h_monotone and not rep.passed
        assert_witness_bits(rep, f, None, w, MULTI)
        # f is evaluated at the nodes, never at the images of the kinked h
        assert np.array_equal(np.concatenate(calls), x)

    @pytest.mark.parametrize("g", [MULTI, GridSpec(100, 30)], ids=["4096x20", "100x30"])
    @pytest.mark.parametrize(
        "hid,k,lam",
        [
            ("halve", None, 2.0),
            ("root_scale:2", None, 2.0**0.5),
            ("root_scale:4", None, 2.0**0.25),
            ("square", None, 2.0),
            ("halve", shift_k, 2.0),
            ("bent", None, 1.0),
        ],
    )
    def test_check_witness_bits_across_images_on_and_off_nodes(self, g, hid, k, lam):
        f = builtin("doubling_osc")
        h = BENT if hid == "bent" else gallery_homeo(hid)
        w = EquivalenceWitness(h, k, lam)
        assert_witness_bits(check_witness(f, None, w, g), f, None, w, g)


class TestTailMax:
    @pytest.mark.parametrize(
        "fn,g",
        [
            (builtin("doubling_osc").fn, MULTI),
            (lambda t: np.where(np.abs(t - 2 ** (41000 / 4096)) < 1e-9, math.nan, 1 / t), MULTI),
            (lambda t: SIGNED_ZEROS[np.searchsorted(TAIL16_NODES, t)], TAIL16),
        ],
        ids=["doubling_osc", "nan_in_the_second_block", "signed_zeros"],
    )
    def test_tail_max_is_the_whole_tail_max_block_by_block(self, fn, g):
        # f runs on the _blocks of the tail, three here, and the max keeps the
        # bits of one max over the whole tail
        f, calls = EFunction("expression", fn, "E0"), []
        counted = EFunction("expression", lambda t: calls.append(np.array(t)) or fn(t), "E0", "counted")
        t = tail_nodes(g)
        want = f(t).max()
        assert bits(_tail_max(counted, g)) == bits(want)
        blocks = [t[s] for s in _blocks(t.size)]
        assert len(blocks) == 3 and [bits(c) for c in calls[:3]] == [bits(b) for b in blocks]
        # +0.0 and -0.0 tie: the max of the block maxima has the other sign,
        # so a zero max is taken again over the whole tail
        if want == 0:
            assert np.signbit(np.max([b.max() for b in map(f, blocks)])) != np.signbit(want)
        assert len(calls) == 3 + (want == 0)

    def test_the_horizon_is_checked_after_the_whole_tail(self):
        f, calls = from_expression("1 + 1/x", claimed_class="E0"), []
        counted = EFunction("expression", lambda t: calls.append(np.array(t)) or f.fn(t), "E0", "counted")
        with pytest.raises(TailCheckError, match=r"^\|f\(2\^20\)\| = 1 exceeds the tail bound 0.01$"):
            sigma_estimate(counted, MULTI, "sharp")
        assert bits(np.concatenate(calls)) == bits(tail_nodes(MULTI))


class TestOctaveAlignedBlocks:
    @pytest.mark.parametrize("g", [ODD_K, WIDE_K], ids=["K3000", "K40000"])
    @pytest.mark.parametrize("tail", [0.0, -0.0], ids=["tail+0", "tail-0"])
    @pytest.mark.parametrize("variant", ["star", "sharp"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_signed_zeros_across_block_edges(self, g, seed, variant, tail):
        rng = np.random.default_rng(seed)
        values = rng.choice([-0.0, 0.0], size=g.node_count)
        for j, e in enumerate(block_edges(g)):
            values[e - 2 : e + 2] = [0.0, -0.0, 0.0, -0.0] if j % 2 == 0 else [-0.0, 0.0, -0.0, 0.0]
        if seed == 2:
            values[rng.integers(0, g.node_count, 64)] = rng.choice([-1.0, 1.0], 64)
        f = tabulated(values, g, tail)
        prof = star_profile(f, g) if variant == "star" else sharp_profile(f, g)
        assert_profile_bits(prof, f, g)
        # WIDE_K has 2 octaves, too few for a sigma estimate: read the streamed suprema
        assert bits(_profile_pass(f, g, variant)[1]) == bits(prof.octave_sup)

    def test_sigma_and_classify_match_the_held_profile(self):
        f = builtin("bounded_osc", [2.0])
        want = sigma_from_profile(star_profile(f, ODD_K))
        for est in (sigma_estimate(f, ODD_K), classify(f, ODD_K).sigma):
            assert est.to_json() == want.to_json()
            assert bits(est.s_m) == bits(want.s_m)

    def test_streamed_suprema_match_the_held_profile_on_wide_octaves(self):
        f = builtin("bounded_osc", [2.0])
        assert bits(_profile_pass(f, WIDE_K, "star")[1]) == bits(star_profile(f, WIDE_K).octave_sup)


@st.composite
def carried_runs(draw):
    """run[0], a carried maximum, then values in runs that hit each path of
    ``_running_max``: signed zeros, repeats, rises, falls and runs below the
    carry, over lengths near whole numbers of chunks."""
    carry = draw(st.sampled_from([-math.inf, -2.0, -0.0, 0.0, 1.0, 3.0]))
    n = draw(st.sampled_from([k * _CHUNK + d for k in range(4) for d in (-1, 0, 1) if k * _CHUNK + d > 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0]
    runs, count = [[carry]], 0
    while count < n:
        kind = draw(st.sampled_from(["zeros", "repeat", "rise", "fall", "below", "mixed"]))
        size = draw(st.integers(1, _CHUNK + 2))
        start = draw(st.sampled_from(pool))
        if kind == "zeros":
            run = rng.choice([-0.0, 0.0], size)
        elif kind == "repeat":
            run = np.full(size, start)
        elif kind in ("rise", "fall"):
            step = draw(st.sampled_from([0.25, 1.0, 1e-3]))
            run = start + (step if kind == "rise" else -step) * np.arange(size)
        elif kind == "below":
            run = (carry if math.isfinite(carry) else -4.0) - 1.0 - np.arange(size) % 3
        else:
            run = rng.choice(pool, size)
        runs.append(run)
        count += size
    return np.concatenate(runs)[: n + 1]


class TestRunningMax:
    @settings(max_examples=200, deadline=None)
    @given(carried_runs())
    def test_bitwise_the_seeded_accumulation(self, run):
        want = np.maximum.accumulate(run)
        _running_max(run)
        assert bits(run) == bits(want)

    def test_each_chunk_path(self):
        # below the carry, rising from it, mixed, then a partial chunk
        C = _CHUNK
        rise = 6.0 + np.arange(C)
        mixed = np.tile([C + 100.0, 3.0], C // 2)  # its first value tops the carry, then it falls
        run = np.concatenate(([5.0], np.full(C, 1.0), rise, mixed, [2.0, 2.0 * C]))
        want = np.maximum.accumulate(run)
        _running_max(run)
        assert bits(run) == bits(want)
        assert run[1 : C + 1].tolist() == [5.0] * C
        assert run[C + 1 : 2 * C + 1].tolist() == rise.tolist()
        assert run[2 * C + 1 : 3 * C + 1].tolist() == [C + 100.0] * C


BENT = Homeo(lambda x: np.asarray(x * (1.0 - 0.6 * x)), None, "bent")
POW20 = EquivalenceWitness(gallery_homeo("pow:20"), None, 20.0)


class TestUnderflowingImages:
    """x^20 leaves the doubles below x = 2^-53.75: its images tie among the
    subnormals and then round to 0.  That is underflow, not a decreasing h."""

    @pytest.mark.parametrize("g", [GridSpec(512, 60), GridSpec(4096, 60)], ids=["one-block", "blocks"])
    def test_images_at_zero_have_residual_inf(self, g):
        # regression: on 4096 nodes per octave the last block lies wholly past
        # the first image at 0, and failed with a numpy broadcast error
        x = g.nodes()
        hx = POW20.h(x)
        z = int(np.argmax(hx == 0))
        # x^20 rounds to 0 from x = 2^-53.75 on, the last 6.25 octaves
        assert np.all(hx[z:] == 0) and x.size - z == 6.25 * g.samples_per_octave + 1
        assert np.any((hx[1:] == hx[:-1]) & (hx[1:] > 0))  # ties among the subnormals
        blocks = list(_blocks(x.size))
        assert (blocks[-1].start > z) == (len(blocks) > 1)  # on several blocks, one lies wholly past z
        calls = []
        f = builtin("std_log")
        counted = EFunction("builtin", lambda t: calls.append(np.array(t)) or f.fn(t), "E", "counted")
        rep = check_witness(counted, None, POW20, g)
        assert rep.h_monotone and not rep.passed
        assert rep.residual == math.inf
        assert rep.worst_x == 6.601425600620387e-17 == x[z]
        # f runs block by block at the nodes, then at their images above 0, never at 0
        want = []
        for s in blocks:
            want += [x[s]] + ([hx[s.start : min(s.stop, z)]] if s.start < z else [])
        assert len(calls) == len(want)
        assert all(np.array_equal(c, w) for c, w in zip(calls, want))

    def test_a_grid_above_the_underflow_is_unchanged(self):
        f, g = builtin("std_log"), GridSpec(512, 40)
        rep = check_witness(f, None, POW20, g)
        assert rep.h_monotone and rep.passed
        assert rep.residual == 2.2201751200720647e-16
        assert_witness_bits(rep, f, None, POW20, g)

    def test_ties_above_the_floor_are_not_monotone(self, small_grid):
        flat = Homeo(lambda t: np.maximum(0.5 * t, 0.125), None, "flat")
        rep = check_witness(builtin("std_log"), None, EquivalenceWitness(flat, None, 1.0), small_grid)
        assert not rep.h_monotone and rep.residual == math.inf

    def test_rising_below_the_floor_is_not_monotone(self, small_grid):
        # x^60 down to 2^-300 ~ 4.9e-91, then 1e-305 * (2 - x), which rises as x falls
        rising = Homeo(lambda t: np.where(t > 2.0**-5, t**60, 1e-305 * (2.0 - t)), None, "rising")
        rep = check_witness(builtin("std_log"), None, EquivalenceWitness(rising, None, 60.0), small_grid)
        assert not rep.h_monotone and rep.residual == math.inf


# the grids, witnesses and scales of the per-node shift: halve keeps every
# image on its node, root_scale:N some of them (none for N = 3 on these
# grids, where 2^(-1/3) is no node), and square, pow:0.5 and x^20 (pow:20)
# only x_0
SHIFT_GRIDS = [GridSpec(512, 40), GridSpec(4096, 20), GridSpec(64, 24), GridSpec(1000, 30),
               GridSpec(16384, 20)]
SHIFT_HIDS = ["halve", "root_scale:2", "root_scale:3", "root_scale:4", "root_scale:8",
              "square", "pow:0.5", "pow:20"]
SHIFT_LAMS = [2.0, math.sqrt(2.0), 1.0]
SHIFT_PROFILES = {
    "std_log": builtin("std_log"),
    "doubling_osc": builtin("doubling_osc"),
    "bounded_osc": builtin("bounded_osc", [2.0]),
    "koenigs_demo": builtin("koenigs_demo"),
    "expression": from_expression("-log(x) + 0.3*sin(5*log(x))"),
}


def off_node(x, hx, j):
    """Whether each image is evaluated under the shift j: off its node x_{i+j}, or past the grid's end."""
    miss = np.ones(x.size, dtype=bool)
    miss[: x.size - j] = hx[: x.size - j] != x[j:]
    return miss


class TestPerNodeShift:
    """A witness reads f(h(x_i)) as f(x_{i+j}) at every image that is its node
    x_{i+j} bitwise, once at least half of them are, and runs f at the rest."""

    @pytest.mark.parametrize("g", SHIFT_GRIDS, ids=lambda g: f"{g.samples_per_octave}x{g.octave_max}")
    @pytest.mark.parametrize("name", SHIFT_PROFILES)
    def test_reports_are_those_of_whole_array_passes(self, g, name):
        # every h here increases and stays above 0 on these grids
        f = SHIFT_PROFILES[name]
        x, fx = g.nodes(), f(g.nodes())
        witnesses = [EquivalenceWitness(gallery_homeo(hid), None, lam) for hid in SHIFT_HIDS for lam in SHIFT_LAMS]
        scan = self_similarity_scan(f, witnesses, g)
        for w, in_scan in zip(witnesses, scan.results):
            lhs, rhs = w.lam * fx, f(w.h(x))
            rel = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(rhs), np.abs(lhs)), 1.0)
            i = int(np.argmax(rel))
            rep = check_witness(f, None, w, g)
            assert (bits(rep.residual), bits(rep.worst_x), rep.h_monotone) == (bits(rel[i]), bits(x[i]), True)
            assert in_scan == rep

    @pytest.mark.parametrize("hid, j, share", [("halve", 4096, 1.0), ("root_scale:2", 2048, 0.56),
                                               ("root_scale:4", 1024, 0.65), ("square", None, 0.0)])
    def test_the_walk_keeps_the_shift_of_a_majority(self, hid, j, share):
        x = MULTI.nodes()
        hx = gallery_homeo(hid)(x)
        walk = _walk_images(_Nodes(4096, 20), (hx[s] for s in _blocks(x.size)), np.empty(_BLOCK))
        assert walk == (True, x.size, j, j if share == 1 else None)  # halve carries every node onto a node
        if j is not None:
            on = np.count_nonzero(~off_node(x, hx, j)[: x.size - j])
            assert on / (x.size - j) == pytest.approx(share, abs=0.01)

    def test_half_the_images_on_their_nodes_keep_the_shift(self):
        # h(x_i) = x_(i+1) at the first half of the images with a node, and
        # just below it at the others: the shift is kept at exactly one half
        x = GridSpec(8, 20).nodes()
        n, on = x.size, (x.size - 1) // 2
        hx = np.concatenate([x[1 : 1 + on], np.nextafter(x[1 + on :], 0.0), x[-1:] / 2])
        assert _walk_images(_Nodes(8, 20), [hx], np.empty(n)) == (True, n, 1, None)
        hx[on - 1] = np.nextafter(hx[on - 1], 0.0)
        assert _walk_images(_Nodes(8, 20), [hx], np.empty(n)) == (True, n, None, None)

    def test_the_walk_repeats_the_shift_when_every_image_is_its_node(self):
        # h(x_i) = x_(i+1) at every node but the last, whose image is past the
        # grid's end: the shift is repeated, and one image off its node drops it
        x = GridSpec(8, 20).nodes()
        n, hx = x.size, np.append(x[1:], x[-1] / 2)
        assert _walk_images(_Nodes(8, 20), [hx], np.empty(n)) == (True, n, 1, 1)
        hx[n // 2] = np.nextafter(hx[n // 2], 0.0)
        assert _walk_images(_Nodes(8, 20), [hx], np.empty(n)) == (True, n, 1, None)

    @pytest.mark.parametrize("g", [MULTI, GridSpec(512, 40), WIDE_K], ids=["multi", "512x40", "K40000"])
    def test_root_scale_evaluates_f_at_the_images_off_their_nodes_and_past_the_grid(self, g):
        # f runs block by block at the nodes; each block then waits for the
        # next and runs f once at its images off their nodes x_(i+j), and at
        # those past the grid's end, not at every image
        calls, f = [], builtin("doubling_osc")
        counted = EFunction("builtin", lambda t: calls.append(np.array(t)) or f.fn(t), "E0", "counted")
        w = EquivalenceWitness(gallery_homeo("root_scale:2"), None, math.sqrt(2.0))
        rep = check_witness(counted, None, w, g)
        assert_witness_bits(rep, f, None, w, g)
        x, j = g.nodes(), g.samples_per_octave // 2
        hx = w.h(x)
        miss = off_node(x, hx, j)
        blocks = list(_blocks(x.size))
        want = [x[blocks[0]]]
        for s, t in zip(blocks, blocks[1:]):
            want += [x[t], hx[s][miss[s]]]
        want.append(hx[blocks[-1]][miss[blocks[-1]]])
        assert [bits(c) for c in calls] == [bits(c) for c in want]
        assert 0.5 < np.count_nonzero(~miss) / (x.size - j) < 0.6  # the images with a node that are it

    @pytest.mark.parametrize("m", [7, _BLOCK + 1, 40001], ids=["short", "block", "past_the_ones"])
    def test_relative_residual_keeps_a_nan_then_the_first_largest(self, m):
        # the scale is floored at 1 by a block of ones, or by the scalar on a
        # block longer than it (K = 40000): a NaN wins, then the first largest
        rng = np.random.default_rng(m)
        lhs, rhs = rng.normal(0.0, 4.0, m), rng.normal(0.0, 4.0, m)  # a share below 1, where the floor holds
        lhs[[m // 2, m // 3]], rhs[[m // 2, m // 3]] = 5.0, -5.0  # two ties at the largest residual, 2
        rel = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(rhs), np.abs(lhs)), 1.0)
        assert int(np.argmax(rel)) == m // 3
        kept = lhs.copy()
        assert _relative_residual(lhs, rhs.copy()) == (2.0, m // 3)
        assert lhs.tobytes() == kept.tobytes()  # only the second operand is overwritten
        # into given buffers: the bits of the residual, with lhs overwritten by |lhs|
        assert _relative_residual(kept.copy(), rhs.copy(), np.full(m, np.nan)) == (2.0, m // 3)
        lhs[m - 2] = rhs[m - 1] = math.nan
        r, i = _relative_residual(lhs, rhs.copy())
        assert math.isnan(r) and i == m - 2
        r, i = _relative_residual(lhs.copy(), rhs.copy(), np.empty(m))
        assert math.isnan(r) and i == m - 2
