import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from reebflow import (
    DomainError,
    EFunction,
    EquivalenceWitness,
    GridSpec,
    Homeo,
    Transversal,
    build_flow,
    builtin,
    check_witness,
    classify,
    diagnose_class,
    extract_transition,
    flow_classify,
    from_csv,
    from_expression,
    gallery_homeo,
    self_similarity_scan,
    sigma_estimate,
    standard_flow,
    star_profile,
    time_scale,
)
from reebflow import efunc
from reebflow.classify import _TAU_STD
from reebflow.efunc import _BLOCK, fit_grid
from reebflow.oscillation import as_shift

from star_identities import octave_slice


def shift_k(x):
    x = np.asarray(x, dtype=float)
    return x / (1.0 + x)


def counting(f):
    """f, recording a copy of every array it is evaluated on."""
    calls = []

    def fn(x, _fn=f.fn):
        calls.append(np.array(x, dtype=float))
        return _fn(x)

    return dataclasses.replace(f, fn=fn), calls


def grid_calls(calls, g):
    return [x for x in calls if x.size == g.node_count]


def points_in_unit(calls):
    """The arrays f was evaluated on inside (0, 1], joined in call order.

    Drops the scalar calls and the probes above 1 (the sharp tail, the E0
    diagnosis), so what is left is the grid and the witnesses' images of it.
    """
    arrays = in_unit(calls)
    return len(arrays), np.concatenate(arrays)


def in_unit(calls):
    """The arrays f was evaluated on inside (0, 1], in call order (see :func:`points_in_unit`)."""
    return [x for x in calls if x.ndim == 1 and x.size and x.max() <= 1.0]


def off_node(x, hx, j):
    """Whether f runs at each image under the node shift j: off its node x_(i+j), or past the grid's end."""
    miss = np.ones(x.size, dtype=bool)
    miss[: x.size - j] = hx[: x.size - j] != x[j:]
    return miss


def assert_calls(calls, want):
    """``calls`` are the arrays of ``want``, one by one and bitwise."""
    assert [x.tobytes() for x in calls] == [np.asarray(w, dtype=float).tobytes() for w in want]


# 81,921 nodes: two full blocks of grid-wide passes and a partial one
MULTI = GridSpec(samples_per_octave=4096, octave_max=20)

# the witnesses of the benchmark's scan: exactly self-similar at scale 2, not at sqrt(2)
SCAN_WITNESSES = [
    EquivalenceWitness(gallery_homeo("halve"), None, 2.0),
    EquivalenceWitness(gallery_homeo("root_scale:2"), None, 2.0**0.5),
]

# the streamed star pass is classify's, the sharp one sigma_estimate's
STREAMED = [classify, lambda f, g: sigma_estimate(f, g, "sharp")]


class TestOneSample:
    @pytest.mark.parametrize("run", STREAMED, ids=["star", "sharp"])
    def test_a_streamed_pass_evaluates_f_on_the_grid_once(self, grid, run):
        f, calls = counting(builtin("doubling_osc"))
        run(f, grid)
        (x,) = grid_calls(calls, grid)
        assert np.array_equal(x, grid.nodes())

    def test_scan_evaluates_f_once_plus_once_per_witness(self, grid):
        # the pass evaluates f on the grid, one block here, and feeds it to
        # each witness in turn.  Both keep a node shift: halve carries x_i onto
        # x_(i+K), root_scale:2 about 55% of the x_i onto x_(i+K/2).  So each
        # block waits for the next and, after the pass, f runs at halve's
        # images of the last K nodes, then at root_scale:2's images that are
        # off their nodes or past the grid's end
        f, calls = counting(builtin("doubling_osc"))
        witnesses = [
            EquivalenceWitness(gallery_homeo("halve"), None, 2.0),
            EquivalenceWitness(gallery_homeo("root_scale:2"), None, 2.0 ** 0.5),
        ]
        self_similarity_scan(f, witnesses, grid)
        x, K = grid.nodes(), grid.samples_per_octave
        halve, root = (w.h for w in witnesses)
        assert_calls(in_unit(calls), [x, halve(x[-K:]), root(x)[off_node(x, root(x), K // 2)]])

    def test_scan_witnesses_match_check_witness(self, grid):
        f = builtin("bounded_osc", [2.0])
        witnesses = [
            EquivalenceWitness(gallery_homeo("halve"), shift_k, 2.0),
            EquivalenceWitness(gallery_homeo("pow:2.0"), 1.5, 2.0),
        ]
        rep = self_similarity_scan(f, witnesses, grid)
        assert rep.results == tuple(check_witness(f, None, w, grid) for w in witnesses)

    @pytest.mark.parametrize("run", STREAMED, ids=["star", "sharp"])
    def test_a_streamed_pass_evaluates_f_on_a_multi_block_grid_once(self, run):
        f, calls = counting(builtin("doubling_osc"))
        run(f, MULTI)
        n_calls, x = points_in_unit(calls)
        assert n_calls > 1
        assert np.array_equal(x, MULTI.nodes())

    def test_scan_evaluates_f_on_a_multi_block_grid_once_plus_once_per_witness(self):
        f, calls = counting(builtin("doubling_osc"))
        witnesses = [
            EquivalenceWitness(gallery_homeo("halve"), None, 2.0),
            EquivalenceWitness(gallery_homeo("root_scale:2"), None, 2.0 ** 0.5),
        ]
        self_similarity_scan(f, witnesses, MULTI)
        x, n, K = MULTI.nodes(), MULTI.node_count, MULTI.samples_per_octave
        halve, root = (w.h for w in witnesses)
        # the pass's blocks of 8 octaves share their end nodes, where f runs
        # once.  Each witness folds a block once the next is evaluated: halve
        # reads all of f o h from the two, root_scale:2 runs f at the block's
        # images off their nodes.  After the pass halve runs f at the images of
        # the last K nodes, root_scale:2 at the last block's images off their
        # nodes or past the grid's end
        step = _BLOCK // K * K
        blocks = [slice(lo + (lo > 0), min(lo + step, n - 1) + 1) for lo in range(0, n - 1, step)]
        assert len(blocks) == 3
        hx = root(x)
        off = [hx[s][off_node(x, hx, K // 2)[s]] for s in blocks]
        want = [x[blocks[0]], x[blocks[1]], off[0], x[blocks[2]], off[1], halve(x[-K:]), off[2]]
        assert_calls(in_unit(calls), want)

    @pytest.mark.parametrize("g", [MULTI, GridSpec(40000, 16), GridSpec(1, 20)], ids=["4096x20", "40000x16", "1x20"])
    def test_scan_runs_h_once_per_node_and_at_the_last_images_under_halve(self, g):
        # each witness walks h over the grid; the pass's blocks span whole octaves, so halve's images are read
        # from a block and the next, and h runs again at the last K nodes alone, root_scale:2's at every node
        sizes = {"halve": [], "root_scale:2": []}
        witnesses = [dataclasses.replace(w, h=dataclasses.replace(w.h, fn=lambda x, _fn=w.h.fn, _s=sizes[w.h.name]:
                                                                  _s.append(len(x)) or _fn(x)))
                     for w in SCAN_WITNESSES]
        rep = self_similarity_scan(builtin("doubling_osc"), witnesses, g)
        assert sum(sizes["halve"]) == g.node_count + g.samples_per_octave and 0 not in sizes["halve"]
        assert sum(sizes["root_scale:2"]) == 2 * g.node_count
        assert rep.results == self_similarity_scan(builtin("doubling_osc"), SCAN_WITNESSES, g).results

    def test_multi_block_scan_matches_whole_array_passes(self):
        f = builtin("bounded_osc", [2.0])
        witnesses = [
            EquivalenceWitness(gallery_homeo("halve"), shift_k, 2.0),
            EquivalenceWitness(gallery_homeo("root_scale:2"), None, 2.0 ** 0.5),
            EquivalenceWitness(gallery_homeo("pow:2.0"), 1.5, 2.0),
        ]
        rep = self_similarity_scan(f, witnesses, MULTI)
        x = MULTI.nodes()
        fx = f(x)
        # reference: the sigma and the witness residuals from whole-array passes
        star = np.maximum.accumulate(fx) - fx
        report = classify(f, MULTI)
        assert report.sigma.s_m.tobytes() == MULTI.octave_envelopes(star)[0].tobytes()
        assert rep.verdict == report.verdict
        for r, w in zip(rep.results, witnesses):
            lhs, rhs = w.lam * fx, f(w.h(x)) + as_shift(w.k)(x)
            rel = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(rhs), np.abs(lhs)), 1.0)
            i = int(np.argmax(rel))
            assert (r.residual, r.worst_x) == (float(rel[i]), float(x[i]))
            assert r == check_witness(f, None, w, MULTI)

    @pytest.mark.parametrize("g", [MULTI, GridSpec(100, 30)], ids=["4096x20", "100x30"])
    @pytest.mark.parametrize("name", ["doubling_osc", "bounded_osc", "std_log"])
    def test_scan_reports_match_whole_array_passes(self, g, name):
        # witnesses whose images land on nodes (halve, with and without k),
        # partly on nodes (the roots of halve), off them (square), and a
        # non-monotone h: every report is bitwise that of evaluating f at
        # every image of the whole grid
        f = builtin(name)
        bent = Homeo(lambda x: np.asarray(x * (1.0 - 0.6 * x)), None, "bent")
        witnesses = [
            EquivalenceWitness(gallery_homeo("halve"), None, 2.0),
            EquivalenceWitness(gallery_homeo("root_scale:2"), None, 2.0 ** 0.5),
            EquivalenceWitness(gallery_homeo("root_scale:4"), None, 2.0 ** 0.25),
            EquivalenceWitness(gallery_homeo("square"), None, 2.0),
            EquivalenceWitness(gallery_homeo("halve"), shift_k, 2.0),
            EquivalenceWitness(bent, None, 1.0),
        ]
        rep = self_similarity_scan(f, witnesses, g)
        x = g.nodes()
        fx = f(x)
        for r, w in zip(rep.results, witnesses):
            hx = w.h(x)
            if np.all(np.diff(hx) < 0) and np.all(hx > 0):
                lhs, rhs = w.lam * fx, f(hx) + as_shift(w.k)(x)
                rel = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(rhs), np.abs(lhs)), 1.0)
                i = int(np.argmax(rel))
                want = (float(rel[i]), float(x[i]), True)
            else:
                want = (math.inf, float(x[0]), False)
            got = (r.residual, r.worst_x, r.h_monotone)
            assert np.array(got[:2]).tobytes() == np.array(want[:2]).tobytes()
            assert got[2] == want[2] and r.passed == (want[0] <= 1e-9)
        assert [r.h_monotone for r in rep.results] == [True] * 5 + [False]

    @pytest.mark.parametrize("n_witnesses", [1, 2])
    def test_scan_reports_failing_f_as_sampling_error(self, small_grid, n_witnesses):
        # an fn that raises; an expression that would, such as x[100000] + 0*x, is rejected when compiled
        def fn(x):
            return x[100000] + 0 * x

        f = EFunction("expression", fn, "E", "indexes")
        witnesses = SCAN_WITNESSES[:n_witnesses]
        with pytest.raises(DomainError, match="^evaluation failed on grid: index 100000 is out of bounds"):
            self_similarity_scan(f, witnesses, small_grid)


class TestStreamingMemory:
    @pytest.mark.parametrize(
        "name,run",
        [
            ("std_log", classify),
            ("std_log", sigma_estimate),
            ("doubling_osc", lambda f, g: sigma_estimate(f, g, "sharp")),
            ("doubling_osc", lambda f, g: self_similarity_scan(f, SCAN_WITNESSES, g)),
            ("doubling_osc", lambda f, g: check_witness(f, None, SCAN_WITNESSES[1], g)),
        ],
        ids=["classify", "sigma_estimate", "sharp", "scan", "check_witness"],
    )
    def test_no_grid_sized_array_is_held(self, name, run):
        # 983,041 nodes: the nodes, f and the profile over the grid would take
        # 7.9 MB each, as would h(x) for a witness, and the sharp tail's nodes
        # and f there 2.6 MB each; the passes hold buffers of one 2^15-node
        # block, write the nodes of each block into one of them, and never
        # consult the cache of GridSpec.nodes()
        f, g = builtin(name), GridSpec(16384, 60)
        calls = efunc._nodes.cache_info()
        tracemalloc.start()
        try:
            run(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert efunc._nodes.cache_info() == calls


class TestNonFiniteValues:
    @pytest.mark.parametrize(
        "expr,x_bad", [("1/(1-x)", 1.0), ("1/(x-0.25)", 0.25)], ids=["first_node", "inner_node"]
    )
    @pytest.mark.parametrize(
        "run",
        [
            classify,
            sigma_estimate,
            star_profile,
            lambda f, g: self_similarity_scan(f, [EquivalenceWitness(gallery_homeo("halve"), None, 2.0)], g),
        ],
        ids=["classify", "sigma_estimate", "star_profile", "scan"],
    )
    def test_only_the_domain_error(self, run, expr, x_bad):
        # f is +inf at one node and the running max carries it on, so the
        # pass meets inf - inf; the value is reported as a DomainError alone
        f = from_expression(expr)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^non-finite value at grid node x={x_bad!r}$"):
                run(f, MULTI)

    @pytest.mark.parametrize("part", ["h", "k"])
    def test_a_failing_h_or_k_comes_before_a_non_finite_f(self, part):
        # h is walked before the pass, and k runs as the pass folds each
        # block, so both fail before the pass reports f's non-finite value
        def fail(x):
            raise ArithmeticError(f"{part} fails")

        h = Homeo(fail) if part == "h" else gallery_homeo("halve")
        w = EquivalenceWitness(h, fail if part == "k" else None, 2.0)
        with pytest.raises(ArithmeticError, match=f"^{part} fails$"):
            self_similarity_scan(from_expression("1/(x-0.25)"), [w], MULTI)


class TestWarningsMatchDiagnosis:
    @pytest.mark.parametrize(
        "f,n_warnings",
        [
            (builtin("std_log"), 0),
            (builtin("doubling_osc"), 0),
            (builtin("bounded_osc", [2.0]), 0),
            (builtin("koenigs_demo"), 0),
            (dataclasses.replace(from_expression("1 + 1/x"), claimed_class="E0"), 1),  # the E0 tail is not small
        ],
        ids=["std_log", "doubling_osc", "bounded_osc", "koenigs_demo", "e0_suspect"],
    )
    def test_classify_warnings_are_the_diagnosis(self, small_grid, f, n_warnings):
        warnings = classify(f, small_grid).warnings
        assert warnings == tuple(diagnose_class(f, small_grid))
        assert len(warnings) == n_warnings

    @pytest.fixture
    def dip_csv(self, tmp_path):
        # 18 octaves of data, enough for the verdict's 8-octave window, that crash back to 0 at 2^-6
        rows = ["x,f"] + [f"{2.0 ** -m!r},{float(m) if m < 6 else m - 6.0!r}" for m in range(19)]
        path = tmp_path / "dip.csv"
        path.write_text("\n".join(rows) + "\n")
        return from_csv(path)

    def test_shrunk_domain(self, small_grid, dip_csv):
        g = fit_grid(dip_csv, small_grid)
        assert g.octave_max == 18 < small_grid.octave_max
        warnings = diagnose_class(dip_csv, small_grid)
        assert warnings and warnings[0].startswith("class E suspect")
        # on the fitted grid (the CLI's path) classify reports the same warnings
        assert classify(dip_csv, g).warnings == tuple(warnings)
        # on the full grid the sample is out of the data's domain
        msg = f"evaluation outside domain [{2.0 ** -18:g}, 1] for {dip_csv.description}"
        with pytest.raises(DomainError, match=f"^{re.escape(msg)}$"):
            classify(dip_csv, small_grid)


class TestVerdicts:
    def test_std_log_standard(self, grid):
        assert classify(builtin("std_log"), grid).verdict == "standard"

    def test_koenigs_demo_standard(self, grid):
        assert classify(builtin("koenigs_demo"), grid).verdict == "standard"

    def test_doubling_osc_nonstandard(self, grid):
        rep = classify(builtin("doubling_osc"), grid)
        assert rep.verdict == "nonstandard"
        assert rep.sigma.trend == "increasing"

    def test_bounded_osc_nonstandard(self, grid):
        rep = classify(builtin("bounded_osc", [2.0]), grid)
        assert rep.verdict == "nonstandard"
        assert rep.sigma.sigma_hat == pytest.approx(1.3697065127445591, abs=1e-3)

    def test_inconclusive_band(self, grid):
        # amplitude 0.01 oscillation: sigma_hat sits between the thresholds
        rep = classify(builtin("bounded_osc", [1.01]), grid)
        assert rep.verdict == "inconclusive"

    def test_standard_implies_vanishing(self, grid):
        rep = classify(builtin("std_log"), grid)
        assert rep.sigma.trend == "vanishing"
        assert rep.sigma.sigma_hat < _TAU_STD

    def test_report_schema(self, grid):
        obj = classify(builtin("std_log"), grid).to_json()
        assert set(obj) >= {"verdict", "sigma_hat", "trend", "s_m", "shifts", "provenance"}

    def test_provenance_is_the_kind_of_f(self, tmp_path, small_grid):
        # regression: a CSV function was reported as "builtin"
        x = small_grid.nodes().tolist()
        data = tmp_path / "data.csv"
        data.write_text("x,f\n" + "".join(f"{v!r},{-math.log(v)!r}\n" for v in x))
        for f, want in [
            (builtin("std_log"), "builtin"),
            (from_csv(data), "sampled"),
            (from_expression("-log(x)"), "expression"),
        ]:
            rep = classify(f, small_grid)
            assert (rep.provenance, rep.shifts) == (want, {})
        rep = flow_classify(time_scale(standard_flow(), 3.0), g=small_grid)
        assert rep.provenance == "extracted-from-flow"
        assert rep.shifts == {"flow_shift": 0.0, "time_factor": 3.0}


class TestSelfSimilarityScan:
    def test_std_log_passes_every_scale(self, grid):
        # lam * (-ln x) = -ln(x^lam): the exact witness at any scale
        f = builtin("std_log")
        witnesses = [
            EquivalenceWitness(gallery_homeo(f"pow:{lam!r}"), None, lam)
            for lam in (2.0, 3.0, 2.0 ** 0.25)
        ]
        rep = self_similarity_scan(f, witnesses, grid)
        assert rep.all_passed
        assert all(r.residual <= 1e-12 for r in rep.results)
        assert rep.verdict == "standard"
        assert "standard" in rep.note

    def test_single_scale_is_not_enough(self, grid):
        # exactly self-similar at scale 2 yet the oscillation blows up: a
        # passing witness list does not certify standardness
        f = builtin("doubling_osc")
        rep = self_similarity_scan(f, [EquivalenceWitness(gallery_homeo("halve"), None, 2.0)], grid)
        assert rep.all_passed
        assert all(r.residual <= 1e-12 for r in rep.results)
        assert rep.verdict == "nonstandard"
        assert "does not certify" in rep.note

    def test_a_failing_scale_on_a_nonstandard_profile(self, small_grid):
        rep = self_similarity_scan(builtin("doubling_osc"), SCAN_WITNESSES, small_grid)
        assert [(r.h_monotone, r.passed) for r in rep.results] == [(True, True), (True, False)]
        assert not rep.all_passed and rep.verdict == "nonstandard"
        assert rep.note == "witness failures are consistent with the nonstandard verdict"

    def test_intermediate_scale_fails_for_doubling(self, grid):
        f = builtin("doubling_osc")
        lam = 2.0 ** 0.5
        h = gallery_homeo(f"root_scale:2")
        rep = self_similarity_scan(f, [EquivalenceWitness(h, None, lam)], grid)
        assert not rep.all_passed
        # residual at x = 2^(-1/8) evaluates to ~0.62, far from roundoff
        assert rep.results[0].residual > 0.5

    def test_empty_witness_list(self):
        # regression: an empty list reported "witness failures" that no witness had; f never runs
        calls = []
        f = builtin("std_log")
        f = dataclasses.replace(f, fn=lambda x, _fn=f.fn: calls.append(len(x)) or _fn(x))
        with pytest.raises(ValueError, match="witnesses is empty"):
            self_similarity_scan(f, [], GridSpec(64, 24))
        assert calls == []


class TestFlowClassify:
    def test_standard_flow(self, grid):
        rep = flow_classify(standard_flow(), g=grid)
        assert rep.verdict == "standard"
        assert rep.provenance == "extracted-from-flow"

    def test_realized_std_log(self, grid):
        rep = flow_classify(build_flow(builtin("std_log"), g=grid), g=grid)
        assert rep.verdict == "standard"

    def test_realized_doubling(self, grid):
        rep = flow_classify(build_flow(builtin("doubling_osc"), g=grid), g=grid)
        assert rep.verdict == "nonstandard"

    def test_realized_bounded_osc(self, grid):
        rep = flow_classify(build_flow(builtin("bounded_osc", [2.0]), g=grid), g=grid)
        assert rep.verdict == "nonstandard"

    @pytest.mark.parametrize("lam", [1.0, 1.7])
    @pytest.mark.parametrize("name", ["std_log", "doubling_osc", "bounded_osc"])
    def test_multi_block_sigma_matches_the_whole_array_profile(self, name, lam):
        # flow_classify streams the held transit target over three blocks and keeps
        # only the profile's octave maxima: they are those of one whole-array pass
        F = time_scale(build_flow(builtin(name), g=MULTI), lam)
        fx = extract_transition(dataclasses.replace(F, held=None))(MULTI.nodes())
        star = np.maximum.accumulate(fx) - fx
        want = np.array([star[octave_slice(MULTI, m)].max() for m in range(MULTI.octave_max)])
        assert flow_classify(F, g=MULTI).sigma.s_m.tobytes() == want.tobytes()

    def test_shift_recorded_in_report(self, grid):
        F = build_flow(builtin("bounded_osc", [2.0]), g=grid)
        rep = flow_classify(F, g=grid)
        assert rep.shifts == {"flow_shift": 0.0, "time_factor": 1.0}

    def test_scaled_standard_stays_standard(self, grid):
        # scaling a monotone extracted profile keeps the drop at zero
        rep = flow_classify(time_scale(standard_flow(), 7.0), g=grid)
        assert rep.verdict == "standard"
        assert rep.shifts["time_factor"] == 7.0

    @pytest.mark.parametrize("lam", [0.5, 2.0, 5.0])
    def test_verdict_invariant_under_time_scaling(self, grid, lam):
        cases = [
            (standard_flow(), "standard"),
            (build_flow(builtin("std_log"), g=grid), "standard"),
            (build_flow(builtin("doubling_osc"), g=grid), "nonstandard"),
            (build_flow(builtin("bounded_osc", [2.0]), g=grid), "nonstandard"),
        ]
        for F, want in cases:
            assert flow_classify(time_scale(F, lam), g=grid).verdict == want

    def test_verdict_invariant_under_witness_transport(self, grid):
        h = gallery_homeo("halve")
        for name, params in (
            ("std_log", ()),
            ("doubling_osc", ()),
            ("bounded_osc", (2.0,)),
            ("koenigs_demo", ()),
        ):
            f = builtin(name, params)
            transported = f.composed(h, "halve").plus(shift_k)
            assert classify(f, grid).verdict == classify(transported, grid).verdict


# the largest star drop of ln(1/x) + 2 sin(ln(1/x)), the sigma of bounded_osc(2)
BOUNDED_OSC_DROP = 2.0 * math.sqrt(3.0) - 2.0 * math.pi / 3.0
GALLERY = ("std_log", "doubling_osc", "bounded_osc", "koenigs_demo")
# bounded_osc o pow:p repeats every 9.06 / p octaves
POW_SWEEP = [(float(p), M) for p in np.round(np.arange(0.20, 1.0001, 0.05), 2) for M in range(30, 61)]


def deep_half_warnings(rep):
    return [w for w in rep.warnings if w.startswith("sigma_hat = ")]


def transported(name, hid, k):
    """The gallery profile ``name`` composed with the homeomorphism ``hid``, plus k (None, a constant or a function)."""
    f = builtin(name).composed(gallery_homeo(hid), hid)
    if k is None:
        return f
    return f.shifted(k) if isinstance(k, float) else f.plus(k)


@st.composite
def gallery_cases(draw):
    """(f, h, k, octave_max) with a period of bounded_osc o h that fits in the deep half of the grid."""
    M = draw(st.integers(30, 60))
    hid = draw(st.one_of(
        st.floats(18.12 / M, 3.0).map(lambda p: f"pow:{p!r}"),
        st.sampled_from(["halve", "square"]),
        st.integers(1, 16).map(lambda n: f"root_scale:{n}"),
    ))
    k = draw(st.one_of(st.none(), st.floats(-10.0, 10.0), st.just(shift_k)))
    return draw(st.sampled_from(GALLERY)), hid, k, M


def leaf_power_transversal(q: float) -> Transversal:
    """gamma1 puts the parameter x on leaf x^q, exactly between its log-spaced nodes; gamma2 is the default."""
    xs = np.exp2(-np.linspace(0.0, 41.0, 83))[::-1]
    return Transversal(tuple((float(v), float(v) ** q, 1.0) for v in xs), tuple((1.0, float(v)) for v in xs))


class TestDeepHalf:
    def test_bounded_osc_under_pow_is_never_standard(self):
        # regression: 46 of these 527 cells read "standard" with sigma_hat read off the
        # final 8 octaves, which fell in a zero-free stretch of the slowed oscillation
        f = builtin("bounded_osc")
        warned = set()
        for p, M in POW_SWEEP:
            rep = classify(f.composed(gallery_homeo(f"pow:{p}")), GridSpec(512, M))
            assert rep.verdict != "standard", (p, M)
            if deep_half_warnings(rep):
                assert rep.verdict == "inconclusive", (p, M)
                warned.add((p, M))
        assert len(warned) == 46
        assert {(0.5, 60), (0.25, 40), (0.45, 46), (0.35, 57)} <= warned

    @given(case=gallery_cases())
    @example(case=("bounded_osc", "pow:0.5", None, 60))
    @example(case=("bounded_osc", "pow:0.45", shift_k, 46))
    @example(case=("bounded_osc", "pow:0.35", 1.0, 57))
    def test_the_verdict_survives_a_change_of_time_and_transversal(self, case):
        name, hid, k, M = case
        rep = classify(transported(name, hid, k), GridSpec(512, M))
        if name in ("std_log", "koenigs_demo"):
            assert rep.verdict == "standard"
        else:
            assert rep.verdict != "standard"

    @pytest.mark.parametrize("name", GALLERY)
    def test_the_flow_verdict_does_not_depend_on_the_transversal(self, name):
        # regression: bounded_osc read "standard" through the q = 0.25 transversal
        F = build_flow(builtin(name))
        reps = [flow_classify(F, leaf_power_transversal(q)) for q in (1.0, 0.5, 0.25)]
        verdicts = {rep.verdict for rep in reps}
        if name in ("std_log", "koenigs_demo"):
            assert verdicts == {"standard"}
        else:
            assert "standard" not in verdicts
        if name == "bounded_osc":
            sigmas = [rep.sigma.sigma_hat for rep in reps]
            assert max(sigmas) - min(sigmas) <= 1e-6, sigmas

    def test_bounded_osc_sigma_hat_does_not_depend_on_the_grid_end(self):
        # regression: the final 8 octaves held part of a 9.06-octave period, 1.2973 at 60
        f = builtin("bounded_osc", [2.0])
        errs = {M: abs(sigma_estimate(f, GridSpec(512, M)).sigma_hat - BOUNDED_OSC_DROP) for M in range(30, 61)}
        assert max(errs.values()) <= 1e-5, errs

    @pytest.mark.parametrize("M, want", [(30, "nonstandard"), (40, "inconclusive"), (60, "inconclusive")])
    def test_a_slowly_vanishing_oscillation_keeps_its_verdict(self, M, want):
        # u + (1 + 3/u) sin u has sigma = 0: the deep half may take "standard" away, never
        # give "nonstandard", though at 40 octaves it reads a drop above tau_ns
        f = from_expression("-log(x) + (1 + 3/maximum(-log(x), 1e-300))*sin(-log(x))")
        rep = classify(f, GridSpec(512, M))
        assert rep.verdict == want
        assert rep.sigma.sigma_hat == max(rep.sigma.s_m[M // 2 :])

    def test_the_warning_names_sigma_hat_and_its_octave(self):
        rep = classify(builtin("bounded_osc").composed(gallery_homeo("pow:0.25")), GridSpec(512, 40))
        (warning,) = deep_half_warnings(rep)
        m = int(re.fullmatch(
            r"sigma_hat = 1\.36971, set at octave (\d+) of the deep half of the grid, is not below "
            r"tau_std = 0\.001: the final 8 octaves alone would read standard", warning).group(1))
        assert m >= 20 and rep.sigma.s_m[m] == rep.sigma.sigma_hat
        assert max(rep.sigma.s_m[-8:]) < _TAU_STD
        # the warning is the only trace in the JSON: no key is added
        assert set(rep.to_json()) == {"verdict", "sigma_hat", "trend", "s_m", "shifts",
                                      "provenance", "tau_std", "tau_ns", "warnings"}

    @pytest.mark.parametrize("M", [None, *range(30, 61, 5)])
    def test_no_gallery_profile_is_warned(self, M):
        g = GridSpec() if M is None else GridSpec(512, M)
        for name in GALLERY:
            assert deep_half_warnings(classify(builtin(name), g)) == [], name
