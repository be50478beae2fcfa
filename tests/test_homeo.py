import numpy as np
import pytest
from hypothesis import given, strategies as st

from reebflow import (
    BasinReport,
    GridSpec,
    Homeo,
    basin_of_zero,
    gallery_homeo,
    homeo_from_expression,
)

# onto increasing map fixing 0 with h(x) < x, parabolic at 0
MOBIUS = "x*(2+x)/(2+2*x)"
MOBIUS_INV = "where(x < 1, 2*x/(sqrt(x**2+1) + 1 - x), (x-1) + sqrt(x**2+1))"


def mobius():
    return homeo_from_expression(MOBIUS, MOBIUS_INV)


def iterate(h, n, x):
    """n-fold composition h^n(x) at one point; negative n walks the inverse."""
    for _ in range(abs(n)):
        x = h(x) if n > 0 else h.inverse(x)
    return float(x)


class TestGallery:
    def test_halve(self):
        h = gallery_homeo("halve")
        assert h(8.0) == 4.0
        assert h.inverse(1.0) == 2.0

    def test_square(self):
        h = gallery_homeo("square")
        assert h(0.9) == pytest.approx(0.81, rel=1e-15)
        assert h.inverse(0.25) == 0.5

    def test_root_scale(self):
        h = gallery_homeo("root_scale:4")
        assert h(1.0) == pytest.approx(2.0 ** -0.25, rel=1e-15)

    def test_pow(self):
        h = gallery_homeo("pow:3")
        assert h(0.5) == 0.125
        assert h.inverse(0.125) == pytest.approx(0.5, rel=1e-14)

    def test_expression_fallback(self):
        h = gallery_homeo("x/2 + 0*x")
        assert h(2.0) == 1.0

    def test_bad_idents(self):
        with pytest.raises(ValueError, match="^homeo 'root_scale:0': N must be an integer >= 1$"):
            gallery_homeo("root_scale:0")
        with pytest.raises(ValueError, match="^homeo 'pow:-1': p must be a finite number > 0$"):
            gallery_homeo("pow:-1")

    @pytest.mark.parametrize(
        "ident, expects",
        [
            ("root_scale:x", "N must be an integer >= 1"),
            ("root_scale:1.5", "N must be an integer >= 1"),
            ("pow:abc", "p must be a finite number > 0"),
            ("pow:nan", "p must be a finite number > 0"),
        ],
    )
    def test_malformed_idents_are_named(self, ident, expects):
        # regression: "could not convert string to float" and "invalid
        # literal for int()" named neither the id nor its parameter
        with pytest.raises(ValueError, match=f"^homeo '{ident}': {expects}$"):
            gallery_homeo(ident)

    def test_must_fix_zero(self):
        with pytest.raises(ValueError, match="fix 0"):
            homeo_from_expression("x + 1")

    def test_inverse_round_trip_enforced(self):
        with pytest.raises(ValueError, match="round trip"):
            homeo_from_expression("x/2", "3*x")


class TestIterate:
    def test_halve_three(self):
        assert iterate(gallery_homeo("halve"), 3, 8.0) == 1.0

    def test_square_twice(self):
        assert iterate(gallery_homeo("square"), 2, 0.9) == pytest.approx(0.9 ** 4, rel=1e-15)

    def test_negative_uses_inverse(self):
        assert iterate(gallery_homeo("halve"), -2, 1.0) == 4.0

    def test_zero_steps(self):
        assert iterate(gallery_homeo("square"), 0, 0.3) == 0.3

    def test_bisection_inverse_matches_closed_form(self):
        h_closed = mobius()
        h_bisect = homeo_from_expression(MOBIUS)  # no inverse supplied
        for y in (0.01, 0.3, 1.0, 7.0):
            assert h_bisect.inverse(y) == pytest.approx(h_closed.inverse(y), rel=1e-11)

    @pytest.mark.parametrize("y, want", [(-0.5, None), (-0.0, 0.0), (0.0, 0.0)], ids=["negative", "-0", "0"])
    def test_bisection_inverse_at_and_below_0(self, y, want):
        # without a closed form, 0 is its own preimage and a negative y has none
        h = homeo_from_expression(MOBIUS)
        if want is None:
            with pytest.raises(ValueError, match="^inverse requested below 0$"):
                h.inverse(y)
        else:
            assert h.inverse(y) == want

    def test_inverse_bracket_ceiling(self):
        # x/(1+x) is bounded above by 1, so 2 has no preimage
        capped = Homeo(lambda x: np.asarray(x / (1.0 + x)), None, "capped")
        with pytest.raises(ValueError, match="no preimage"):
            capped.inverse(2.0)

    @given(
        n=st.integers(min_value=-5, max_value=5),
        m=st.integers(min_value=-5, max_value=5),
        x=st.floats(min_value=2.0 ** -20, max_value=0.99),
    )
    def test_group_law(self, n, m, x):
        for h in (gallery_homeo("halve"), gallery_homeo("square"), mobius()):
            a = iterate(h, m, iterate(h, n, x))
            b = iterate(h, m + n, x)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-300)

    def test_monotone_under_composition_and_inverse(self):
        h = mobius()
        xs = np.exp2(-np.arange(0.0, 30.0))
        for n in (1, 2, -1, -2):
            vals = np.array([iterate(h, n, float(v)) for v in xs])
            assert np.all(np.diff(vals) < 0)


class TestBasin:
    def test_halve_global(self, small_grid):
        rep = basin_of_zero(gallery_homeo("halve"), small_grid)
        assert rep.case == "global"
        assert rep.b is None

    def test_mobius_global(self, small_grid):
        assert basin_of_zero(mobius(), small_grid).case == "global"

    def test_square_bounded_at_one(self, small_grid):
        rep = basin_of_zero(gallery_homeo("square"), small_grid)
        assert rep.case == "bounded"
        assert rep.b == pytest.approx(1.0, rel=1e-12)

    def test_shifted_fixed_point_bisected(self, small_grid):
        # h(x) = x^2/1.5 fixes 1.5; below it h(x) < x
        h = homeo_from_expression("x*x/1.5", "sqrt(1.5*x)")
        rep = basin_of_zero(h, small_grid)
        assert rep.case == "bounded"
        assert rep.b == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("grid", [GridSpec(1, 1), GridSpec(1, 2)], ids=["1,1", "1,2"])
    def test_square_bounded_on_fewer_nodes_than_q(self, grid):
        # regression: the test of h(x) <= x nearest 0 ran past the nodes to 2 and 4, where x^2 > x
        assert grid.node_count < 4
        assert basin_of_zero(gallery_homeo("square"), grid) == BasinReport("bounded", 1.0)

    def test_doubling_repels(self, small_grid):
        rep = basin_of_zero(gallery_homeo("x*2"), small_grid)
        assert rep.case == "zero_repelling"

    def test_bounded_case_dynamics(self):
        h = gallery_homeo("square")
        assert iterate(h, 40, 1.0 - 1e-3) < 1e-6
        assert abs(iterate(h, -40, 0.5) - 1.0) < 1e-6

