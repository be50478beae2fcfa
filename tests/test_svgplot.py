import xml.etree.ElementTree as ET

import numpy as np
import pytest

from reebflow.svgplot import _decimate, line_plot


def walk(n, seed=0):
    """A random walk over the plot's pixel range: x increasing, y wandering."""
    rng = np.random.default_rng(seed)
    px = np.linspace(70.0, 780.0, n)
    py = 40.0 + np.cumsum(rng.normal(size=n))
    return px, py


def column_extremes(px, py):
    col = np.floor(px)
    return {c: (py[col == c].min(), py[col == c].max()) for c in np.unique(col)}


def runs(px):
    col = np.floor(px)
    return 1 + int(np.count_nonzero(col[1:] != col[:-1]))


def polylines(path):
    root = ET.parse(path).getroot()
    out = []
    for el in root.iter("{http://www.w3.org/2000/svg}polyline"):
        pts = [tuple(map(float, p.split(","))) for p in el.get("points").split()]
        out.append(np.array(pts))
    return out


class TestDecimate:
    @pytest.mark.parametrize("n", [50, 20481, 200000])
    def test_random_walk_keeps_column_extremes(self, n):
        px, py = walk(n, seed=n)
        qx, qy = _decimate(px, py)
        assert column_extremes(qx, qy) == column_extremes(px, py)
        assert (qx[0], qy[0]) == (px[0], py[0])
        assert (qx[-1], qy[-1]) == (px[-1], py[-1])
        assert len(qx) <= 4 * runs(px)
        # the survivors are original points, in their original order
        idx = np.searchsorted(px, qx)
        np.testing.assert_array_equal(px[idx], qx)
        np.testing.assert_array_equal(py[idx], qy)
        assert np.all(np.diff(idx) > 0)

    def test_large_series_is_reduced(self):
        px, py = walk(20481)
        assert len(_decimate(px, py)[0]) < 20481 // 4

    def test_short_series_unchanged(self):
        px, py = walk(40)
        qx, qy = _decimate(px, py)
        assert qx is px and qy is py

    def test_non_monotone_x_keeps_run_extremes(self):
        # an orbit-like curve that sweeps right, then back left over the same columns
        t = np.linspace(0.0, 2.0 * np.pi, 30001)
        px = 420.0 + 300.0 * np.sin(t)
        py = 200.0 + 100.0 * np.cos(3.0 * t) + np.sin(50.0 * t)
        qx, qy = _decimate(px, py)
        assert len(qx) < len(px)
        col = np.floor(px)
        bounds = np.flatnonzero(np.r_[True, col[1:] != col[:-1], True])
        kept = set(zip(qx.tolist(), qy.tolist()))
        for a, b in zip(bounds[:-1], bounds[1:]):
            run_y = py[a:b]
            for i in (a, b - 1, a + int(np.argmin(run_y)), a + int(np.argmax(run_y))):
                assert (px[i], py[i]) in kept

    def test_ties_keep_one_point_each(self):
        # a flat series (a star profile at zero) keeps at most four points per column
        px = np.linspace(70.0, 80.0, 5001)
        qx, qy = _decimate(px, np.zeros_like(px))
        assert len(qx) <= 4 * runs(px) and np.all(qy == 0.0)


class TestLinePlot:
    def test_long_series_keeps_its_envelope(self, tmp_path):
        x = np.exp2(-np.arange(20481) / 512.0)
        y = -np.log(x) + 2.0 * np.sin(-np.log(x))
        out = tmp_path / "p.svg"
        line_plot(out, x, {"f": y}, logx=True)
        (pts,) = polylines(out)
        assert 100 < len(pts) <= 4 * 711
        # the drawn y range is the full data range (y axis runs top to bottom)
        assert pts[:, 1].min() == pytest.approx(40.0, abs=0.006)
        assert pts[:, 1].max() == pytest.approx(450.0, abs=0.006)
        assert pts[0, 0] == pytest.approx(780.0) and pts[-1, 0] == pytest.approx(70.0)

    def test_octave_sized_series_drawn_point_for_point(self, tmp_path):
        m = [float(v) for v in range(40)]
        s = [0.5 + 0.25 * np.sin(v) for v in m]
        out = tmp_path / "o.svg"
        line_plot(out, m, {"s_m": s})
        (pts,) = polylines(out)
        assert len(pts) == 40

    def test_nonfinite_and_logy_filtered(self, tmp_path):
        out = tmp_path / "n.svg"
        line_plot(out, [1.0, 2.0, 3.0, 4.0], {"a": [1.0, np.nan, -1.0, 8.0]}, logy=True)
        (pts,) = polylines(out)
        assert len(pts) == 2

    def test_empty_series_still_valid(self, tmp_path):
        out = tmp_path / "e.svg"
        line_plot(out, [], {"a": []}, title="empty")
        assert polylines(out) == []
        assert ">empty<" in out.read_text()


def test_text_is_escaped(tmp_path):
    path = tmp_path / "p.svg"
    names = {"x & y": [1.0, 2.0], "<f>": [2.0, 1.0]}
    line_plot(path, [1.0, 2.0], names, title="a&b", xlabel="x < 1", ylabel="y > 0")
    texts = [el.text for el in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")]
    assert {"a&b", "x < 1", "y > 0", "x & y", "<f>"} <= set(texts)


@pytest.mark.parametrize("v", [1e300, -1e300, 1.7976931348623157e308, 2.0**53])
def test_a_one_point_range_is_widened_at_any_size(tmp_path, v):
    # regression: x_hi = x_lo + 1.0 rounds to x_lo at 1e300, and the plot divided by the zero width
    path = tmp_path / "p.svg"
    line_plot(path, [v, v], {"a": [v, v]})
    (pts,) = polylines(path)
    assert np.all(np.isfinite(pts)) and "inf" not in path.read_text()


def test_a_one_point_range_keeps_its_widening_by_one(tmp_path):
    # where x_lo + 1.0 != x_lo the range is [x_lo, x_lo + 1], as it always was: the point on the left
    # edge, the ticks 5, 5.25, .. 6
    path = tmp_path / "p.svg"
    line_plot(path, [5.0, 5.0], {"a": [2.0, 2.0]})
    (pts,) = polylines(path)
    texts = [el.text for el in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")]
    assert pts[0][0] == 70.0 and {"5", "5.25", "6", "2", "3"} <= set(texts)
