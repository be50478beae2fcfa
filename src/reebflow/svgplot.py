"""Dependency-free SVG line plots: deterministic text output, diffable in CI."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = ["line_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 800, 500
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _escape(text: str) -> str:
    """Text as XML character data, like ``xml.sax.saxutils.escape``, whose
    import (it loads ``urllib.request``) would cost every run about 40 ms."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _decimate(px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First, min-y, max-y and last point of each run of points with one ``floor(px)``.

    Runs follow the sequence, so a curve that turns back in x keeps its shape.
    A series averaging at most four points per run is returned as it is.
    """
    col = np.floor(px)
    starts = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
    n = len(px)
    if 4 * len(starts) >= n:
        return px, py
    lengths = np.diff(np.r_[starts, n])
    keep = [starts, starts + lengths - 1]
    for extreme in (np.minimum, np.maximum):
        # first index of each run where py attains the run's extreme
        hit = py == np.repeat(extreme.reduceat(py, starts), lengths)
        keep.append(np.minimum.reduceat(np.where(hit, np.arange(n), n), starts))
    keep = np.unique(np.concatenate(keep))
    return px[keep], py[keep]


def line_plot(
    path,
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    logy: bool = False,
) -> None:
    data = {}
    with np.errstate(divide="ignore", invalid="ignore"):  # log2 of v <= 0 is dropped below
        xs = np.log2(x) if logx else np.asarray(x, dtype=float)
        for name, ys in series.items():
            b = np.log2(ys[: len(xs)]) if logy else np.asarray(ys[: len(xs)], dtype=float)
            a = xs[: len(b)]
            ok = np.isfinite(a) & np.isfinite(b)
            data[name] = (a[ok], b[ok])
    xs_f = xs[np.isfinite(xs)]
    ys_all = np.concatenate([np.empty(0), *(b for _, b in data.values())])
    x_lo, x_hi = (float(xs_f.min()), float(xs_f.max())) if xs_f.size else (0.0, 1.0)
    y_lo, y_hi = (float(ys_all.min()), float(ys_all.max())) if ys_all.size else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return _MT + (y_hi - v) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" font-size="14">{_escape(title)}</text>',
        f'<line x1="{_ML}" y1="{_MT + ph}" x2="{_ML + pw}" y2="{_MT + ph}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + ph}" stroke="black"/>',
    ]
    for i in range(5):
        vx = x_lo + i * (x_hi - x_lo) / 4
        vy = y_lo + i * (y_hi - y_lo) / 4
        out.append(
            f'<text x="{px(vx):.1f}" y="{_MT + ph + 18}" text-anchor="middle">'
            f"{_fmt(2 ** vx) if logx else _fmt(vx)}</text>"
        )
        out.append(
            f'<text x="{_ML - 6}" y="{py(vy):.1f}" text-anchor="end">'
            f"{_fmt(2 ** vy) if logy else _fmt(vy)}</text>"
        )
        out.append(
            f'<line x1="{px(vx):.1f}" y1="{_MT + ph}" x2="{px(vx):.1f}" '
            f'y2="{_MT + ph + 4}" stroke="black"/>'
        )
    out.append(
        f'<text x="{_ML + pw / 2:.0f}" y="{_H - 12}" text-anchor="middle">{_escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="16" y="{_MT + ph / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MT + ph / 2:.0f})">{_escape(ylabel)}</text>'
    )
    for i, (name, (a, b)) in enumerate(data.items()):
        color = _COLORS[i % len(_COLORS)]
        if a.size:
            u, v = _decimate(px(a), py(b))
            path_d = " ".join(f"{p:.2f},{q:.2f}" for p, q in zip(u.tolist(), v.tolist()))
            out.append(f'<polyline points="{path_d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.append(
            f'<text x="{_ML + pw - 6}" y="{_MT + 16 + 16 * i}" text-anchor="end" '
            f'fill="{color}">{_escape(name)}</text>'
        )
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
