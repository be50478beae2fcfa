"""Increasing homeomorphisms of [0, oo): iteration, inversion, basins.

A :class:`Homeo` wraps a forward map fixing 0 and an optional closed-form
inverse (bisection with a doubling bracket otherwise); construction checks
h(0) = 0 and the inverse's round trip on a probe grid.  Monotonicity is
checked where h is used, on each grid, by the witness check.
``basin_of_zero`` decides whether 0 attracts the whole half line or only an
interval (0, b) ending at a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .efunc import GridSpec, compile_expr

__all__ = [
    "Homeo",
    "BasinReport",
    "gallery_homeo",
    "homeo_from_expression",
    "basin_of_zero",
]

_PROBE = np.concatenate([np.exp2(-np.arange(40.0, 0.0, -1.0)), np.exp2(np.arange(0.0, 21.0))])
_BRACKET_CEILING = 2.0**400


@dataclass(frozen=True)
class Homeo:
    """Increasing bijection of [0, oo) with h(0) = 0."""

    fn: Callable[[np.ndarray], np.ndarray]
    inverse_fn: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""

    def __call__(self, x):
        out = self.fn(np.asarray(x, dtype=float))
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return np.asarray(out, dtype=float)

    def inverse(self, y: float) -> float:
        """h^{-1}(y); closed form when available, else bracketed bisection."""
        if self.inverse_fn is not None:
            return float(self.inverse_fn(np.asarray(y, dtype=float)))
        y = float(y)
        if y < 0:
            raise ValueError("inverse requested below 0")
        if y == 0.0:
            return 0.0
        hi = max(y, 1.0)
        while self(hi) < y:
            hi *= 2.0
            if hi > _BRACKET_CEILING:
                raise ValueError(f"no preimage of {y:g} found below {_BRACKET_CEILING:g}")
        # relative width 1e-14, below the 1e-12 contract
        return _bisect(lambda x: self(x) < y, 0.0, hi, 1e-14)


def _bisect(below: Callable[[float], bool], lo: float, hi: float, rel: float) -> float:
    """The midpoint of [lo, hi] after halving it, lo moving up to mid where ``below(mid)``
    and hi down to it elsewhere, until the width is at most rel * hi or 200 times."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel * hi:
            break
    return 0.5 * (lo + hi)


def _verify(fn, inverse_fn, name) -> Homeo:
    vals = np.asarray(fn(_PROBE), dtype=float)
    v0 = float(fn(np.asarray(0.0)))
    if not abs(v0) <= 1e-15:
        raise ValueError(f"homeo {name!r} must fix 0, got h(0) = {v0!r}")
    if inverse_fn is not None:
        rt = np.asarray(inverse_fn(vals), dtype=float)
        if not np.allclose(rt, _PROBE, rtol=1e-12, atol=0.0):
            raise ValueError(f"homeo {name!r}: inverse fails round trip")
    return Homeo(fn, inverse_fn, name)


def homeo_from_expression(expr: str, inverse_expr: str | None = None) -> Homeo:
    """Homeo from a formula in ``x`` (same namespace as EFunction expressions)."""
    inv = None if inverse_expr is None else compile_expr(inverse_expr, "homeo inverse")
    return _verify(compile_expr(expr, "homeo"), inv, expr)


def gallery_homeo(ident: str) -> Homeo:
    """Gallery identifiers: halve, square, root_scale:N, pow:p, or an expression.

    halve          x/2            (global contraction toward 0)
    square         x^2            (fixed point at 1; (0,1) attracted to 0)
    root_scale:N   x / 2^(1/N)    (N-th root of halve)
    pow:p          x^p, p > 0     (pow:2 == square)
    """
    if ident == "halve":
        return _verify(lambda x: 0.5 * x, lambda y: 2.0 * y, "halve")
    if ident == "square":
        return _verify(lambda x: x * x, np.sqrt, "square")
    kind, _, text = ident.partition(":")
    if kind in ("root_scale", "pow"):
        try:
            p = (int if kind == "root_scale" else float)(text)
        except ValueError:
            p = np.nan
        if not 0 < p < np.inf:
            expects = "N must be an integer >= 1" if kind == "root_scale" else "p must be a finite number > 0"
            raise ValueError(f"homeo {ident!r}: {expects}")
        if kind == "root_scale":
            c = 2.0 ** (-1.0 / p)
            return _verify(lambda x, _c=c: _c * x, lambda y, _c=c: y / _c, ident)
        return _verify(lambda x, _p=p: np.power(x, _p), lambda y, _p=p: np.power(y, 1.0 / _p), ident)
    return homeo_from_expression(ident)


@dataclass(frozen=True)
class BasinReport:
    """Attraction of 0 under h, certified on the probe range only.

    case is "global" (h(x) < x at every probe), "bounded" (smallest positive
    fixed point b, with (0, b) attracted), or "zero_repelling" (h(x) > x next
    to 0, so no linearization basin exists).
    """

    case: str
    b: float | None


def basin_of_zero(h: Homeo, probe: GridSpec, hx: np.ndarray | None = None) -> BasinReport:
    """How 0 attracts under h, read at the nodes of ``probe`` and at 2^1 .. 2^tail_octaves (a NaN
    is not attracted); 0 repels when h(x) > x at a node nearest 0.  Given ``hx``, h at the nodes,
    h runs only at the points above 1."""
    x = probe.nodes()  # descending in (0, 1]
    hx = np.asarray(h(x), dtype=float) if hx is None else hx
    above = np.exp2(np.arange(1.0, probe.tail_octaves + 1))
    h_above = np.asarray(h(above), dtype=float)
    q = max(4, probe.samples_per_octave)  # the q nodes nearest 0, all of them on a smaller grid
    if not np.all(hx[-q:] <= x[-q:]):
        return BasinReport("zero_repelling", None)
    # the smallest point where h(x) < x fails: the last such node, else the first such point above 1
    if not (down := hx < x).all():
        i = x.size - 1 - int(np.argmin(down[::-1]))  # i = x.size - 1 only where h(x) == x
        lo, hi, h_hi = x[min(i + 1, x.size - 1)], x[i], hx[i]
    elif not (down_above := h_above < above).all():
        j = int(np.argmin(down_above))
        lo, hi, h_hi = (above[j - 1] if j else x[0]), above[j], h_above[j]
    else:
        return BasinReport("global", None)
    # h fixes hi, or the sign change of h(x) - x in [lo, hi] is refined to 1e-12 relative
    b = float(hi) if h_hi == hi else _bisect(lambda v: h(v) - v < 0, float(lo), float(hi), 1e-13)
    return BasinReport("bounded", b)
