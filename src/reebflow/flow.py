"""Flows on the punctured quarter plane with hyperbola orbits.

The standard flow moves (xi, eta) to (e^t xi, e^-t eta); its orbits are the
hyperbolas xi * eta = c together with the two boundary axes.  Any flow with
the same oriented orbits is determined, up to conjugacy, by the time it
takes orbits to travel between two transversal curves, and this module goes
both ways:

* ``build_flow`` realizes a prescribed transition-time function f as a flow
  by choosing a leafwise speed: in leaf coordinates (c = xi*eta, s = ln xi)
  the speed on leaf c is a constant r(c) on the segment s in [ln c, 0]
  (which joins the default transversals), ramping linearly to 1 one unit
  outside it.  The transit across the uniform segment is exactly
  (-ln c)/r(c), so choosing r(c) = (-ln c)/T(c) prescribes the transit T(c)
  with no integration error: every acceptance check on the round trip is
  closed form against closed form.  f is prescribed on (0, c0], blended to
  the standard profile -ln c over [c0, c1], and left standard above c1;
  the blend only perturbs f by a continuous function vanishing at 0, so the
  realized flow stays in the intended equivalence class.  If f is not
  positive on the grid below c1 it is lifted by a recorded constant.  Every
  flow has this one shape: the standard flow is the one with no f and the
  empty window c0 = c1 = 0, so its transit is -ln c and its speed 1 on
  every leaf.

* ``transition_time`` and ``extract_transition`` read the invariant back
  out of a flow: for the default transversals gamma1(x) = (x, 1) and
  gamma2(x) = (1, x) the leaf label equals the parameter, and the answer is
  the transit target itself; for user transversals it is the integral of
  ds / v(s) between the two curves' positions on the leaf, closed form on
  each linear piece of the speed.  ``flow_step`` and ``orbit_rows`` invert
  the same integral, so every time of flight and every orbit position is
  exact to rounding.

``time_scale`` reparametrizes time, dividing every transition time by the
factor.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .efunc import EFunction, GridSpec, UnknownBuiltin, _blocks, builtin, from_csv
from .errors import DomainError

__all__ = [
    "QuarterPlanePoint",
    "Transversal",
    "DEFAULT_TRANSVERSAL",
    "Flow",
    "standard_flow",
    "standard_step",
    "build_flow",
    "flow_step",
    "transition_time",
    "time_scale",
    "extract_transition",
    "orbit_rows",
    "flow_to_json",
    "flow_from_json",
]

_S_CEILING = 700.0  # |ln xi| beyond this over/underflows e^s


@dataclass(frozen=True)
class QuarterPlanePoint:
    """A point of the closed quarter plane with the origin removed, at finite coordinates."""

    xi: float
    eta: float

    def __post_init__(self):
        if not (0 <= self.xi < math.inf and 0 <= self.eta < math.inf):  # NaN included
            raise ValueError(f"quarter-plane point needs finite xi, eta >= 0, got {self}")
        if self.xi == 0 and self.eta == 0:
            raise ValueError("the origin is not in the quarter plane")

    @property
    def interior(self) -> bool:
        return self.xi > 0 and self.eta > 0

    @property
    def leaf(self) -> float:
        """The orbit label c = xi * eta (constant along orbits)."""
        return self.xi * self.eta

    def leaf_coords(self) -> tuple[float, float]:
        """(c, s) with s = ln xi; interior points only."""
        if not self.interior:
            raise DomainError(f"leaf coordinates are defined for interior points, got {self}")
        return self.xi * self.eta, math.log(self.xi)


def standard_step(t: float, p: QuarterPlanePoint) -> QuarterPlanePoint:
    """(xi, eta) -> (e^t xi, e^-t eta); exact closed form, axes included."""
    if not math.isfinite(t):
        raise ValueError(f"time t = {t!r} is not finite")
    if abs(t) > _S_CEILING:
        raise ValueError(f"|t| = {abs(t):g} exceeds the exponential range (700)")
    return QuarterPlanePoint(math.exp(t) * p.xi, math.exp(-t) * p.eta)


@dataclass(frozen=True)
class Transversal:
    """A pair of curves each meeting every interior orbit once.

    The defaults are gamma1(x) = (x, 1) (from the eta axis) and
    gamma2(x) = (1, x) (from the xi axis); they make the leaf label equal
    the curve parameter.  User curves are monotone node lists: gamma1 as
    (x, xi, eta) triples with x increasing and the leaf label xi*eta
    strictly monotone, gamma2 as (xi, eta) pairs with strictly monotone
    leaf label.  Interpolation is linear in log coordinates.
    """

    gamma1_nodes: tuple | None = None  # ((x, xi, eta), ...)
    gamma2_nodes: tuple | None = None  # ((xi, eta), ...)

    @property
    def is_default(self) -> bool:
        return self.gamma1_nodes is None and self.gamma2_nodes is None

    def __post_init__(self):
        if (self.gamma1_nodes is None) != (self.gamma2_nodes is None):
            raise ValueError("supply both curves or neither")
        if self.gamma1_nodes is not None:
            g1 = np.asarray(self.gamma1_nodes, dtype=float)
            g2 = np.asarray(self.gamma2_nodes, dtype=float)
            if g1.ndim != 2 or g1.shape[1] != 3 or len(g1) < 2:
                raise ValueError("gamma1 nodes must be (x, xi, eta) triples, at least two")
            if g2.ndim != 2 or g2.shape[1] != 2 or len(g2) < 2:
                raise ValueError("gamma2 nodes must be (xi, eta) pairs, at least two")
            for label, nodes in (("gamma1", g1), ("gamma2", g2)):
                if not np.isfinite(nodes).all():  # NaN passes every comparison below, and inf interpolates to NaN
                    raise ValueError(f"{label} nodes must be finite")
            if np.any(g1[:, 0] <= 0) or np.any(g1[:, 1:] <= 0) or np.any(g2 <= 0):
                raise ValueError("user transversal nodes must be interior (all coordinates > 0)")
            if np.any(np.diff(g1[:, 0]) <= 0):
                raise ValueError("gamma1 parameter column must be strictly increasing")
            c1 = g1[:, 1] * g1[:, 2]
            c2 = g2[:, 0] * g2[:, 1]
            for label, c in (("gamma1", c1), ("gamma2", c2)):
                d = np.diff(c)
                if not (np.all(d > 0) or np.all(d < 0)):
                    raise ValueError(
                        f"{label} must meet every leaf once: leaf label not strictly monotone"
                    )

    def gamma1(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(xi, eta) of the first curve at parameters x > 0 (arrays)."""
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise DomainError("transversal parameter must be positive")
        if self.is_default:
            return x, np.ones_like(x)
        g1 = np.log(np.asarray(self.gamma1_nodes, dtype=float))
        xi, eta = (np.exp(_log_interp(x, g1[:, 0], g1[:, j], "gamma1 parameter")) for j in (1, 2))
        return xi, eta

    def point1(self, x: float) -> QuarterPlanePoint:
        xi, eta = self.gamma1(x)
        return QuarterPlanePoint(float(xi), float(eta))

    def s_on_leaf2(self, c) -> np.ndarray:
        """s-coordinate at which the second curve meets leaves c (arrays)."""
        c = np.asarray(c, dtype=float)
        if self.is_default:
            return np.zeros_like(c)  # gamma2 lies on {xi = 1}
        g2 = np.asarray(self.gamma2_nodes, dtype=float)
        lc = np.log(g2[:, 0] * g2[:, 1])
        ls = np.log(g2[:, 0])
        if lc[0] > lc[-1]:
            lc, ls = lc[::-1], ls[::-1]
        return _log_interp(c, lc, ls, "gamma2 leaf")


def _log_interp(v: np.ndarray, lv: np.ndarray, out: np.ndarray, what: str) -> np.ndarray:
    """Interpolate at ln v between nodes (lv ascending, out); no extrapolation."""
    q = np.log(v)
    outside = (q < lv[0]) | (q > lv[-1])
    if np.any(outside):
        raise DomainError(f"{what} {float(v[outside].flat[0]):g} outside the curve's node range")
    return np.interp(q, lv, out)


DEFAULT_TRANSVERSAL = Transversal()


@dataclass(frozen=True)
class Flow:
    """A flow on the quarter plane given by a leafwise speed field.

    The transit target T(c) is f + shift on (0, c0], blended to -ln c over
    (c0, c1) and -ln c from c1 on; the speed on leaf c < c1 is
    r(c) = (-ln c)/T(c) on s in [ln c, 0], 1 outside [ln c - 1, 1], linear on
    the two ramps.  The standard flow ``Flow()`` has no source f and the
    empty window c0 = c1 = 0, so T(c) = -ln c and r = 1 on every leaf.
    ``lam`` != 1 multiplies all speeds (time scaling).
    ``held`` is ``(f, g, (c0, c1, shift), T)``, T read-only at the last len(T) nodes
    of g, those in (0, c1] that ``build_flow`` sampled for that window and shift;
    only ``_held_source`` reads it, while f is ``source`` and the window and shift
    are the flow's own.  Equality and repr ignore it.
    """

    lam: float = 1.0
    c0: float = 0.0
    c1: float = 0.0
    shift: float = 0.0
    source: EFunction | None = None
    source_spec: dict | None = None
    held: tuple | None = field(default=None, compare=False, repr=False)

    def transit(self, c) -> np.ndarray:
        """Unscaled transit target T(c) over s in [ln c, 0], a new array."""
        c = np.asarray(c, dtype=float)
        return _transit_target(c, lambda at: np.asarray(self.source(c[at]), dtype=float) + self.shift, self.c0, self.c1)

    def prescribed_speed(self, c) -> np.ndarray:
        """The uniform speed r(c) on the segment [ln c, 0] (before time scaling)."""
        c = np.asarray(c, dtype=float)
        r = np.ones(c.shape)
        lo = c < self.c1
        r[lo] = -np.log(c[lo]) / self.transit(c[lo])
        return r


def standard_flow() -> Flow:
    return Flow()


_C0, _C1 = 0.25, 0.5  # the default prescription window (0, c0] and blend [c0, c1]


def build_flow(
    f: EFunction,
    c0: float = _C0,
    c1: float = _C1,
    g: GridSpec | None = None,
    source_spec: dict | None = None,
) -> Flow:
    """Realize f as a flow whose default-transversal transition time is f + shift.

    The prescription window is (0, c0]; T blends to -ln c over [c0, c1] with
    a smoothstep in log c and is standard above c1.  If the minimum of f
    over the grid nodes in (0, c1] is <= 0, f is lifted so the minimum is
    0.1 and the constant is recorded in ``shift``.  The transit target is
    checked to be positive wherever it is evaluated below c1, so a profile
    that dips below the lift between grid nodes raises DomainError there.

    The nodes in (0, c1], a suffix of the descending grid, are a view; f's domain
    is checked at their ends, f written over them block by block into the array
    the flow holds (:meth:`EFunction.into`), and a nonzero lift added in place.
    T is f + shift itself in (0, c0], checked by the one scalar test
    ``fmin + shift > 0`` (rounding is monotone); only the blend leaves in
    (c0, c1] take ``_transit_target``.  The flow keeps T at those nodes, with
    g, as ``held``: ``flow_classify`` on g reads T there by node index and
    evaluates no f.
    """
    if not (0 < c0 < c1 < 1):
        raise ValueError(f"need 0 < c0 < c1 < 1, got c0={c0:g}, c1={c1:g}")
    g = g or GridSpec()
    x = g.nodes()
    x = x[bisect.bisect_left(x, -c1, key=operator.neg) :]
    if not len(x):
        raise ValueError("grid has no nodes below c1")
    f._check_domain(float(x[-1]), float(x[0]))
    vals = np.empty(len(x))
    for s in _blocks(len(x)):
        f.into(x[s], vals[s])
    fmin = float(vals.min())
    shift = 0.0 if fmin > 0.0 else 0.1 - fmin
    if shift != 0.0:
        vals += shift  # the lift, in place
    w = bisect.bisect_left(x, -c0, key=operator.neg)  # the blend x[:w], the window x[w:]
    vals[:w] = _transit_target(x[:w], vals[:w].__getitem__, c0, c1)
    if not fmin + shift > 0.0:  # a NaN fails it too; then the window is searched
        bad = ~(vals[w:] > 0.0)
        if bad.any():
            raise DomainError(f"transit target not positive at leaf c = {float(x[w:][bad][0]):g}")
    vals.setflags(write=False)
    return Flow(c0=c0, c1=c1, shift=shift, source=f, source_spec=source_spec, held=(f, g, (c0, c1, shift), vals))


def _transit_target(c, f_at, c0: float, c1: float) -> np.ndarray:
    """The transit target at the leaves c; ``f_at(at)`` is f + shift at c[at].

    f + shift on (0, c0], blended to -ln c over (c0, c1), -ln c from c1 on;
    the empty window c0 = c1 = 0 gives -ln c on every positive leaf and
    never calls f_at there.  Raises DomainError at the first leaf that is
    not positive (or NaN), and at the first leaf below c1 where the target
    is not positive.
    """
    if not c.min(initial=math.inf) > 0.0:  # an empty c passes
        raise DomainError(f"transit needs leaves c > 0, got c = {float(c[~(c > 0.0)].flat[0]):g}")
    out = np.log(c, out=np.empty_like(c))  # an array even for 0-d c, so it takes assignment
    np.negative(out, out=out)
    below = c < c1
    if not np.any(below):
        return out
    lo = c <= c0
    mid = below & ~lo
    if np.any(lo):
        out[lo] = f_at(lo)
    if np.any(mid):
        neg_log = out[mid]
        w = (-neg_log - math.log(c0)) / (math.log(c1) - math.log(c0))
        u = w * w * (3.0 - 2.0 * w)
        out[mid] = (1.0 - u) * f_at(mid) + u * neg_log
    if not out.min(initial=math.inf, where=below) > 0.0:  # one reduction; a NaN fails it too
        bad = below & ~(out > 0.0)
        raise DomainError(f"transit target not positive at leaf c = {float(c[bad].flat[0]):g}")
    return out


def time_scale(F: Flow, lam: float) -> Flow:
    """Flow with flow_step(F', t, p) = flow_step(F, lam * t, p)."""
    if not 0 < F.lam * lam < math.inf:
        raise ValueError(f"time-scale factor lambda must be positive and finite, got {lam!r}")
    return replace(F, lam=F.lam * lam)


# -- leafwise motion ---------------------------------------------------------

# sign of the speed's slope on the five pieces cut by the breakpoints
_RAMP = np.array([0.0, -1.0, 0.0, 1.0, 0.0])


def _pieces(F: Flow, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r(c) and the breakpoints (ln c - 1, ln c, 0, 1) of the speed on leaves c."""
    lc = np.minimum(np.log(c), 0.0)  # r = 1 above c1 < 1: the clamp only keeps the order
    b = np.stack([lc - 1.0, lc, np.zeros_like(lc), np.ones_like(lc)], axis=-1)
    return F.prescribed_speed(c), b


def _speed(r, lc, s):
    """v(s): r on [ln c, 0], 1 beyond one unit outside it, linear between.

    Anchored at r, so the slow segment's speed is exact even for r ~ 1e-12.
    """
    return r + (1.0 - r) * np.clip(np.maximum(lc - s, s), 0.0, 1.0)


def _travel(r, b, s1, s2) -> np.ndarray:
    """Unscaled time from s1 to s2, the integral of ds / v(s), summed per piece.

    A constant piece takes width / v, a ramp log1p(slope * width / v) / slope.
    Per-piece sums keep full relative precision where one piece dominates (a
    transit of 1e12 on the slow segment), which a difference of one global
    antiderivative would cancel away.
    """
    outer = np.full_like(b[..., :1], np.inf)
    lo = np.concatenate([-outer, b], axis=-1)
    hi = np.concatenate([b, outer], axis=-1)
    p = np.clip(s1[..., None], lo, hi)
    q = np.clip(s2[..., None], lo, hi)
    v = _speed(r[..., None], b[..., 1:2], p)
    k = (1.0 - r[..., None]) * _RAMP
    with np.errstate(divide="ignore", invalid="ignore"):
        ramp = np.log1p(k * (q - p) / v) / k
    return np.sum(np.where(k == 0.0, (q - p) / v, ramp), axis=-1)


def _leaf_time(F: Flow, c, s1, s2) -> np.ndarray:
    """Time for the flow to move points of leaves c from s1 to s2 (equal-shape arrays)."""
    return _travel(*_pieces(F, c), s1, s2) / F.lam


def _leaf_position(F: Flow, c, s0, t) -> np.ndarray:
    """Position after time t from s0 along leaves c; the inverse of _leaf_time.

    r, the breakpoints and the times to them are taken once per leaf (the
    broadcast shape of c and s0), then broadcast against t.  The motion ends
    in the piece after the last breakpoint it reaches (from a breakpoint, the
    piece in the direction of motion); inside it the position is closed
    form, with expm1 on ramps.  A time that is not finite is a ValueError naming it.
    """
    if (bad := ~np.isfinite(t)).any():
        raise ValueError(f"time t = {float(np.asarray(t)[bad].flat[0])!r} is not finite")
    c, s0 = np.broadcast_arrays(c, s0)
    r, b = _pieces(F, c)
    to_b = np.stack([_travel(r, b, s0, b[..., j]) for j in range(4)], axis=-1)
    s0, tau, r = np.broadcast_arrays(s0, np.multiply(t, F.lam), r)
    b, to_b = (np.broadcast_to(a, tau.shape + (4,)) for a in (b, to_b))
    ahead = np.where(tau < 0.0, -1.0, 1.0)
    to_b = to_b * ahead[..., None]  # time to each breakpoint, counted in the direction of motion
    reached = (to_b >= 0.0) & (to_b <= np.abs(tau)[..., None])
    p = ahead * np.max(np.where(reached, b, s0[..., None]) * ahead[..., None], axis=-1)
    rem = tau - ahead * np.max(np.where(reached, to_b, 0.0), axis=-1)
    behind = np.where(ahead[..., None] > 0.0, b <= p[..., None], b < p[..., None])
    k = (1.0 - r) * _RAMP[np.sum(behind, axis=-1)]
    v = _speed(r, b[..., 1], p)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.where(k == 0.0, p + v * rem, p + v * np.expm1(k * rem) / k)
    if not np.all(np.abs(s) <= _S_CEILING):
        raise ValueError(f"time overflow: |s| = {float(np.max(np.abs(s))):g} beyond range")
    return s


def _transition(F: Flow, tv: Transversal, x) -> np.ndarray:
    """Time for the flow to carry gamma1(x) onto the second curve (arrays).

    Default transversals: the start sits on leaf c = x at s = ln c, the
    target at s = 0, and the uniform-speed segment covers exactly that
    range, so the answer is the transit target in closed form (divided by
    the time-scale factor).  User transversals: the closed-form integral of
    ds / v(s) between the two curves' positions on the leaf of gamma1(x).
    """
    if tv.is_default:
        return np.divide(T := F.transit(x), F.lam, out=T)
    xi, eta = tv.gamma1(x)
    c = xi * eta
    return _leaf_time(F, c, np.log(xi), tv.s_on_leaf2(c))


def _held_source(F: Flow, g: GridSpec):
    """``source(lo, x, out)`` for ``_octave_blocks``, or None unless F holds T on g (built there, same source,
    window and shift): it writes the default-transversal transition time at the nodes x = x_lo .. into out,
    ``T[i - p] / lam`` at node i >= p, the first node <= c1 (the bits of ``_transition``), and the formula,
    which evaluates no f, above c1."""
    if F.held is None or F.held[0] is not F.source or F.held[1:3] != (g, (F.c0, F.c1, F.shift)):
        return None
    p = g.node_count - len(T := F.held[3])

    def source(lo: int, x: np.ndarray, out: np.ndarray) -> None:
        k = min(max(p - lo, 0), len(out))  # the nodes above c1
        if k:
            out[:k] = _transition(F, DEFAULT_TRANSVERSAL, x[:k])
        np.divide(T[lo + k - p : lo + len(out) - p], F.lam, out=out[k:])

    return source


def flow_step(F: Flow, t: float, p: QuarterPlanePoint) -> QuarterPlanePoint:
    """Advance p by time t.  The leaf label xi * eta is preserved exactly."""
    if F.source is None:  # the standard flow also moves points of the axes
        return standard_step(t * F.lam, p)
    c, s = p.leaf_coords()  # realized flows move interior points only
    xi = math.exp(float(_leaf_position(F, c, s, t)))
    return QuarterPlanePoint(xi, c / xi)


def transition_time(F: Flow, tv: Transversal = DEFAULT_TRANSVERSAL, x: float = 1.0) -> float:
    """Time for the flow to carry gamma1(x) onto the second curve."""
    if not 0 < x < math.inf:  # NaN included
        raise DomainError("transition parameter must be positive and finite")
    return float(_transition(F, tv, [x])[0])


def extract_transition(
    F: Flow, g: GridSpec | None = None, tv: Transversal = DEFAULT_TRANSVERSAL
) -> EFunction:
    """The transition-time function of a flow as an evaluable EFunction.

    ``g`` is not read; it stays for callers that pass ``tv`` by position."""
    return EFunction("expression", lambda x, _F=F, _tv=tv: _transition(_F, _tv, x), "E", "transition")


def orbit_rows(F: Flow, p0: QuarterPlanePoint, times: Sequence[float]) -> list[tuple[float, float, float]]:
    """(t, xi, eta) samples of the orbit through p0, as Python floats."""
    t = np.asarray(times, dtype=float).tolist()
    if F.source is None:  # one step per time: the standard flow also moves points of the axes
        return [(v, q.xi, q.eta) for v in t for q in [flow_step(F, v, p0)]]
    c, s0 = p0.leaf_coords()
    xi = np.exp(_leaf_position(F, c, s0, t))
    return list(zip(t, xi.tolist(), (c / xi).tolist()))


def flow_to_json(F: Flow) -> dict:
    standard = F.source is None
    kind = "time_scaled" if F.lam != 1.0 else "standard" if standard else "realized"
    obj: dict = {"kind": kind, "lambda": float(F.lam)}
    if not standard:
        obj.update(
            {
                "c0": float(F.c0),
                "c1": float(F.c1),
                "shift": float(F.shift),
                "f": F.source_spec or {"description": F.source.description},
            }
        )
    return obj


_FLOW_KINDS = ("standard", "realized", "time_scaled")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _known_keys(obj: dict, keys: tuple, where: str) -> None:
    """A ValueError naming the first key of obj that is not in keys."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"{where} has unknown key {key!r}; accepted: {', '.join(keys)}")


def _number(obj: dict, key: str, default: float) -> float:
    """The JSON number under key; a ValueError naming the key for anything else."""
    v = obj.get(key, default)
    if not _is_number(v):
        raise ValueError(f"flow config {key!r} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:  # an integer that no double holds
        raise ValueError(f"flow config {key!r} must be a number that a double holds, got {v!r}") from None


def flow_from_json(obj: dict, g: GridSpec | None = None) -> Flow:
    """Rebuild a flow from its JSON config.

    "kind" is one of "standard" (the default), "realized" and "time_scaled";
    any other kind is a ValueError that names it.  The "f" descriptor of a
    realized flow is {"builtin": name, "params": [...]} or {"csv": path}; a
    time_scaled config without one scales the standard flow.  A "shift" must
    be the lift derived from the data on g, else a ValueError names both.  Every config may hold
    "kind" and "lambda"; one with a source also "c0", "c1", "shift" and "f".
    A config that is not an object, a value of the wrong type or any other
    key is a ValueError that names the key.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"flow config must be a JSON object, got {obj!r}")
    kind = obj.get("kind", "standard")
    if kind not in _FLOW_KINDS:
        raise ValueError(f"unknown flow kind {kind!r}; choose from {', '.join(_FLOW_KINDS)}")
    lam = _number(obj, "lambda", 1.0)
    if kind == "standard" or (kind == "time_scaled" and "f" not in obj):
        _known_keys(obj, ("kind", "lambda"), "flow config")
        F = standard_flow()
    else:
        _known_keys(obj, ("kind", "lambda", "c0", "c1", "shift", "f"), "flow config")
        spec = obj.get("f")
        if isinstance(spec, dict) and "builtin" in spec:
            _known_keys(spec, ("builtin", "params"), "flow source")
            params = spec.get("params", [])
            if not isinstance(params, (list, tuple)) or not all(map(_is_number, params)):
                raise ValueError(f"flow source 'params' must be a list of numbers, got {params!r}")
            try:
                f = builtin(spec["builtin"], params)
            except ValueError as exc:  # the name, or parameters its function does not take
                key = "builtin" if isinstance(exc, UnknownBuiltin) else "params"
                raise ValueError(f"flow source {key!r}: {exc}")
        elif isinstance(spec, dict) and "csv" in spec:
            _known_keys(spec, ("csv",), "flow source")
            if not isinstance(spec["csv"], str):
                raise ValueError(f"flow source 'csv' must be a file path, got {spec['csv']!r}")
            f = from_csv(spec["csv"])
        else:
            raise ValueError(f"cannot load flow source {spec!r}")
        F = build_flow(f, c0=_number(obj, "c0", _C0), c1=_number(obj, "c1", _C1), g=g, source_spec=spec)
        if not (_is_number(v := obj.get("shift", F.shift)) and v == F.shift):  # exact for an int of any size
            raise ValueError(f"flow config 'shift' {v!r} is not the lift {F.shift!r} build_flow derives on the grid")
    if lam != 1.0:
        F = time_scale(F, lam)
    return F
