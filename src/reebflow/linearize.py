"""Koenigs linearization: from lam * f = f o h + k to an exact solution.

Given f in E, an increasing homeomorphism h attracted to 0, a continuous
shift k with finite k(0), and lam > 1 satisfying lam * f = f o h + k, the
Koenigs iterates lam^(-n) (f(h^n(x)) + shift), shift = -k(0)/(lam - 1),
converge to a function f_inf with

    lam * f_inf = f_inf o h        and        f_inf - f continuous at 0.

The n-th iterate is f(x) + shift - sum_{j < n} lam^(-j-1) (k - k(0))(h^j(x)).
An explicit k is summed as this series, which evaluates f only at x.  A
derived k = lam * f - f o h telescopes it back to the iterate, evaluated as
is: f once per point, at the end h^n(x) of its orbit.  The stages, in order:

1. the witness sweep, the witness check on the grid and, for either k, the
   first sweep of the orbits: h, f and f o h once over the nodes, f o h read
   from f at the images that are nodes under the shift j of ``_walk_images``,
   and for a derived k under halve, where every image is its node, a view j
   on of one buffer that holds f at the nodes and at the images past them;
2. the basin, which reads h(x) from that sweep;
3. the read-out of k(0): an explicit k at 0, a derived one settling on that
   sweep at the nodes 2^-m;
4. the lockstep walk of the later sweeps over the ``efunc._blocks`` blocks
   of probes, until the change per sweep falls below tol, holding one sweep
   of orbit state and writing f at each orbit's end over f(x) once;
5. the read-out of f_inf at the probes and their images, and the residual,
   written over sweep 0's arrays: for an explicit k, its f there + shift -
   the series; for a derived k, the ends of the orbits over f(x), and at the
   images one sweep on, over sweep 0's f o h if the walk took one sweep, or
   under halve the values at the probes j on in their one buffer.

So f runs at most ``iterations + 2`` times over the grid (fewer under
halve, and only in stage 1 for an explicit k), and f_inf returns these held
values themselves, read-only, for points bitwise equal to the probes or their
images.  The answer holds h(x) at the probes and these two arrays.

Two basin shapes are handled: 0 attracts the whole half line, or only an
interval (0, b) below a fixed point b, in which case f_inf is extended by 0
on [b, oo) (the value at b itself is forced to 0 by continuity).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .efunc import _BLOCK, EFunction, GridSpec, _blocks, _blockwise, _Nodes
from .errors import ConvergenceFailure, ToleranceFailure
from .homeo import Homeo, basin_of_zero
from .oscillation import (
    _DEPTH_FLOOR, _WITNESS_TOL, WitnessReport, _f_at_images, _max_residual, _walk_images, _witness_report, as_shift,
)

__all__ = [
    "LinearizeConfig",
    "LinearizeResult",
    "koenigs_limit",
]

# bounded basin: the probes stay at or below b * _PROBE_MARGIN
_PROBE_MARGIN = 0.99
_MAX_ITERS = 64  # sweeps before ConvergenceFailure
_DECAY_STEPS = 10  # the preimages h^-n(1) that the tail-decay law reads


@dataclass(frozen=True)
class LinearizeConfig:
    """Iteration parameters; lam > 1 is the contraction hypothesis."""

    lam: float
    grid: GridSpec = field(default_factory=GridSpec)
    tol: float = 1e-10  # convergence and functional-equation gate

    def __post_init__(self):
        if not 1.0 < self.lam < math.inf:
            raise ValueError(f"linearization requires a finite lam > 1, got {self.lam:g}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol:g}")


@dataclass(frozen=True)
class LinearizeResult:
    """Outcome of the iteration.

    ``shift`` is the constant added to f so the shift function vanishes at 0
    (equivalence-preserving; recorded, never silent).  ``residual`` is the
    relative sup of |lam * f_inf - f_inf o h| over the probes.  ``f_inf`` is
    evaluable anywhere on (0, oo); it is the Koenigs iterate after
    ``iterations`` sweeps (for an explicit k, the series cut there), so
    accuracy is certified on the probes and can degrade in the sliver
    between the largest probe and b.  ``probes`` is a read-only view of the
    cached grid nodes in both basin cases: all of them, or those at or below
    ``b * 0.99``; copy it before writing to it.  ``f_inf(probes)``
    and ``f_inf(h(probes))`` are the values the limit computation already
    holds, the same read-only arrays on every call, like ``probes``; f is not
    evaluated again for them, nor is their domain checked.
    """

    f_inf: EFunction
    case: str  # "global" | "bounded"
    b: float | None
    iterations: int
    residual: float
    shift: float
    k0: float
    last_change: float
    probes: np.ndarray
    tail_decay_dev: float | None  # global case: relative dev of the preimage decay law
    telescoping_bound: Callable[[np.ndarray], np.ndarray]

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "b": None if self.b is None else float(self.b),
            "iterations": int(self.iterations),
            "residual": float(self.residual),
            "shift": float(self.shift),
            "k0": float(self.k0),
            "last_change": float(self.last_change),
            "tail_decay_dev": None if self.tail_decay_dev is None else float(self.tail_decay_dev),
        }


def koenigs_limit(
    f: EFunction,
    h: Homeo,
    k: Callable | float | None,
    cfg: LinearizeConfig,
) -> LinearizeResult:
    """Compute f_inf for the relation lam * f = f o h + k.

    ``k`` may be None, meaning it is derived pointwise as lam*f - f o h; the
    derived shift must still extend continuously to 0, which is checked at
    whole-octave nodes.  Raises ValueError when the witness relation fails,
    when 0 repels, or when k does not settle at 0, tested in that order;
    ConvergenceFailure when the change per sweep never drops below tol;
    ToleranceFailure when the final functional-equation residual misses tol.
    The five stages of the module docstring run in its order.
    """
    lam, nodes = cfg.lam, cfg.grid.nodes()
    wit, sweep, onto = _witness_sweep(f, h, k, lam, cfg.grid)
    if not wit.passed:  # a non-monotone h has residual inf
        raise ValueError(
            f"witness relation lam*f = f o h + k fails: residual {wit.residual:.3g} "
            f"(tol {_WITNESS_TOL:g}) at x = {wit.worst_x:.3g}"
            + ("" if wit.h_monotone else "; h is not increasing on the grid")
            + ("; h underflows to 0 there" if wit.h_monotone and float(h(wit.worst_x)) == 0.0 else "")
        )
    basin = basin_of_zero(h, cfg.grid, sweep[1])  # sweep 0's h(x): an increasing h has one
    if basin.case == "zero_repelling":
        raise ValueError("0 repels under h on the probe grid; no linearization basin")
    b = basin.b  # None in the global case
    orbits = _Orbits(f, h, k, lam, _shift_at_zero(k, lam, cfg.grid, sweep), b)
    residual = orbits.read_out(orbits.walk(nodes, sweep, onto, cfg.tol), cfg.tol)
    label = f"koenigs_limit({f.description}; h={h.name or 'h'}, lam={lam:g})"
    f_inf = _Limit("expression", orbits, "E0", label)
    return LinearizeResult(
        f_inf=f_inf,
        case=basin.case,
        b=b,
        iterations=orbits.iterations,
        residual=residual,
        shift=orbits.shift,
        k0=orbits.k0,
        last_change=orbits.last_change,
        probes=orbits.probes,
        tail_decay_dev=_tail_decay_deviation(f_inf, h, lam) if b is None else None,
        telescoping_bound=orbits.bound,
    )


def _witness_sweep(f, h, k, lam: float, g: GridSpec) -> tuple[WitnessReport, list, int | None]:
    """Stage 1: the witness report at the nodes x of g, the first sweep, [f(x), h(x), f(h(x))], and the node
    shift j of ``_walk_images`` when every image in range is its node, h(x_i) == x_{i+j}, else None.

    A derived k is taken as 0 where x or h(x) is at or below ``_DEPTH_FLOOR``.  An explicit k runs at
    every node, block by block after f there, even where f o h does not (an h not increasing, the
    images at 0), for its errors.  inf - inf folds as NaN, unwarned.  The sweep is empty unless h is
    increasing, and f(h(x)) is inf at an image equal to 0.  For a derived k under that node shift, f(x)
    and f(h(x)) are views of one buffer of f at the nodes and at the images past them: f(h(x)) starts j on.
    """
    hx = _blockwise(h, x := g.nodes())
    nodes = _Nodes(g.samples_per_octave, g.octave_max)  # the walk writes its x_{i+j} into one block of scratch
    h_monotone, z, j, onto = _walk_images(nodes, (hx[s] for s in _blocks(x.size)), np.empty(min(x.size, _BLOCK)))
    shared = k is None and onto is not None
    fx = (buf := np.empty(x.size + (onto if shared else 0)))[: x.size]
    for s in _blocks(x.size):
        fx[s] = f(x[s])
    fhx = buf[onto:] if shared else np.empty(x.size)
    on = 0 if j is None else x.size - j  # f(h(x_i)) is read as f(x_{i+j}) for i < on where h(x_i) == x_{i+j}
    kf, e = None if k is None else as_shift(k), z if h_monotone else 0  # f o h runs on the nodes [0, e)

    def blocks():
        for t in _blocks(x.size):
            kv = None if kf is None else kf(x[t])
            if (t := slice(t.start, min(t.stop, e))).start >= t.stop:
                continue
            m = min(max(t.start, on), t.stop)
            if not shared:
                fhx[t.start : m] = fx[t.start + (j or 0) : m + (j or 0)]
            _f_at_images(f, hx[t], (x[t.start + (j or 0) : m + (j or 0)],), fhx[t])
            lhs, live = lam * fx[t], x[t.stop - 1] > _DEPTH_FLOOR and hx[t.stop - 1] > _DEPTH_FLOOR  # x, h(x) fall
            if kv is None:
                kv = lhs - fhx[t] if live else np.where((x[t] > _DEPTH_FLOOR) & (hx[t] > _DEPTH_FLOOR), lhs - fhx[t], 0)
            yield t.start, lhs, fhx[t] + kv[: t.stop - t.start]

    with np.errstate(invalid="ignore"):
        wit = _witness_report(x, h_monotone, z, _max_residual(blocks()))
    fhx[z:] = math.inf  # f diverges at 0
    return wit, [fx, hx, fhx] if h_monotone else [], onto


def _shift_at_zero(k, lam: float, g: GridSpec, sweep: list) -> float:
    """Stage 3: k0 = k(0).  An explicit k is evaluated at 0; a derived k and
    its operand scale are read from sweep 0 at the whole-octave nodes, all
    above the floor, and must settle there (``_settled_shift``)."""
    if k is not None:
        k0 = float(as_shift(k)(0.0))
        if not math.isfinite(k0):
            raise ValueError("shift function is not finite at 0")
        return k0
    fx, hx, fhx = (a[_octave_nodes(g)] for a in sweep)
    scale = np.maximum(1.0, np.maximum(lam * np.abs(fx), np.abs(fhx)))
    return _settled_shift(np.where(hx > _DEPTH_FLOOR, lam * fx - fhx, 0.0), scale)


class _Orbits:
    """The Koenigs iterates along the orbits h^n(x), for a derived k (``kf`` None) or an explicit one.
    Stages 4 (:meth:`walk`) and 5 (:meth:`read_out`) run once; then the object is f_inf."""

    def __init__(self, f: EFunction, h: Homeo, k, lam: float, k0: float, b: float | None):
        self.f, self.h, self.lam, self.k0, self.b = f, h, lam, k0, b
        self.kf = None if k is None else as_shift(k)
        self.shift = -k0 / (lam - 1.0)
        self.held = []  # (points, f_inf there): the probes and their images, once read out

    def orbit(self, x, sweeps, fy=None, hy=None, fhy=None):
        """``_orbit`` of the flat x for this k: floored and with f for a derived k, h alone for an explicit
        one, from the first sweep's f(x), h(x) and f(h(x)) when given."""
        if self.kf is None:
            return _orbit(self.h, x, sweeps, True, self.f, fy, hy, fhy)
        return _orbit(self.h, x, sweeps, hy=hy)

    def shifts(self, orbit):
        """(n, i, k(y) - k0, f(h(y))) at the steps of ``orbit`` (:meth:`orbit`); f(h(y)) is None for an
        explicit k, which reads only y.

        A derived k is lam*f - f o h, taken as k0 once the orbit sinks to the
        floor: near the subnormal range the quantization of h(x) corrupts
        f(h(x)) by order-one amounts (ln of a subnormal moves in steps), and
        the true shift has settled to its limit long before such depths.
        """
        # starmap, unlike a generator expression, holds no sweep's arrays while suspended
        if self.kf is None:
            return itertools.starmap(lambda n, i, _, fy, __, fhy: (n, i, self.lam * fy - fhy - self.k0, fhy), orbit)
        return itertools.starmap(lambda n, i, y, *_: (n, i, self.kf(y) - self.k0, None), orbit)

    def walk(self, nodes: np.ndarray, sweep: list, onto: int | None, tol: float) -> tuple:
        """Stage 4: pick the probes and sweep their orbits until the change per sweep, lam^(-n-1) |k_s(h^n x)|
        relative to 1 + |f(x)| (an absolute sup would be dominated by the blow-up near 0), falls below tol.
        Returns what :meth:`read_out` reads: the suspended walks, f and the depth at each probe's last
        sweep, h(probes), f(h(probes)) (for a derived k only under a node shift or after one sweep) and
        the node shift ``onto`` of h (:func:`_witness_sweep`) when it carries a probe onto a probe."""
        j = 0  # the nodes descend, so the probes are the suffix nodes[j:], a view
        if self.b is not None:
            j = nodes.size - int(np.count_nonzero(nodes <= self.b * _PROBE_MARGIN))
            if j == nodes.size:
                raise ValueError(f"no probe nodes below b * margin = {self.b * _PROBE_MARGIN:g}")
        self.probes = probes = nodes[j:]
        onto = onto if onto is not None and onto < probes.size else None  # else no image of a probe is a probe
        # per probe, a derived k's last depth m; f(x), the scale while the orbit lives, then f there
        (f_end, images, f_images), m = (a[j:] for a in sweep), np.zeros(probes.size, np.min_scalar_type(_MAX_ITERS))
        walks = [(s, self.orbit(probes[s], _MAX_ITERS + 1, f_end[s], images[s], f_images[s]))
                 for s in _blocks(probes.size)]
        sweep.clear()  # only the walks and f_images hold a derived k's f(h(x)) now
        last = [None] * len(walks)  # per block, (i, f(h(y))) of a derived k's last live sweep
        hull_max, last_change = 0.0, math.inf
        for n in range(_MAX_ITERS):
            sups, changes = [0.0], [0.0]
            for b, (s, walk) in enumerate(walks):
                ended, last[b] = last[b], None
                for _, i, kv, fhy in self.shifts(itertools.islice(walk, 1)):  # none once the block's orbits end
                    akv = np.abs(kv, out=kv)
                    sups.append(np.max(akv))
                    changes.append(np.max(akv / (1.0 + np.abs(f_end[s][i]))))
                    if fhy is not None:  # a derived k
                        m[s][i], last[b] = n + 1, (i, fhy)
                if ended is not None:  # the probes whose orbits ended at sweep n
                    _write_ends(f_end[s], m[s], n, *ended)
            hull_max = max(hull_max, float(np.max(sups)))  # as over the whole sweep, a NaN included
            last_change = float(self.lam ** (-n - 1) * np.max(changes))
            if last_change < tol:
                break
            if self.kf is None and onto is None:  # the walks drop sweep 0's f(h(x)) as they move on: so does this
                f_images = None
        else:
            raise ConvergenceFailure(f"no convergence within {_MAX_ITERS} sweeps; "
                                     f"last sup-change {last_change:.3g}")
        for (s, _), ended in zip(walks, last):  # the orbits still live at the last sweep
            if ended is not None:
                _write_ends(f_end[s], m[s], n + 1, *ended)
        self.iterations, self.last_change = n + 1, last_change
        self.slack = self.lam ** (-self.iterations) * hull_max
        self.decay = self.lam ** -np.arange(self.iterations + 1.0)
        return walks, f_end, m, images, f_images, onto

    def read_out(self, ends: tuple, tol: float) -> float:
        """Stage 5: hold f_inf at the probes and their images, and return the residual there.  A derived k
        writes it at the probes over f_end, and at the images over sweep 0's f(h(x)) where :meth:`walk` kept it."""
        walks, f_end, m, images, f_images, onto = ends
        probes = self.probes
        if self.kf is None and onto is None:  # the orbit of h(x) is that of x one sweep later
            at_images = np.empty(probes.size) if f_images is None else f_images
            while walks:  # a suspended walk holds its last sweep's arrays: each goes once read
                self._at_images(*walks.pop(0), f_end, m, images, at_images)
        walks.clear()  # the other read-outs walk no further
        if self.kf is not None:  # f + shift - the series, with f read from sweep 0, written over it
            at_probes, at_images = f_end, f_images
            for at, x in ((at_probes, probes), (at_images, images)):
                for s in _blocks(x.size):
                    at[s] = at[s] + self.shift - self.series(x[s])
        else:  # under a node shift f_images is f_end's buffer onto on, so it holds f_inf at the images too
            at_probes = f_end
            for s in _blocks(probes.size):
                at_probes[s] += self.shift
                _decayed(at_probes[s], self.decay, m[s])
            if onto is not None:  # read there, and walk only the images past the last probe
                at_images = f_images
                at_images[probes.size - onto :] = self(images[probes.size - onto :])
        # symmetric in its operands, the residual overwrites only the second
        residual, _ = _max_residual((s.start, at_images[s], self.lam * at_probes[s]) for s in _blocks(probes.size))
        for at in (at_probes, at_images):  # handed out as they are, like the probes
            at.flags.writeable = False
        self.held += [(probes, at_probes), (images, at_images)]
        if not residual <= tol:  # a NaN fails too
            raise ToleranceFailure(f"functional-equation residual {residual:.3g} exceeds tol {tol:g}")
        return residual

    def _at_images(self, s: slice, walk, f_end, m, images, at_images) -> None:
        """f_inf at the images of the probes of block s, from their walk one sweep on."""
        at, d = at_images[s], m[s].astype(int) - 1
        at[:] = f_end[s]
        for _, i, _, _, _, fhy in itertools.islice(walk, 1):  # the orbit steps on, and no shift is formed
            at[i], d[i] = fhy, self.iterations
        at += self.shift
        _decayed(at, self.decay, d)  # d = -1 takes decay[0]; those values are walked below
        if np.any(lost := d < 0):  # no live sweep: the image is walked
            at[lost] = self(images[s][lost])

    def series(self, x, term=None):
        """sum_n lam^(-n-1) term(k_s(h^n x)) over ``iterations`` sweeps at the flat x."""
        acc = np.zeros(x.size)
        for n, i, kv, _ in self.shifts(self.orbit(x, self.iterations)):
            acc[i] += self.lam ** (-n - 1) * (kv if term is None else term(kv))
        return acc

    def koenigs(self, x):
        """The iterate after ``iterations`` sweeps at the flat points x of the basin."""
        if self.kf is not None:
            return np.asarray(self.f(x), dtype=float) + self.shift - self.series(x)
        # the series telescopes: sweeps where k_s is taken as 0 do not count
        y, m = x.copy(), np.zeros(x.size, dtype=int)
        for n, i, _, _, hy, _ in _orbit(self.h, x, self.iterations, True):
            y[i], m[i] = hy, n + 1
        return self.decay[m] * (np.asarray(self.f(y), dtype=float) + self.shift)

    def __call__(self, x):
        """f_inf at x: the walked iterate, and 0 from b on; a NaN is walked, to NaN."""
        x = np.asarray(x, dtype=float)
        if self.b is None or not np.any(x >= self.b):
            return _blockwise(self.koenigs, x.reshape(-1)).reshape(x.shape)
        out = np.zeros(x.shape)
        inside = ~(x >= self.b)
        out[inside] = _blockwise(self.koenigs, x[inside])
        return out

    def bound(self, x):
        """The telescoping bound: the series of |k_s| over the sweeps plus the slack past them; NaN at a NaN x."""
        x = np.asarray(x, dtype=float)
        return np.where(np.isnan(x), math.nan, (self.series(x.reshape(-1), np.abs) + self.slack).reshape(x.shape))


class _Limit(EFunction):
    """f_inf: the held values themselves, read-only, at points bitwise equal to the probes or their images,
    with no pass over them for the domain check; elsewhere the call of any EFunction."""

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        for pts, vals in self.fn.held if isinstance(self.fn, _Orbits) else ():  # the walk would give these bits
            if _same_bits(arr, pts):
                return vals
        return super().__call__(x)


def _decayed(at: np.ndarray, decay: np.ndarray, d: np.ndarray) -> None:
    """at *= decay[d], d clipped to decay's indices: by one scalar, the same bits, when d is one value."""
    at *= decay[min(max(int(d[0]), 0), decay.size - 1)] if d.min() == d.max() else decay.take(d, mode="clip")


def _same_bits(x: np.ndarray, pts: np.ndarray) -> bool:
    """Whether x holds the bits of the flat pts: tested by identity, then by shape and first element,
    and only then block by block, so a compare allocates no more than a block."""
    if x is pts:
        return True
    if x.shape != pts.shape:
        return False
    a, b = x.view(np.int64), pts.view(np.int64)
    return a[0] == b[0] and all(np.array_equal(a[s], b[s]) for s in _blocks(a.size))


def _write_ends(f_end: np.ndarray, m: np.ndarray, n: int, i, fhy: np.ndarray) -> None:
    """Write f(h(y)) over f(x) at the probes i of a sweep whose orbits ended before sweep n (depth m <= n)."""
    if np.any(ended := m[i] <= n):
        f_end[i] = np.where(ended, fhy, f_end[i])


def _orbit(h, x, sweeps: int, floored: bool = False, f=None, fy=None, hy=None, fhy=None):
    """Walk the orbits h^n(x) of the flat array x, one sweep for each n < sweeps.

    Yields ``(n, i, y, fy, hy, fhy)``: ``y = h^n(x)[i]`` and ``hy = h(y)`` at
    the points ``i`` (a slice until one leaves) still on their orbit.  With
    ``floored``, a point leaves for good at the first n where y or hy is at
    or below ``_DEPTH_FLOOR`` (in the basin an orbit only descends), and the
    walk ends when none is left.  With f, ``fy = f(y)`` and ``fhy = f(hy)``,
    and fhy is carried forward as the next fy, so f is evaluated once per
    sweep plus once at the start.  Given ``fy``, ``hy`` and ``fhy`` are the
    first sweep's values, held no longer than that sweep.
    """
    i, y = slice(None), x
    for n in range(sweeps):
        if hy is None:
            hy = np.asarray(h(y), dtype=float)
        if floored:
            live = (y > _DEPTH_FLOOR) & (hy > _DEPTH_FLOOR)
            if not live.all():
                i = np.flatnonzero(live) if isinstance(i, slice) else i[live]
                if i.size == 0:
                    return
                y, hy = y[live], hy[live]
                fy = None if fy is None else fy[live]
                fhy = None if fhy is None else fhy[live]
        if f is not None:
            if fy is None:
                fy = np.asarray(f(y), dtype=float)
            if fhy is None:
                fhy = np.asarray(f(hy), dtype=float)
        step = [(n, i, y, fy, hy, fhy)]  # handed over, so a suspended walk holds only the next y and f(y)
        y, fy, hy, fhy = hy, fhy, None, None
        yield step.pop()


def _octave_nodes(g: GridSpec) -> np.ndarray:
    """Indices of the settle probes: the nodes 2^-m, m >= max(1, octave_max - 8), at index m*K."""
    lo = max(1, g.octave_max - 8)
    if g.octave_max <= lo:
        raise ValueError(
            "a derived shift needs at least two whole-octave nodes 2^-m, m >= 1, to test settling at 0 "
            f"(the full test reads five): the grid has octave_max {g.octave_max}, the minimum is {lo + 1}"
        )
    return np.arange(lo, g.octave_max + 1) * g.samples_per_octave


def _settled_shift(k: np.ndarray, scale: np.ndarray) -> float:
    """k(0) for a derived shift, from k at the descending settle probes 2^-m.

    f is undefined at 0, so the limit is estimated on the probes.  The
    settling test is relative to the operand scale max(1, lam|f|, |f o h|):
    for an exactly self-similar f the derived shift is pure rounding noise
    proportional to f, which is a vanishing shift, while a divergent shift
    whose ratio to the scale moves (say lam*std_log vs std_log o halve) is
    rejected.  k itself must settle too, or a shift in constant ratio to the
    scale would pass: it is either at the rounding level of the operands
    (and taken as 0), or its absolute increments over the last four octaves
    shrink, the last to at most half the first.  With fewer than five probes
    both tests span fewer octaves; with two, a k0 above the rounding level
    passes only when its one increment is within that level.
    """
    def unsettled(kind: str, increments: np.ndarray) -> ValueError:
        return ValueError(f"derived shift lam*f - f o h does not settle toward 0 ({kind} tail increments "
                          f"{increments.tolist()}); the relation does not extend continuously to 0")

    deltas = np.abs(np.diff(k / scale))
    if not np.all(np.isfinite(k)) or float(np.max(deltas[-4:])) > 1e-6:
        raise unsettled("relative", deltas[-4:])
    k0 = float(k[-1])
    floor = 1e-9 * float(scale[-1])  # the rounding level of f itself
    if abs(k0) <= floor:
        return 0.0
    steps = np.abs(np.diff(k[-5:]))
    if float(steps[-1]) > max(0.5 * float(steps[0]), floor):
        raise unsettled("absolute", steps)
    return k0


def _tail_decay_deviation(f_inf: EFunction, h: Homeo, lam: float) -> float:
    """Max relative deviation of f_inf(h^-n(1)) from lam^-n f_inf(1), n = 1 .. _DECAY_STEPS, read in one call."""
    pts = [1.0]
    for _ in range(_DECAY_STEPS):
        pts.append(h.inverse(pts[-1]))
    base, *values = f_inf(np.array(pts)).tolist()
    wants = [lam ** (-n) * base for n in range(1, _DECAY_STEPS + 1)]
    return max([0.0] + [abs(v - want) / max(1e-300, abs(want)) for v, want in zip(values, wants)])

