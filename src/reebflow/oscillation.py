"""Oscillation functionals, the sigma invariant, and equivalence witnesses.

For f in E the profile ``star`` measures how far f sits below its running
maximum taken from x = 1 toward 0:

    star(x) = max(f on [x, 1]) - f(x)

``sharp`` is the variant for class E0 whose reference interval extends to
+oo.  Both are computed by a single descending running-maximum pass over
the grid, in octave-aligned blocks, so a profile costs O(n) and the octave
envelopes that sigma reads need no array the size of the grid.  The invariant

    sigma = limsup of star(x) as x -> 0

is estimated by the supremum of the per-octave maxima s_m over the deep
half of the grid, with a qualitative trend (increasing / bounded /
vanishing) of its final octaves attached, since no finite grid can certify
a limsup.

``check_witness`` verifies the equivalence relation f' = f o h + k, or its
self-similarity form lam * f = f o h + k, as a relative residual over the
grid.
"""

from __future__ import annotations

import bisect
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .efunc import _BLOCK, EFunction, GridSpec, _blocks, _Nodes, _octave_blocks, _tail_span
from .errors import DomainError, TailCheckError
from .homeo import Homeo

__all__ = [
    "OscillationProfile",
    "SigmaEstimate",
    "EquivalenceWitness",
    "WitnessReport",
    "star_profile",
    "sharp_profile",
    "sigma_estimate",
    "check_witness",
    "as_shift",
]


def as_shift(k) -> Callable[[np.ndarray], np.ndarray]:
    """Normalize a continuous-shift argument: None -> 0, number -> constant."""
    if k is None:
        k = 0.0
    if isinstance(k, numbers.Real):  # numpy scalars too
        return lambda x, _c=float(k): np.full_like(np.asarray(x, dtype=float), _c)
    return lambda x, _k=k: np.asarray(_k(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True)
class OscillationProfile:
    """star or sharp values on a grid, with their per-octave suprema.

    ``octave_sup[m]`` is the maximum of the values over the window
    [2^-(m+1), 2^-m] (both window endpoints are grid nodes and are
    included), the s_m that sigma reads.
    """

    variant: str  # "star" | "sharp"
    grid: GridSpec
    x: np.ndarray
    f_values: np.ndarray
    values: np.ndarray
    octave_sup: np.ndarray


def star_profile(f: EFunction, g: GridSpec) -> OscillationProfile:
    """Descending running-max profile referenced to x = 1.

    Every grid starts at x = 1, so the profile value at the first node is
    exactly 0.  The profile holds f and its star values at every node;
    :func:`sigma_estimate` and ``classify`` take the same pass and keep only
    the octave envelopes.
    """
    return _held_profile(f, g, "star")


def sharp_profile(f: EFunction, g: GridSpec) -> OscillationProfile:
    """Running-max profile referenced to +oo, for functions of class E0.

    The running maximum is seeded with the sampled maximum of f over
    [1, 2^tail_octaves]; the magnitude of f at the horizon must be at most
    0.01 or the decay claim is rejected.
    """
    return _held_profile(f, g, "sharp")


# the largest |f(2^tail_octaves)| that the sharp profile accepts as decay
_DECAY_BOUND = 0.01


def _held_profile(f: EFunction, g: GridSpec, variant: str) -> OscillationProfile:
    fv, vals = np.empty(g.node_count), np.empty(g.node_count)
    _, sups = _profile_pass(f, g, variant, fv, vals)
    return OscillationProfile(variant, g, g.nodes(), fv, vals, sups)


def _profile_pass(
    f: EFunction, g: GridSpec, variant: str, fv: np.ndarray | None = None, vals: np.ndarray | None = None,
    folds: Sequence[_WitnessFold] = (), source=None,
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """One pass of f over g: the octave envelopes of f, and the octave suprema of its profile.

    Returns ``((f_sups, f_mins), sups)``.  ``fv`` and ``vals``,
    when given, receive f and the profile at every node; without them the
    pass holds only buffers of one block.  A held pass (``star_profile``,
    ``sharp_profile``) does the per-block work of a streamed one (``sigma_estimate``,
    ``classify``) and only writes into its arrays.  ``folds`` are fed each block of f and its nodes,
    spans of the :class:`_Nodes` the folds walked h over, so a scan builds one head.  ``source``
    is that of ``_octave_blocks``.

    The argument checks and the sharp tail check come before f is evaluated
    on the grid, so a rejected tail is reported ahead of any grid-domain
    error.  f and the running max run over the octave-aligned blocks of
    ``_octave_blocks``, so f must be elementwise: its value at x may not
    depend on the other points of the array.  They give the bits of
    whole-array passes: the running max carries its value at a block's end
    node into the next block, which starts at that node, and each octave
    window lies in one block, reduced as over the whole grid.
    """
    if variant not in ("star", "sharp"):
        raise ValueError("variant must be 'star' or 'sharp'")
    if variant == "sharp" and f.claimed_class != "E0":
        raise ValueError("sharp profile requires a function with claimed_class E0")
    tail_max = _tail_max(f, g) if variant == "sharp" else None
    f_env, sups = [], []
    # inf - inf at a non-finite f is not warned of: _octave_blocks reports
    # the non-finite value as a DomainError after the last block; nor is a
    # max - f that overflows at a finite f, reported below
    with np.errstate(invalid="ignore", over="ignore"):
        for lo, xb, fb, env in _octave_blocks(f, g, fv, bool(folds), folds[0].x if folds else None, source):
            m = len(fb)
            if not lo:  # the first block is the longest
                buf = np.empty(m)
            # rm[0] is the running max at the block's first node: there f itself
            # on the first block (the max of -inf and f, as for the whole array),
            # else the value carried from the previous block's end node
            rm = buf[:m] if vals is None else vals[lo : lo + m]
            rm[0] = carry if lo else fb[0]
            rm[1:] = fb[1:]
            _running_max(rm)
            carry = rm[-1]
            if tail_max is not None:  # sharp: the tail max joins after the accumulation
                np.maximum(rm, tail_max, out=rm)
            np.subtract(rm, fb, out=rm)  # the running max is >= f, so the profile is >= 0 exactly
            f_env.append(env)
            sups.append(g.octave_windows(rm).max(axis=1))
            for fold in folds:
                fold.feed(lo, xb, fb)
    f_sups, f_mins = (np.concatenate(e) for e in zip(*f_env))
    if np.any(over := (sups := np.concatenate(sups)) == math.inf):
        raise DomainError(f"the {variant} profile overflows at octave {int(np.argmax(over))}: "
                          "max(f) - f there exceeds the largest double")
    return (f_sups, f_mins), sups


def _tail_max(f: EFunction, g: GridSpec) -> float:
    """The max of f over the tail nodes of g, by ``_blocks`` after one domain check, once |f| at the horizon
    passes the decay bound: the bits of one max over the tail (taken again if 0, where +-0.0 may tie), a NaN too.
    The nodes of each block are written into one buffer (:func:`_tail_span`)."""
    K, n = g.samples_per_octave, g.samples_per_octave * g.tail_octaves + 1
    ramp, t = np.arange(min(_BLOCK, n), dtype=float), np.empty(min(_BLOCK, n))
    f._check_domain(1.0, float(_tail_span(K, n - 1, ramp, t[:1])[0]))
    tops = [(tv := np.asarray(f.fn(_tail_span(K, s.start, ramp, t[: s.stop - s.start])), dtype=float)).max()
            for s in _blocks(n)]
    horizon = float(np.abs(tv[-1]))
    if horizon > _DECAY_BOUND:
        raise TailCheckError(f"|f(2^{g.tail_octaves})| = {horizon:.6g} exceeds the tail bound {_DECAY_BOUND:g}")
    if (top := float(np.max(tops))) == 0:  # again over the whole tail at once, where +-0.0 may tie
        top = float(np.asarray(f.fn(_tail_span(K, 0, t := np.arange(n, dtype=float), t)), dtype=float).max())
    return top


# the values after the carry that _running_max takes as one chunk
_CHUNK = 512


def _running_max(run: np.ndarray) -> None:
    """``np.maximum.accumulate(run, out=run)``, bitwise, by a two-level scan.

    run[0] is the running max carried in.  The maxima of the whole chunks of
    ``_CHUNK`` values after it come from one reduction, and their running
    max seeded with run[0] is the carry into each chunk.  A chunk strictly
    below its carry is filled with it, and one that rises strictly from it
    is kept as it is: neither holds a tie, so both are what the accumulation
    gives.  The other chunks, and the values after the last whole chunk, are
    accumulated from their carry, in order.  A reduction may pick either of
    +0.0 and -0.0 where they tie, so if a chunk's maximum is zero the whole
    array is accumulated plainly, and signed zeros tie as they do there.
    """
    C = _CHUNK
    n = (len(run) - 1) // C * C
    v = run[1 : n + 1].reshape(-1, C)
    top = v.max(axis=1)
    if (top == 0).any():
        np.maximum.accumulate(run, out=run)
        return
    carry = np.maximum.accumulate(np.concatenate((run[:1], top)))[:-1]
    below = top < carry
    rising = (v[:, 0] > carry) & (run[1 : n + 1] > run[:n]).reshape(-1, C).all(axis=1)
    for a, b in _spans(below):  # the carry is the same over a span of filled chunks
        run[1 + a * C : 1 + b * C] = carry[a]
    for a, b in _spans(~(below | rising)):  # seeded with the chunk before, already final
        seg = run[a * C : b * C + 1]
        np.maximum.accumulate(seg, out=seg)
    rest = run[n:]
    np.maximum.accumulate(rest, out=rest)


def _spans(mask: np.ndarray) -> Iterator[tuple[int, int]]:
    """The (start, stop) of each run of consecutive True values in ``mask``."""
    padded = np.zeros(len(mask) + 2, dtype=bool)
    padded[1:-1] = mask
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    return zip(edges[::2], edges[1::2])


_TAIL_WINDOW = 8  # the final octaves: the trend compares them with the 8 before, "nonstandard" reads their max


@dataclass(frozen=True)
class SigmaEstimate:
    """Finite-data stand-in for the limsup invariant.

    ``sigma_hat`` is the max of the per-octave suprema s_m over the deep half
    of the grid, octaves ``M // 2`` to ``M - 1``: a whole period of any
    oscillation that repeats within M / 2 octaves, wherever the grid ends.
    ``trend`` compares the final ``_TAIL_WINDOW`` (8) octaves against the 8
    before them with a fixed factor of 1.5: "increasing" (grows by more than
    the factor), "vanishing" (shrinks by more than the factor, or is zero),
    else "bounded".  The trend reads the final 16 octaves, sigma_hat the
    deep half: a period longer than 16 octaves can read "vanishing" beside a
    large sigma_hat, which alone cannot tell a large limsup from slow
    divergence.  A grid needs at least 16 octaves.
    """

    variant: str
    s_m: np.ndarray
    sigma_hat: float
    trend: str

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "octaves": list(range(len(self.s_m))),
            "s_m": [float(v) for v in self.s_m],
            "sigma_hat": float(self.sigma_hat),
            "trend": self.trend,
        }


def sigma_estimate(f: EFunction, g: GridSpec, variant: str = "star") -> SigmaEstimate:
    """The sigma estimate of the star or sharp profile of f on g.

    Takes the pass of :func:`star_profile` / :func:`sharp_profile` but keeps
    only the per-octave suprema: no sample of f or of the profile is held.
    """
    _, sups = _profile_pass(f, g, variant)
    return _sigma_from_sups(variant, g, sups)


def sigma_from_profile(prof: OscillationProfile) -> SigmaEstimate:
    return _sigma_from_sups(prof.variant, prof.grid, prof.octave_sup)


# the factor by which the tail window must grow or shrink against the one
# before it for the trend to be "increasing" or "vanishing"
_TREND_FACTOR = 1.5


def _sigma_from_sups(variant: str, g: GridSpec, s_m: np.ndarray) -> SigmaEstimate:
    W = _TAIL_WINDOW
    if len(s_m) < 2 * W:
        raise ValueError(f"need at least {2 * W} octaves, have {len(s_m)}")
    tail = float(np.max(s_m[-W:]))
    prev = float(np.max(s_m[-2 * W : -W]))
    tiny = 1e-12 * (1.0 + float(np.max(s_m)))
    if tail <= tiny:
        trend = "vanishing"
    elif tail >= _TREND_FACTOR * max(prev, tiny):
        trend = "increasing"
    elif tail <= max(prev, tiny) / _TREND_FACTOR:
        trend = "vanishing"
    else:
        trend = "bounded"
    return SigmaEstimate(variant, s_m, float(np.max(s_m[len(s_m) // 2 :])), trend)


@dataclass(frozen=True)
class EquivalenceWitness:
    """Data (h, k, lam) for the relation lam * f = f o h + k, with a finite lam > 0."""

    h: Homeo
    k: Callable | float | None = None
    lam: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"witness lam must be finite and positive, got {self.lam:g}")


@dataclass(frozen=True)
class WitnessReport:
    residual: float  # sup over nodes of |lhs - rhs| / max(1, |lhs|, |rhs|)
    worst_x: float
    h_monotone: bool
    passed: bool  # residual at most _WITNESS_TOL (1e-9)


_WITNESS_TOL = 1e-9  # the residual gate of check_witness, the scan and koenigs_limit
# orbit depth below which doubles quantize too coarsely for derived shifts
_DEPTH_FLOOR = 1e-300


def check_witness(f: EFunction, f2: EFunction | None, w: EquivalenceWitness, g: GridSpec) -> WitnessReport:
    """Verify an equivalence witness on the grid.

    With ``f2`` given the check is f2 = f o h + k (equivalence mode, lam
    must be 1, which is checked before h runs); with ``f2`` None it is
    lam * f = f o h + k.  Residuals are relative to the operand scale: the
    functions involved span many decades, so an absolute residual would be
    meaningless near 0.  A non-monotone h is reported (h_monotone False
    fails the check), never silently ignored.  h counts as increasing when
    the images of the descending nodes descend: strictly above
    ``_DEPTH_FLOOR``, and without rising below it, where neighbouring images
    may round to one double or underflow to 0.  h is walked over the grid
    first, so f never sees the images of a non-monotone h, nor 0, whose
    residual is inf.  The left side is then evaluated and folded block by
    block (:class:`_WitnessFold`).  In self-similarity mode the node shift j
    has h(x_0) == x_j, and is kept when at least half of the images h(x_i)
    with i + j on the grid are x_{i+j} bitwise: all under ``halve``
    (j = K), 55% under ``root_scale:2`` at K = 16384.  f o h is then read
    from a block and the next at those images, and f runs once per node and
    at the other images and those past the grid's end (the last K under
    ``halve``).  Without a shift f runs at every image.  The check passes at
    a residual of at most ``_WITNESS_TOL`` (1e-9), the gate of the scan and
    of ``koenigs_limit``, whose first sweep gives the bits of this check.

    The grid is taken in blocks of nodes, so f, f2, h and k must be
    elementwise: the value at x may not depend on the other points of the
    array.  The residual is then bitwise that of whole-array evaluation.
    """
    if f2 is not None and w.lam != 1.0:
        raise ValueError("equivalence mode fixes lam = 1; use self-similarity mode")
    nodes = _Nodes(g.samples_per_octave, g.octave_max)
    fold = _WitnessFold(f, w, nodes, "equivalence" if f2 is not None else "self_similarity")
    bufs = np.empty((2, min(_BLOCK, len(nodes))))  # in turn, so a block held for its look-ahead keeps its nodes
    for s in _blocks(len(nodes)):
        x = nodes.span(s.start, bufs[s.start // _BLOCK % 2][: s.stop - s.start])
        fold.feed(s.start, x, np.asarray((f if f2 is None else f2)(x), dtype=float))
    return fold.report()


class _WitnessFold:
    """lam * v = f o h + k at the grid's nodes, folded over the blocks of v (f, or f2 in "equivalence" mode) in order.

    h is walked first (:func:`_walk_images`).  A block folds k at its nodes,
    then, for an increasing h, f o h before the first image at 0.  Under a
    node shift j in "self_similarity" mode it waits for the next block, takes
    h at its nodes again, and reads f(h(x_i)) as f(x_{i+j}) wherever
    h(x_i) == x_{i+j} and i + j falls in the two, so f runs once at the other
    images (:func:`_f_at_images`).  A node two blocks share folds in the
    first; inf - inf folds as NaN, unwarned.  ``rows`` hold the block's f o h + k,
    lam * v and residual, kept from block to block and shared by the folds of a pass."""

    def __init__(self, f, w: EquivalenceWitness, nodes: _Nodes, mode: str, rows: np.ndarray | None = None):
        self.f, self.w, self.x, self.k = f, w, nodes, None if w.k is None else as_shift(w.k)
        self.rows = np.empty((3, max(len(nodes.head), min(_BLOCK, len(nodes))))) if rows is None else rows
        spans = (nodes.span(s.start, self.rows[0][: s.stop - s.start]) for s in _blocks(len(nodes)))
        images = (np.asarray(w.h(x), dtype=float) for x in spans)
        self.h_monotone, self.z, j, _ = _walk_images(nodes, images, self.rows[1])
        self.j = j if mode == "self_similarity" else None
        self.done, self.held, self.best = 0, None, (-math.inf, -1)

    def feed(self, lo: int, x: np.ndarray, v: np.ndarray) -> None:
        """v at the nodes x from ``lo`` on; both are read until the next block is fed."""
        if self.j is None:
            return self._fold(lo, x, v, lo, x, v)
        if self.held is not None:
            self._fold(*self.held, lo, x, v)
        self.held = (lo, x, v)

    def report(self) -> WitnessReport:
        if self.held is not None:
            self._fold(*self.held, len(self.x), self.rows[0][:0], self.rows[0][:0])
        return _witness_report(self.x, self.h_monotone, self.z, self.best)

    def _fold(self, lo: int, x: np.ndarray, v: np.ndarray, ahead_lo: int, ahead_x: np.ndarray, ahead: np.ndarray):
        a, b = self.done, lo + len(v)
        self.done = b
        kv = None if self.k is None else self.k(x[a - lo :])
        # f never sees the images of a non-monotone h, nor 0; k still runs, for its errors
        e = min(b, self.z) if self.h_monotone else a
        if e <= a:
            return
        rhs, lhs, rel = (row[: e - a] for row in self.rows)
        hx, on = np.asarray(self.w.h(x[a - lo : e - lo]), dtype=float), ()
        if (j := self.j) is not None:  # f(x_{i+j}) is read from v on [a, c) and from ahead on [c, d)
            c = min(max(b - j, a), e)
            d = min(max(ahead_lo + len(ahead) - j, c), e)
            rhs[: c - a] = v[a + j - lo : c + j - lo]
            rhs[c - a : d - a] = ahead[c + j - ahead_lo : d + j - ahead_lo]
            on = (x[a + j - lo : c + j - lo], ahead_x[c + j - ahead_lo : d + j - ahead_lo])
        _f_at_images(self.f, hx, on, rhs)
        if kv is not None:
            rhs += kv[: e - a]
        np.multiply(v[a - lo : e - lo], self.w.lam, out=lhs)
        with np.errstate(invalid="ignore"):
            self.best = _max_residual([(a, lhs, rhs)], self.best, rel)


def _walk_images(x: _Nodes, blocks: Iterable[np.ndarray], buf: np.ndarray) -> tuple[bool, int, int | None, int | None]:
    """Whether h is increasing on the descending nodes ``x``, given its images per ``_blocks`` block
    (they descend, across block edges too, to a minimum not negative or NaN), the index where the
    images at 0 begin, and the node shift j: the index of the node h(x_0), kept when at least half of
    the images h(x_i) with i + j < len(x) are x_{i+j} (written into ``buf``) bitwise; else None.
    Last comes j again when every one of those images is its node, else None."""
    n = len(x)
    monotone, z, j, on, last = True, n, None, 0, None
    for s, hb in zip(_blocks(n), blocks):
        if last is None:  # the index of the node equal to h(x_0), if any
            j = bisect.bisect_left(x, -float(hb[0]), key=operator.neg)
            j = j if j < n and x[j] == hb[0] else None
        elif monotone:
            monotone = _descends(np.array((last, hb[0])))
        monotone = monotone and _descends(hb)
        if j is not None and (m := min(s.stop, n - j) - s.start) > 0:
            on += int(np.count_nonzero(hb[:m] == x.span(s.start + j, buf[:m])))
        if z == n and hb[-1] == 0:  # the images at 0 of an increasing h end the grid
            z = s.start + int(np.argmax(hb == 0))
        last = hb[-1]
    j, every = (j, j if on == n - j else None) if j is not None and 2 * on >= n - j else (None, None)
    return (True, z, j, every) if monotone and last >= 0 else (False, n, None, None)


def _f_at_images(f, hx: np.ndarray, nodes: Sequence[np.ndarray], out: np.ndarray) -> None:
    """f at the images ``hx`` into ``out``, whose prefix holds f at the ``nodes``, in pieces: that value is kept
    where the image is its node bitwise, and f runs once at the other images and those past the prefix."""
    miss, n = np.ones(len(hx), dtype=bool), 0
    for piece in nodes:
        np.not_equal(hx[n : n + len(piece)], piece, out=miss[n : n + len(piece)])
        n += len(piece)
    if miss.all():
        out[:] = f(hx)
    elif (at := np.flatnonzero(miss)).size:  # gathered by index: a boolean mask takes about three times as long
        out[at] = f(hx.take(at))


def _witness_report(x, h_monotone, z, best: tuple[float, int]) -> WitnessReport:
    """The report at the nodes ``x`` from the :func:`_max_residual` of its blocks: a non-monotone h has residual
    inf at x[0], and images at 0, from index ``z`` on, count as inf after every node whose image is positive."""
    residual, i = best
    if not h_monotone:
        residual, i = math.inf, 0
    elif z < len(x) and residual < math.inf:  # neither an inf nor a NaN came before
        residual, i = math.inf, z
    return WitnessReport(residual, float(x[i]), h_monotone, residual <= _WITNESS_TOL)


def _descends(hx: np.ndarray) -> bool:
    """Whether ``hx`` falls strictly, except for ties at or below ``_DEPTH_FLOOR``."""
    down = hx[1:] < hx[:-1]
    if down.all():
        return True
    return bool(np.all(down | ((hx[1:] == hx[:-1]) & (hx[:-1] <= _DEPTH_FLOOR))))


def _relative_residual(lhs: np.ndarray, rhs: np.ndarray, rel: np.ndarray | None = None) -> tuple[float, int]:
    """The largest |lhs - rhs| / max(1, |lhs|, |rhs|) and its first index (a NaN wins); overwrites ``rhs``.
    Given ``rel`` (a buffer as long), it takes |lhs - rhs| and overwrites ``lhs`` with |lhs|."""
    d = np.subtract(lhs, rhs, out=rel)
    np.abs(d, out=d)
    scale = np.abs(rhs, out=rhs)
    np.maximum(scale, np.abs(lhs, out=None if rel is None else lhs), out=scale)
    np.maximum(scale, 1.0, out=scale)
    d /= scale
    i = int(np.argmax(d))
    return float(d[i]), i


def _max_residual(blocks: Iterable[tuple[int, np.ndarray, np.ndarray]], best=(-math.inf, -1), rel=None):
    """The largest :func:`_relative_residual` over ``(start, lhs, rhs)`` blocks and its index, after ``best``
    ((-inf, -1): none): the first largest wins, and a NaN one, as for ``np.argmax`` over the whole array."""
    residual, worst = best
    for a, lhs, rhs in blocks:
        r, i = _relative_residual(lhs, rhs, rel)
        if r > residual or (math.isnan(r) and not math.isnan(residual)):
            residual, worst = r, a + i
    return residual, worst
