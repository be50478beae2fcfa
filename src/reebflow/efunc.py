"""Evaluable functions on (0, oo) and the per-octave sample grid.

The central object is :class:`EFunction`: a real function on the positive
half line that diverges to +oo at 0 (class ``E``), optionally also tending
to 0 at +oo (class ``E0``).  Functions come from a builtin gallery, from a
closed-form expression string, or from CSV samples.  Everything downstream
(oscillation profiles, flow realization, classification) consumes these
through a geometric grid: nodes x_i = 2^(-i/K), so one octave corresponds
to K consecutive nodes and behavior as x -> 0 is indexed by octave number.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "GridSpec",
    "EFunction",
    "builtin",
    "compile_expr",
    "from_expression",
    "from_csv",
    "sample",
    "diagnose_class",
    "fit_grid",
    "write_csv",
    "BUILTIN_NAMES",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GridSpec:
    """Geometric sampling grid: nodes x_i = 2^(-i/K), i = 0 .. K*m_max.

    Every grid starts at x = 1, where the star profile is referenced.
    ``samples_per_octave`` (K) controls resolution, ``octave_max`` (m_max)
    the depth toward 0, and ``tail_octaves`` the horizon 2^tail_octaves
    used when a function must be probed toward +oo (class E0 checks).
    """

    samples_per_octave: int = 512
    octave_max: int = 40
    tail_octaves: int = 20

    def __post_init__(self):
        for name, v in list(vars(self).items()):
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))  # a Python int, for JSON and for node indices
        if self.samples_per_octave < 1:
            raise ValueError("samples_per_octave must be a positive integer")
        if self.octave_max < 1:
            raise ValueError("octave_max must be >= 1")
        if self.octave_max > 60:
            # 2^-60 is still an exact double; beyond that the guarantee lapses.
            raise ValueError("octave_max above 60 is not supported")
        if self.tail_octaves < 1:
            raise ValueError("tail_octaves must be positive")

    @property
    def node_count(self) -> int:
        return self.samples_per_octave * self.octave_max + 1

    def nodes(self) -> np.ndarray:
        """Strictly decreasing nodes, exactly representable, for the callers that hold them.

        x_{m*K + r} = 2^(-r/K) * 2^-m (:class:`_Nodes`), so x_{i+K} == x_i / 2
        holds bitwise for every i, and nodes at whole octaves are exact
        powers of two.  The witness check relies on the former: for h =
        halve it reads f(h(x_i)) from a sample of f as f(x_{i+K}).  Equal
        specs share one cached read-only array: copy it before writing to it.
        The streaming passes write each block's nodes into a buffer instead.
        """
        return _nodes(self.samples_per_octave, self.octave_max)

    def octave_envelopes(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-octave max and min of ``values``, one reduction each over :meth:`octave_windows`."""
        windows = self.octave_windows(values)
        return windows.max(axis=1), windows.min(axis=1)

    def octave_windows(self, values: np.ndarray) -> np.ndarray:
        """The octave windows [2^-(m+1), 2^-m], nodes m*K .. m*K + K, of ``values`` as the q rows of one strided view.

        ``values`` holds one value per node of q whole octaves and the node
        that ends them, q*K + 1 in all: the whole grid, or one octave-aligned
        block of a streaming pass, which reduces each window as the whole grid does.
        """
        K, v = self.samples_per_octave, np.ascontiguousarray(values)
        return np.ndarray(((len(v) - 1) // K, K + 1), v.dtype, v, strides=(K * v.itemsize, v.itemsize))

    def to_json(self) -> dict:
        return {
            "K": self.samples_per_octave,
            "m_min": 0,
            "m_max": self.octave_max,
            "tail_octaves": self.tail_octaves,
        }


class _Nodes:
    """The nodes x_{m*K + r} = 2^(-r/K) * 2^-m of the grid (K, m_max) without an array of them all.

    ``head``, built once per pass, holds the first min(max(1, 2^15 // K), m_max) octaves and the node
    that ends them: the longest octave-aligned block.  :meth:`span` writes any run of nodes into a
    buffer the caller owns as head[r : r + c] * 2^-m, one multiply for a block that starts an octave,
    exact down to 2^-60, so with the bits of ``GridSpec.nodes()``.  ``len`` and ``[i]`` serve ``bisect``.
    """

    def __init__(self, K: int, m_max: int):
        q = min(max(1, _BLOCK // K), m_max)
        self.K, self.n, self.head = K, K * m_max + 1, np.empty(q * K + 1)
        self.head[:K] = np.exp2(-np.arange(K) / K)  # 2^(-r/K) for r = 0 .. K-1, then times 2^-m in octave m
        np.multiply(self.head[:K], np.exp2(-np.arange(1.0, q))[:, None], out=self.head[K:-1].reshape(q - 1, K))
        self.head[-1] = math.ldexp(1.0, -q)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> float:
        m, r = divmod(i % self.n, self.K)
        return float(self.head[r]) * math.ldexp(1.0, -m)

    def span(self, lo: int, out: np.ndarray) -> np.ndarray:
        """The nodes x_lo .. x_(lo + len(out) - 1) written into ``out``, which is returned."""
        o, head = 0, self.head
        while o < len(out):
            m, r = divmod(lo + o, self.K)
            c = min(len(out) - o, len(head) - r)
            np.multiply(head[r : r + c], math.ldexp(1.0, -m), out=out[o : o + c])
            o += c
        return out


def _tail_span(K: int, lo: int, ramp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """2^((lo + ramp[i]) / K), the tail nodes from index lo, written into ``out``; ``ramp`` (or ``out``) is 0, 1, ..."""
    np.add(ramp[: len(out)], lo, out=out)
    return np.exp2(np.divide(out, K, out=out), out=out)


# Cached for the whole process, and filled only by the callers that hold nodes (see GridSpec.nodes).


@functools.lru_cache(maxsize=4)
def _nodes(K: int, m_max: int) -> np.ndarray:
    x = _Nodes(K, m_max).span(0, np.empty(K * m_max + 1))
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class EFunction:
    """A real function on (0, oo), immutable and vectorized.

    ``claimed_class`` is "E" (diverges at 0) or "E0" (also vanishes at +oo);
    the claim is diagnosed, never silently trusted, by :func:`diagnose_class`.
    ``domain`` restricts evaluation for sampled data.
    """

    kind: str  # "builtin" | "expression" | "sampled"
    fn: Callable[[np.ndarray], np.ndarray]
    claimed_class: str = "E"
    description: str = ""
    domain: tuple[float, float] = (0.0, math.inf)  # open at 0 unless sampled

    def __post_init__(self):
        if self.kind not in ("builtin", "expression", "sampled"):
            raise ValueError(f"unknown EFunction kind {self.kind!r}")
        if self.claimed_class not in ("E", "E0"):
            raise ValueError(f"claimed_class must be 'E' or 'E0', got {self.claimed_class!r}")

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        if arr.size:  # the bounds skip NaN, which evaluates to NaN; the max is taken for a finite upper bound
            lo, hi = np.fmin.reduce(arr, axis=None), self.domain[1]
            self._check_domain(float(lo), float(np.fmax.reduce(arr, axis=None)) if hi < math.inf else hi)
        out = self.fn(arr)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return np.asarray(out, dtype=float)

    def _check_domain(self, x_min: float, x_max: float) -> None:
        """Raise DomainError unless [x_min, x_max] lies in (0, oo) and in ``domain``."""
        if x_min <= 0.0:
            raise DomainError(f"{self.description or 'function'} is defined on x > 0")
        lo, hi = self.domain
        if x_min < lo or x_max > hi:
            raise DomainError(
                f"evaluation outside domain [{lo:g}, {hi:g}] for {self.description or self.kind}"
            )

    # -- algebra used throughout the oscillation/linearization layers --

    def scaled(self, lam: float) -> "EFunction":
        """lam * f for a finite lam > 0; stays in the claimed class."""
        if not 0.0 < lam < math.inf:
            raise ValueError(f"scale factor must be finite and positive, got {lam:g}")
        return replace(
            self,
            kind="expression",
            fn=lambda x, _f=self.fn, _l=lam: _l * _f(x),
            description=f"{lam:g}*({self.description})",
        )

    def shifted(self, c: float) -> "EFunction":
        """f + c for a finite c; divergence at 0 survives, decay at +oo does not."""
        if not math.isfinite(c):
            raise ValueError(f"shift constant c must be finite, got {c:g}")
        cls = self.claimed_class if c == 0.0 else "E"
        return replace(
            self,
            kind="expression",
            fn=lambda x, _f=self.fn, _c=c: _f(x) + _c,
            claimed_class=cls,
            description=f"({self.description})+{c:g}",
        )

    def composed(self, h: Callable[[np.ndarray], np.ndarray], label: str = "h") -> "EFunction":
        """f o h for an increasing homeomorphism h of [0, oo); class preserved."""
        return replace(
            self,
            kind="expression",
            fn=lambda x, _f=self.fn, _h=h: _f(np.asarray(_h(x), dtype=float)),
            description=f"({self.description})o{label}",
        )

    def plus(self, k: Callable[[np.ndarray], np.ndarray], label: str = "k") -> "EFunction":
        """f + k for a continuous shift k; decay at +oo is no longer claimed."""
        return replace(
            self,
            kind="expression",
            fn=lambda x, _f=self.fn, _k=k: _f(x) + np.asarray(_k(x), dtype=float),
            claimed_class="E",
            description=f"({self.description})+{label}",
        )


BUILTIN_NAMES = ("std_log", "doubling_osc", "bounded_osc", "koenigs_demo")


class UnknownBuiltin(ValueError):
    """:func:`builtin` was given a name not in ``BUILTIN_NAMES``; its other errors are about the parameters."""


def builtin(name: str, params: Sequence[float] = ()) -> EFunction:
    """Gallery function by identifier.

    std_log          -ln x                       monotone; the standard class
    doubling_osc     2^(sin(2 pi log2 x)) / x    satisfies f(x/2) = 2 f(x),
                                                 oscillation unbounded at 0
    bounded_osc      ln(1/x) + A sin(ln(1/x))    bounded oscillation, A >= 0
                                                 (default A = 2)
    koenigs_demo     -ln x + x/(1+x)             monotone perturbation of
                                                 std_log; linearization demo
    """
    params = tuple(float(p) for p in params)
    if name in BUILTIN_NAMES and len(params) > (takes := int(name == "bounded_osc")):  # its amplitude A
        raise ValueError(f"too many parameters for {name}: got {len(params)}, it takes {takes}")
    if name == "std_log":
        return EFunction("builtin", lambda x: -np.log(x), "E", "std_log")
    if name == "doubling_osc":
        return EFunction(
            "builtin",
            lambda x: np.exp2(np.sin(_TWO_PI * np.log2(x))) / x,
            "E0",  # f <= 2/x on [1, oo)
            "doubling_osc",
        )
    if name == "bounded_osc":
        amp = params[0] if params else 2.0
        if not 0 <= amp < math.inf:  # NaN included
            raise ValueError(f"bounded_osc amplitude must be finite and >= 0, got {amp:g}")

        def fn(x, _a=amp):
            u = -np.log(x)
            return u + _a * np.sin(u)

        return EFunction("builtin", fn, "E", f"bounded_osc({amp:g})")
    if name == "koenigs_demo":
        return EFunction(
            "builtin",
            lambda x: -np.log(x) + x / (1.0 + x),
            "E",
            "koenigs_demo",
        )
    raise UnknownBuiltin(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")


_EXPR_NS = {
    "log": np.log,
    "log2": np.log2,
    "exp": np.exp,
    "exp2": np.exp2,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "maximum": np.maximum,
    "minimum": np.minimum,
    "where": np.where,
    "pi": math.pi,
    "e": math.e,
}


def compile_expr(expr: str, what: str) -> Callable[[np.ndarray], np.ndarray]:
    """A function of ``x`` from an expression over a small numpy namespace.

    The result is a new array of the shape of ``x``, a copy only of x, a view of x
    or a constant.  A syntax error, a name outside the namespace, or an error
    while evaluating is a ValueError naming the expression.  The namespace is
    restricted to elementary functions, not a sandbox against hostile input.
    """
    try:
        code = compile(expr, f"<{what}>", "eval")
    except SyntaxError as exc:
        raise ValueError(f"{what} expression {expr!r} is not valid: {exc.msg}") from None
    unknown = sorted(set(code.co_names) - set(_EXPR_NS) - {"x"})
    if unknown:
        raise ValueError(f"{what} expression {expr!r} uses unknown names: {', '.join(unknown)}")

    def fn(x, _code=code):
        x = np.asarray(x, dtype=float)
        try:
            out = np.asarray(eval(_code, {"__builtins__": {}}, {**_EXPR_NS, "x": x}), dtype=float)  # noqa: S307
            fresh = out.shape == x.shape and not np.may_share_memory(out, x)
            return out if fresh else np.broadcast_to(out, x.shape).copy()
        except Exception as exc:
            raise ValueError(f"{what} expression {expr!r} failed: {exc}") from exc

    return fn


def from_expression(expr: str, claimed_class: str = "E", description: str = "") -> EFunction:
    """Closed-form function of ``x`` (see :func:`compile_expr`); for experiments and tests."""
    return EFunction("expression", compile_expr(expr, "function"), claimed_class, description or expr)


def from_csv(path: str | Path) -> EFunction:
    """Sampled function from a CSV file with header ``x,f``.

    Rows must be strictly decreasing in x with all x > 0.  Evaluation
    interpolates linearly in (log x, f), matching the multiplicative
    structure of the grid, and raises outside the sampled range.
    """
    path = Path(path)
    text = path.read_text()
    return _parse_csv(text, str(path))


def _parse_csv(text: str, label: str) -> EFunction:
    reader = csv.reader(io.StringIO(text))  # each row with the number of the line it ends on
    rows = ((reader.line_num, row) for row in reader if row and any(cell.strip() for cell in row))
    if (first := next(rows, None)) is None:
        raise ValueError(f"{label}: empty CSV")
    header = [cell.strip().lower() for cell in first[1]]
    if header[:2] != ["x", "f"]:
        raise ValueError(f"{label}: expected header 'x,f', got {first[1]!r}")
    xs, fs = [], []
    for lineno, row in rows:
        if len(row) < 2:
            raise ValueError(f"{label}:{lineno}: need two columns")
        try:
            xv, fv = float(row[0]), float(row[1])
        except ValueError as exc:
            raise ValueError(f"{label}:{lineno}: malformed row {row!r}") from exc
        if not (math.isfinite(xv) and math.isfinite(fv)):
            raise ValueError(f"{label}:{lineno}: non-finite value in row {row!r}")
        if xv <= 0:
            raise ValueError(f"{label}:{lineno}: x must be positive, got {xv!r}")
        if xs and xv >= xs[-1]:
            raise ValueError(f"{label}:{lineno}: x column must be strictly decreasing")
        xs.append(xv)
        fs.append(fv)
    if len(xs) < 2:
        raise ValueError(f"{label}: need at least two samples")
    # ascending in log2 x for interpolation
    lx = np.log2(np.asarray(xs[::-1]))
    fv = np.asarray(fs[::-1])
    x_lo, x_hi = xs[-1], xs[0]

    def fn(x, _lx=lx, _fv=fv):
        return np.interp(np.log2(x), _lx, _fv)

    return EFunction(
        "sampled",
        fn,
        "E",
        f"csv:{label}",
        domain=(x_lo, x_hi),
    )


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence[Sequence[float]]) -> None:
    """A header row, then the columns side by side as ``repr`` floats, lines ending in ``\\n``.

    The header names one column each, and the columns have one length, or a
    ``ValueError`` names both before anything is written; no columns at all
    write the header alone.  Rows are formatted in blocks of 4096, which keep
    the text held in memory small.  A column whose block is bitwise equal to
    an earlier column's block (as int64, so ``0.0`` and ``-0.0`` differ)
    reuses that block's cell strings, so each such block is formatted once.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    if cols and (len(header) != len(cols) or len({len(c) for c in cols}) > 1):
        raise ValueError(f"CSV header of {len(header)} names over columns of lengths {[len(c) for c in cols]}")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(cols[0]) if cols else 0, 4096):
            blocks, cells = [c[i : i + 4096].view(np.int64) for c in cols], []
            for b in blocks:
                same = next((t for a, t in zip(blocks, cells) if np.array_equal(a, b)), None)
                cells.append(same or list(map(repr, b.view(float).tolist())))
            fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))


# Grid-wide passes run over blocks of _BLOCK consecutive nodes: 256 KiB per
# float64 array, so a block and its temporaries stay in a core's L2 cache.
# Measured against 2^14 and 2^16 on the 983,041-node grid (see CHANGES.md).
# The sampling and profile pass rounds its blocks to whole octaves, see
# _octave_blocks.
_BLOCK = 1 << 15


def _blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most ``_BLOCK`` indices covering ``range(n)``, in order."""
    for lo in range(0, n, _BLOCK):
        yield slice(lo, min(lo + _BLOCK, n))


def _blockwise(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """``fn(x)`` evaluated one block of ``x`` at a time into one new array.

    Bitwise ``fn(x)`` for an elementwise ``fn``, whose value at a point does
    not depend on the other points of the array.
    """
    out = np.empty(x.shape)
    for s in _blocks(len(x)):
        out[s] = fn(x[s])
    return out


def _octave_blocks(f: EFunction, g: GridSpec, fv=None, ahead: bool = False, nodes: _Nodes | None = None,
                   source=None) -> Iterator:
    """f at the nodes of g, one octave-aligned block at a time, with its nodes and octave envelopes.

    Yields ``(lo, x, v, (sups, mins))``: v holds f at the nodes x, lo .. lo + len(v) - 1: q = max(1, 2^15 // K)
    whole octaves (fewer in the last block) and the node that ends them, so the blocks share their end nodes and
    f is evaluated at each node once; sups and mins are the octave envelopes of v.  x (a span of ``nodes``, the
    :class:`_Nodes` of g) and v (unless a view of ``fv``) are buffers that the next block overwrites, or with
    ``ahead`` the block after it (two in turn).

    The domain of f is checked once, against the first and last nodes; then
    ``f.fn`` runs on each block, so f must be elementwise: its value at x
    may not depend on the other points of the array; a ``source(lo, x, out)``
    writes f at x = x_lo .. into out instead.  A non-finite value is
    reported after the last block, so every block is evaluated first.  NaN and
    +-inf survive max and min, so only a block whose envelopes are not finite
    is searched node by node for its first non-finite value.
    """
    nodes = _Nodes(g.samples_per_octave, g.octave_max) if nodes is None else nodes
    n, step = len(nodes), len(nodes.head) - 1
    f._check_domain(nodes[-1], nodes[0])
    xbufs = [np.empty(step + 1) for _ in range(1 + ahead)]
    bufs = None if fv is not None else [np.empty(step + 1) for _ in range(1 + ahead)]
    bad = None
    for lo in range(0, n - 1, step):
        hi = min(lo + step, n - 1) + 1
        x = nodes.span(lo, xbufs[lo // step % len(xbufs)][: hi - lo])
        v = fv[lo:hi] if bufs is None else bufs[lo // step % len(bufs)][: hi - lo]
        if lo:
            v[0] = end  # the end node of the previous block
        new = v[1:] if lo else v
        try:
            with np.errstate(all="ignore"):  # non-finite results become DomainError below
                if source is None:
                    new[:] = f.fn(x[len(v) - len(new) :])
                else:
                    source(hi - len(new), x[len(v) - len(new) :], new)
        except DomainError:
            raise
        except Exception as exc:  # pragma: no cover - defensive wrapper
            raise DomainError(f"evaluation failed on grid: {exc}") from exc
        end = v[-1]
        sups, mins = g.octave_envelopes(v)
        if bad is None and not (math.isfinite(sups.max()) and math.isfinite(mins.min())):
            bad = float(x[int(np.argmin(np.isfinite(v)))])
        yield lo, x, v, (sups, mins)
    if bad is not None:
        raise DomainError(f"non-finite value at grid node x={bad!r}")


def sample(f: EFunction, g: GridSpec) -> np.ndarray:
    """A new array of f at ``g.nodes()``.  Deterministic: same inputs, same bits.

    f is evaluated in the octave-aligned blocks of the streaming passes
    (``max(1, 2^15 // K) * K`` nodes at a time), so it must be elementwise:
    its value at x may not depend on the other points of the array.  The
    domain is checked once per grid, and every block is evaluated before the
    values are checked to be finite.  ``classify`` and ``sigma_estimate``
    do not call this: they stream f and hold no sample.
    """
    v = np.empty(g.node_count)
    for _ in _octave_blocks(f, g, v):
        pass
    return v


def diagnose_class(f: EFunction, g: GridSpec) -> list[str]:
    """Heuristic check of the claimed class on the probe grid.

    Finite data cannot certify the limits, so violations are reported as
    warnings rather than rejections.  For class E the per-octave minima of f
    should grow toward 0 (monotone up to a small slack); for class E0 the
    value at the tail horizon 2^tail_octaves should be small.  Streams f
    over ``fit_grid(f, g)`` for its octave envelopes; ``classify`` passes
    the envelopes of f from its own pass to the same check instead.
    """
    try:
        fg = fit_grid(f, g)
        envelopes = [env for *_, env in _octave_blocks(f, fg)]
    except DomainError as exc:
        return [f"could not sample for diagnosis: {exc}"]
    sups, mins = (np.concatenate(e) for e in zip(*envelopes))
    return _diagnose_envelopes(f, fg, sups, mins)


def _diagnose_envelopes(f: EFunction, grid: GridSpec, sups: np.ndarray, mins: np.ndarray) -> list[str]:
    """The checks of :func:`diagnose_class` on the octave envelopes of ``f`` on ``grid``."""
    warnings: list[str] = []
    # a divergent f may oscillate, so its window minima may dip; allow dips up
    # to the function's own typical per-octave swing before raising a flag
    allowance = 1.0 + 2.0 * float(np.median(sups - mins))
    # first octave j >= 2 whose minimum drops below max(mins[:j]) - allowance
    drops = np.flatnonzero(mins[2:] < np.maximum.accumulate(mins)[1:-1] - allowance)
    if drops.size:
        j = 2 + int(drops[0])
        warnings.append(
            f"class E suspect: octave [2^-{j + 1}, 2^-{j}] minimum {mins[j]:.6g} "
            f"drops more than {allowance:.3g} below the earlier minima"
        )
    if f.claimed_class == "E0" and f.domain[1] == math.inf:
        horizon = abs(f(2.0 ** grid.tail_octaves))
        if horizon > 0.01 * (1.0 + abs(f(1.0))):
            warnings.append(f"class E0 suspect: |f(2^{grid.tail_octaves})| = {horizon:.6g} is not small")
    return warnings


def fit_grid(f: EFunction, g: GridSpec) -> GridSpec:
    """Shrink a grid to a sampled function's domain (no-op for full-domain f)."""
    lo, hi = f.domain
    if lo == 0.0 and hi == math.inf:
        return g
    if hi < 1.0:
        raise DomainError("sampled data must reach x = 1 to anchor the grid")
    m_hi = min(g.octave_max, int(math.floor(-math.log2(lo))))
    if m_hi < 1:
        raise DomainError("sampled data spans less than one octave below 1")
    return replace(g, octave_max=m_hi)
