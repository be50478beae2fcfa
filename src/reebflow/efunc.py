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

import ast
import csv
import functools
import io
import math
import numbers
import operator
import threading
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

_TAIL_OCTAVES = 20  # the horizon 2^20 toward +oo of the sharp tail, the class E0 check and the basin of 0


@dataclass(frozen=True)
class GridSpec:
    """Geometric sampling grid: nodes x_i = 2^(-i/K), i = 0 .. K*m_max, the pair ``--grid K,m_max`` takes.

    Every grid starts at x = 1, where the star profile is referenced.
    ``samples_per_octave`` (K) controls resolution and ``octave_max`` (m_max)
    the depth toward 0.  Probes toward +oo stop at the horizon 2^20 of every
    grid (``_TAIL_OCTAVES``), which ``to_json`` records as ``"tail_octaves"``.
    """

    samples_per_octave: int = 512
    octave_max: int = 40

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
            "tail_octaves": _TAIL_OCTAVES,
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
    ``domain`` restricts evaluation for sampled data.  The ``fn`` of the gallery,
    of expressions and of ``scaled`` and ``shifted`` is a program (:func:`compile_expr`).
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

    def into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """f at x written into ``out`` and returned, unchecked: a program's ``into``, else a copy of ``fn(x)``."""
        if isinstance(self.fn, _Program):
            return self.fn.into(x, out)
        out[...] = self.fn(x)
        return out

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
            fn=_program(self.fn).scaled(lam),
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
            fn=_program(self.fn).shifted(c),
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


# The gallery: name -> (expression, claimed class); bounded_osc's amplitude A is written in by repr.
_GALLERY = {
    "std_log": ("-log(x)", "E"),
    "doubling_osc": ("exp2(sin(2*pi*log2(x))) / x", "E0"),  # f <= 2/x on [1, oo)
    "bounded_osc": ("-log(x) + {A!r}*sin(-log(x))", "E"),
    "koenigs_demo": ("-log(x) + x / (1.0 + x)", "E"),
}
BUILTIN_NAMES = tuple(_GALLERY)


class UnknownBuiltin(ValueError):
    """:func:`builtin` was given a name not in ``BUILTIN_NAMES``; its other errors are about the parameters."""


def builtin(name: str, params: Sequence[float] = ()) -> EFunction:
    """Gallery function by identifier: the program (:func:`compile_expr`) of its expression in ``_GALLERY``.

    std_log          -ln x                       monotone; the standard class
    doubling_osc     2^(sin(2 pi log2 x)) / x    satisfies f(x/2) = 2 f(x),
                                                 oscillation unbounded at 0
    bounded_osc      ln(1/x) + A sin(ln(1/x))    bounded oscillation, A >= 0
                                                 (default A = 2)
    koenigs_demo     -ln x + x/(1+x)             monotone perturbation of
                                                 std_log; linearization demo

    Each gives the bits of the numpy expression its text spells (-ln x once in bounded_osc).
    """
    try:
        params = tuple(float(p) for p in params)
    except OverflowError:  # an integer that no double holds
        raise ValueError(f"the parameters of {name} must be numbers that a double holds") from None
    if name not in _GALLERY:
        raise UnknownBuiltin(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")
    if len(params) > (takes := int(name == "bounded_osc")):  # its amplitude A
        raise ValueError(f"too many parameters for {name}: got {len(params)}, it takes {takes}")
    (expr, cls), desc = _GALLERY[name], name
    if name == "bounded_osc":
        amp = params[0] if params else 2.0
        if not 0 <= amp < math.inf:  # NaN included
            raise ValueError(f"bounded_osc amplitude must be finite and >= 0, got {amp:g}")
        expr, desc = expr.format(A=amp), f"bounded_osc({amp:g})"
    return EFunction("builtin", compile_expr(expr, name), cls, desc)


# The grammar of an expression (see compile_expr): its constants, its functions with their arity, and its
# operators, each with the Python operator that a call of the program runs and the ufunc that into runs.
_CONSTANTS = {"pi": math.pi, "e": math.e}
_FUNCTIONS = dict(log=1, log2=1, exp=1, exp2=1, sin=1, cos=1, sqrt=1, abs=1, maximum=2, minimum=2, where=3)
_OPERATORS = {getattr(ast, a): (getattr(operator, o), getattr(np, u)) for a, o, u in map(str.split, (
    "Add add add", "Sub sub subtract", "Mult mul multiply", "Div truediv divide", "FloorDiv floordiv floor_divide",
    "Mod mod remainder", "Pow pow power", "USub neg negative", "UAdd pos positive", "Lt lt less", "LtE le less_equal",
    "Gt gt greater", "GtE ge greater_equal", "Eq eq equal", "NotEq ne not_equal"))}
_SCRATCH = threading.local()  # role -> the arrays of _scratch, one set for each thread


def _into(fn: Callable) -> Callable:
    """``fn`` that writes its value into ``out``, for an op without a ufunc."""
    return lambda *args, out: out.__setitem__(..., fn(*args))


def _scratch(role: str, k: int, n: int) -> list[np.ndarray]:
    """k arrays of n doubles, kept by this thread for ``role``'s next use (which may not overlap this one).

    They grow to the role's largest use, so a warm pass allocates nothing and takes no page fault.  Each
    starts a 64-byte line, which numpy's block-sized arrays do not, and ufuncs write faster (CHANGES.md)."""
    bufs = _SCRATCH.__dict__.setdefault(role, [])
    if k and (len(bufs) < k or len(bufs[0]) < n):
        raws = [np.empty(max([n, *map(len, bufs)]) + 7) for _ in range(max(k, len(bufs)))]
        bufs[:] = [raw[-(raw.ctypes.data // 8) % 8 :][: len(raw) - 7] for raw in raws]
    return [b[:n] for b in bufs[:k]]


class _Program:
    """f as ops over registers: x, the constants, then temporaries, each reused after its value's last use.

    ``values`` are x, constants ``("c", v)`` and ops ``("op", py, uf, args)`` over earlier values, each once.
    A call runs each ``py``, the Python operator or numpy function of the text, and drops each temporary at
    its last use; :meth:`into` runs the ufuncs ``uf``, the last into ``out``, the others into scratch."""

    def __init__(self, values=(("x",),)):
        self.values, self.index = list(values), {}  # index: the values added here, by key

    def add(self, v: tuple) -> int:
        """The index of v, or of an equal value added before (a common subexpression).  An op over
        constants alone is folded: run here by its ``py``, as Python would run the text, to a constant."""
        if v[0] == "op" and all(self.values[a][0] == "c" for a in v[3]):
            v = ("c", float(v[1](*(self.values[a][1] for a in v[3]))))
        if (key := ("c", v[1].hex()) if v[0] == "c" else (id(v[1]), v[3])) not in self.index:  # +0.0, -0.0 apart
            self.index[key] = len(self.values)
            self.values.append(v)
        return self.index[key]

    def done(self, root: int) -> "_Program":
        """This program with f at ``root``, each op given its registers."""
        if self.values[root][0] != "op":  # f is x or a constant: a new array of it
            fn = np.positive if root == 0 else np.full_like
            root = self.add(("op", fn, fn if root == 0 else _into(fn), (0,) if root == 0 else (0, root)))
        const = [i for i, v in enumerate(self.values) if v[0] == "c"]
        self.root, self.regs = root, [None] + [self.values[i][1] for i in const]
        reg, last = {i: r for r, i in enumerate([0] + const)}, {}
        for i, v in enumerate(self.values):
            last.update((a, i) for a in (v[3] if v[0] == "op" else ()))
        self.t0, free, self.ops = len(self.regs), [], []
        for i, (_, py, uf, args) in [(i, v) for i, v in enumerate(self.values[: root + 1]) if v[0] == "op"]:
            dying = {reg[a] for a in args if last[a] == i and reg[a] >= self.t0}
            free = sorted({*free, *dying})
            reg[i] = free.pop(0) if free else len(self.regs)
            self.regs += [None] * (reg[i] == len(self.regs))
            abc = (*(reg[a] for a in args), None, None)[:3]  # the registers of the args, padded to 3
            self.ops.append((py, uf, abc, reg[i], tuple(dying - {reg[i]})))
        return self

    def __call__(self, x):
        r = self.regs.copy()
        r[0] = np.asarray(x, dtype=float)
        for py, _, (a, b, c), dst, dead in self.ops:  # by arity: a call costs about what a lambda's does
            r[dst] = py(r[a]) if b is None else py(r[a], r[b]) if c is None else py(r[a], r[b], r[c])
            for d in dead:
                r[d] = None
        return r[dst]

    def into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """f at the points x written into ``out``, a float64 array of len(x), with the bits of ``f(x)``; returns out."""
        r, t0 = self.regs.copy(), self.t0
        r[0], bufs = x, _scratch("into", len(r) - t0 - 1, len(x))  # a new list: the root's register is out
        bufs.insert(self.ops[-1][3] - t0, out)
        for _, uf, args, dst, _ in self.ops:
            uf(*[r[a] for a in args if a is not None], out=bufs[dst - t0])
            r[dst] = bufs[dst - t0]
        return out

    def _then(self, py: Callable, uf: Callable, *args) -> "_Program":
        """The program of one op more, over f (None) and constants (floats)."""
        p = _Program(self.values)
        return p.done(p.add(("op", py, uf, tuple(self.root if a is None else p.add(("c", float(a))) for a in args))))

    def scaled(self, lam: float) -> "_Program":
        return self._then(operator.mul, np.multiply, lam, None)  # lam * f

    def shifted(self, c: float) -> "_Program":
        return self._then(operator.add, np.add, None, c)  # f + c


def _program(fn: Callable) -> _Program:
    """fn if it is a program, else the program of the one op that calls it."""
    return fn if isinstance(fn, _Program) else (p := _Program()).done(p.add(("op", fn, _into(fn), (0,))))


@functools.lru_cache(maxsize=256)
def compile_expr(expr: str, what: str) -> _Program:
    """The program of an expression in ``x``: ``f(x)`` is a new array, and ``f.into(x, out)`` writes f at x into out.

    The grammar: numbers, ``x``, ``pi``, ``e``; ``+ - * / // % **`` and unary ``+ -``; ``log log2 exp exp2
    sin cos sqrt abs`` of one argument, ``maximum`` and ``minimum`` of two, ``where(c, a, b)``, whose c alone
    may be one comparison (``< <= > >= == !=``).  Anything else (a subscript, an attribute, a keyword ...), a
    syntax error or a part without x that fails (``1/0``), which is evaluated once, here, is a ValueError
    naming the expression.  A call runs the text's operators and functions in its order, each common
    subexpression once, so it and ``into`` give the numpy expression's bits.  A text is compiled once.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except (SyntaxError, ValueError, RecursionError) as exc:  # a null byte, or nested too deeply
        raise ValueError(f"{what} expression {expr!r} is not valid: {getattr(exc, 'msg', exc)}") from None
    p = _Program()

    def walk(node: ast.AST, cond: bool = False) -> int:
        """The index of node's value in p; ``cond``: node is the first argument of where."""
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return p.add(("c", float(node.value)))
        if isinstance(node, ast.Name) and node.id in ("x", *_CONSTANTS):
            return p.add(("c", _CONSTANTS[node.id])) if node.id != "x" else 0
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            return p.add(("op", *_OPERATORS[type(node.op)], (walk(node.left), walk(node.right))))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _OPERATORS:
            return p.add(("op", *_OPERATORS[type(node.op)], (walk(node.operand),)))
        if cond and isinstance(node, ast.Compare) and len(node.ops) == 1 and type(node.ops[0]) in _OPERATORS:
            return p.add(("op", *_OPERATORS[type(node.ops[0])], (walk(node.left), walk(node.comparators[0]))))
        call = isinstance(node, ast.Call)
        name = getattr(node.func if call else node, "id", None)
        if call and name in _FUNCTIONS and not node.keywords and len(node.args) == _FUNCTIONS[name]:
            fn = getattr(np, name)  # checked: numpy would take one more argument as out, and write into it
            args = tuple(walk(a, fn is np.where and not i) for i, a in enumerate(node.args))
            return p.add(("op", fn, _into(fn) if fn is np.where else fn, args))
        why = (f"{name} takes {_FUNCTIONS[name]} argument(s) and no keyword" if call and name in _FUNCTIONS else
               f"unknown name {name!r}" if name else f"{ast.unparse(node)!r} is outside the grammar")
        raise ValueError(f"{what} expression {expr!r} is not valid: {why}")

    try:
        return p.done(walk(tree.body))
    except RecursionError:
        raise ValueError(f"{what} expression {expr!r} is not valid: it is nested too deeply") from None
    except (ArithmeticError, TypeError) as exc:  # a part without x, or a number no double holds
        raise ValueError(f"{what} expression {expr!r} failed: {exc}") from None


def from_expression(expr: str) -> EFunction:
    """Closed-form function of ``x`` (see :func:`compile_expr`) of class E, described by ``expr``."""
    return EFunction("expression", compile_expr(expr, "function"), "E", expr)


def from_csv(path: str | Path) -> EFunction:
    """Sampled function from a CSV file with header ``x,f``.

    Rows must be strictly decreasing in x with all x > 0.  Evaluation
    interpolates linearly in (log x, f), matching the multiplicative
    structure of the grid, and raises outside the sampled range.
    """
    path = Path(path)
    reader = csv.reader(io.StringIO(path.read_text()))  # each row with the number of the line it ends on
    rows = ((reader.line_num, row) for row in reader if row and any(cell.strip() for cell in row))
    if (first := next(rows, None)) is None:
        raise ValueError(f"{path}: empty CSV")
    header = [cell.strip().lower() for cell in first[1]]
    if header[:2] != ["x", "f"]:
        raise ValueError(f"{path}: expected header 'x,f', got {first[1]!r}")
    xs, fs = [], []
    for lineno, row in rows:
        if len(row) < 2:
            raise ValueError(f"{path}:{lineno}: need two columns")
        try:
            xv, fv = float(row[0]), float(row[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row {row!r}") from exc
        if not (math.isfinite(xv) and math.isfinite(fv)):
            raise ValueError(f"{path}:{lineno}: non-finite value in row {row!r}")
        if xv <= 0:
            raise ValueError(f"{path}:{lineno}: x must be positive, got {xv!r}")
        if xs and xv >= xs[-1]:
            raise ValueError(f"{path}:{lineno}: x column must be strictly decreasing")
        xs.append(xv)
        fs.append(fv)
    if len(xs) < 2:
        raise ValueError(f"{path}: need at least two samples")
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
        f"csv:{path}",
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
    ``ahead`` the block after it (two in turn), or the next pass.

    The domain of f is checked once, against the first and last nodes; then
    f runs on each block, so f must be elementwise: its value at x may not
    depend on the other points of the array.  ``source(lo, x, out)`` writes f
    at x = x_lo .. into a block's buffer (the thread's ``_scratch``), by default
    :meth:`EFunction.into`.  A non-finite value is reported after the last
    block, so every block is evaluated first.  NaN and +-inf survive max and
    min, so only a block whose envelopes are not finite is searched node by
    node for its first non-finite value.
    """
    nodes = _Nodes(g.samples_per_octave, g.octave_max) if nodes is None else nodes
    n, step = len(nodes), len(nodes.head) - 1
    f._check_domain(nodes[-1], nodes[0])
    xbufs = [b[7:] for b in _scratch("nodes", 1 + ahead, step + 8)]  # x[1:] and v[1:] start a cache line
    bufs = None if fv is not None else [b[7:] for b in _scratch("values", 1 + ahead, step + 8)]
    source, bad = source or (lambda _, x, out: f.into(x, out)), None
    for lo in range(0, n - 1, step):
        hi = min(lo + step, n - 1) + 1
        x = nodes.span(lo, xbufs[lo // step % len(xbufs)][: hi - lo])
        v = fv[lo:hi] if bufs is None else bufs[lo // step % len(bufs)][: hi - lo]
        if lo:
            v[0] = end  # the end node of the previous block
        new = v[1:] if lo else v
        try:
            with np.errstate(all="ignore"):  # non-finite results become DomainError below
                source(hi - len(new), x[len(v) - len(new) :], new)
        except DomainError:
            raise
        except Exception as exc:  # f's own error, such as an EFunction's fn that raises
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
    value at the tail horizon 2^20 (``_TAIL_OCTAVES``) should be small.  Streams f
    over ``fit_grid(f, g)`` for its octave envelopes; ``classify`` passes
    the envelopes of f from its own pass to the same check instead.
    """
    try:
        fg = fit_grid(f, g)
        envelopes = [env for *_, env in _octave_blocks(f, fg)]
    except DomainError as exc:
        return [f"could not sample for diagnosis: {exc}"]
    sups, mins = (np.concatenate(e) for e in zip(*envelopes))
    return _diagnose_envelopes(f, sups, mins)


def _diagnose_envelopes(f: EFunction, sups: np.ndarray, mins: np.ndarray) -> list[str]:
    """The checks of :func:`diagnose_class` on the octave envelopes of ``f`` on a grid."""
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
        horizon = abs(f(2.0**_TAIL_OCTAVES))
        if horizon > 0.01 * (1.0 + abs(f(1.0))):
            warnings.append(f"class E0 suspect: |f(2^{_TAIL_OCTAVES})| = {horizon:.6g} is not small")
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
