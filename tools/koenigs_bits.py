"""Print one hash per Koenigs linearization case: the bits of its answer and of its read-outs.

The cases are each gallery profile f under square and halve (lam = 2), pow:3
(lam = 3) and pow:20 (lam = 20) with the derived shift lam*f - f o h, then
two explicit shifts: koenigs_demo under square with k = 2x/(1+x) -
x^2/(1+x^2), and doubling_osc + 1 under halve with k = 1 (lam = 2 both).
Each runs on the grids (4096, 60), (512, 40), (64, 24), (2048, 20) and
(4096, 52).  A case's hash covers ``koenigs_limit``'s ``to_json()``, the
probes, ``f_inf`` at the probes, at ``h(probes)``, at ``probes[::3]`` and at
a copy of the probes, and ``telescoping_bound(probes[::7])``.

Prints one line per case, ``<sha256>  <case>``; a case that raises prints
``error  <exception>  <case>`` instead.  The package is read from ``--src``
(default: this checkout's ``src``), so checking that two checkouts give
the same bits is one command:

    diff <(python tools/koenigs_bits.py --src OTHER/src) <(python tools/koenigs_bits.py)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GALLERY = ("std_log", "doubling_osc", "bounded_osc", "koenigs_demo")
HOMEOS = (("square", 2.0), ("halve", 2.0), ("pow:3", 3.0), ("pow:20", 20.0))
GRIDS = ((4096, 60), (512, 40), (64, 24), (2048, 20), (4096, 52))


def koenigs_demo_shift(x):
    """koenigs_demo's shift under square: 2 f - f o h = 2x/(1+x) - x^2/(1+x^2)."""
    x = np.asarray(x, dtype=float)
    return 2.0 * x / (1.0 + x) - x * x / (1.0 + x * x)


def cases(rf, grids=GRIDS):
    """(label, call) for every case on ``grids``; ``call()`` returns the result and its h."""
    for K, M in grids:
        g = rf.GridSpec(K, M)

        def run(f, hid, k, lam, g=g):
            h = rf.gallery_homeo(hid)
            return rf.koenigs_limit(f(), h, k, rf.LinearizeConfig(lam, g)), h

        for name in GALLERY:
            for hid, lam in HOMEOS:
                yield f"{name}/{hid} lam {lam:g} @ {K},{M}", lambda n=name, h=hid, lam=lam: run(
                    lambda: rf.builtin(n), h, None, lam)
        yield f"koenigs_demo/square k 2x/(1+x) - x^2/(1+x^2) @ {K},{M}", lambda: run(
            lambda: rf.builtin("koenigs_demo"), "square", koenigs_demo_shift, 2.0)
        yield f"doubling_osc+1/halve k 1 @ {K},{M}", lambda: run(
            lambda: rf.builtin("doubling_osc").shifted(1.0), "halve", 1.0, 2.0)


def digest(res, h) -> str:
    """The sha256 of the result's JSON and of the arrays its read-outs give."""
    sha = hashlib.sha256(json.dumps(res.to_json(), sort_keys=True).encode())
    p = res.probes
    for a in (p, res.f_inf(p), res.f_inf(h(p)), res.f_inf(p[::3]), res.f_inf(p.copy()),
              res.telescoping_bound(p[::7])):
        sha.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return sha.hexdigest()


def bits_lines(rf, grids=GRIDS) -> list[str]:
    lines = []
    for label, call in cases(rf, grids):
        try:
            lines.append(f"{digest(*call())}  {label}")
        except Exception as exc:  # each case reports its own failure and the list goes on
            lines.append(f"error  {type(exc).__name__}: {exc}  {label}")
    return lines


def cli(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the reebflow package")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import reebflow as rf

    print("\n".join(bits_lines(rf)))
    return 0


if __name__ == "__main__":
    sys.exit(cli())
