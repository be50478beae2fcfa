"""Print the verdict and sigma_hat of the gallery under changes of time and transversal.

One line per case, ``<verdict>  <sigma_hat repr>  <case>``, for each gallery
profile f composed with h in {none, pow:0.25, pow:0.5, pow:2, halve, square,
root_scale:4}, plus k in {0, 1.0, x/(1+x)}, at K = 512 and octave_max in
{30, 40, 50, 60}; then for ``u + (1+3/u) sin u`` (u = ln(1/x), sigma = 0 with
a star drop that decays like 1/u) at the same grid ends.  A case that raises
prints ``error  <exception>  <case>`` instead.  f o h + k is in the class of
f, so a verdict that differs along a row of h and k is the estimate's, not
the profile's.

The package is read from ``--src`` (default: this checkout's ``src``), so
comparing two checkouts' verdicts is one command:

    diff <(python tools/verdict_matrix.py --src OTHER/src) <(python tools/verdict_matrix.py)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GALLERY = ("std_log", "doubling_osc", "bounded_osc", "koenigs_demo")
HOMEOS = (None, "pow:0.25", "pow:0.5", "pow:2", "halve", "square", "root_scale:4")


def x_over_1_plus_x(x):
    return x / (1.0 + x)


SHIFTS = {"0": None, "1.0": 1.0, "x/(1+x)": x_over_1_plus_x}
ENDS = (30, 40, 50, 60)
SLOW = "-log(x) + (1 + 3/maximum(-log(x), 1e-300))*sin(-log(x))"  # finite at x = 1, where u = 0


def cases(rf):
    """(label, f) for every case, f built lazily so that a bad case fails as its own line."""
    for name in GALLERY:
        for hid in HOMEOS:
            for kid, k in SHIFTS.items():
                def make(name=name, hid=hid, kid=kid, k=k):
                    f = rf.builtin(name)
                    if hid is not None:
                        f = f.composed(rf.gallery_homeo(hid), hid)
                    if k is None:
                        return f
                    return f.shifted(k) if isinstance(k, float) else f.plus(k, kid)

                yield f"{name} o {hid or 'id'} + {kid}", make
    yield "u + (1+3/u) sin u", lambda: rf.from_expression(SLOW)


def matrix_lines(rf) -> list[str]:
    lines = []
    for label, make in cases(rf):
        for M in ENDS:
            case = f"{label} @ 512,{M}"
            try:
                rep = rf.classify(make(), rf.GridSpec(512, M))
            except Exception as exc:  # each case reports its own failure and the matrix goes on
                lines.append(f"error  {type(exc).__name__}: {exc}  {case}")
                continue
            lines.append(f"{rep.verdict}  {rep.sigma.sigma_hat!r}  {case}")
    return lines


def cli(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the reebflow package")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import reebflow as rf

    print("\n".join(matrix_lines(rf)))
    return 0


if __name__ == "__main__":
    sys.exit(cli())
