"""The calculus the star functional obeys, checked on a grid: plain functions the tests call.

    scaling       star(lam f) = lam star(f), node-exact to roundoff
    shift         star(f + c) = star(f), node-exact
    pushforward   star(f o h) = star(f) o h below a threshold a in (0, 1],
                  a located by the smallest node at which the running max of
                  f o h first dominates the head max(f on [h(1), 1])
    perturbation  the gap |star(f + k) - star(f)| over the last ``window``
                  octaves stays below its supremum over the octaves before
                  them (vacuously at roundoff)
    zeros         in every window of ``window`` octaves the minimum of star
                  falls below 1e-6 * (1 + window supremum)

Each check returns a dict of its numbers and ``passed``.  A 1-octave window
is stricter than what class E guarantees: f diverges at 0, so star has zeros
arbitrarily close to 0, but they need not fall in every octave.  A window at
least as long as the profile's longest gap between zeros, e.g. one full period
for an oscillating profile (2 pi / ln 2 ~ 9.06 octaves for bounded_osc), holds one.
"""

import math

import numpy as np

from reebflow import star_profile
from reebflow.oscillation import as_shift

EXACT_RTOL = 1e-12


def octave_slice(g, m):
    """The indices of the nodes of g in the window [2^-(m+1), 2^-m], both ends in: a reference for
    ``GridSpec.octave_windows`` that does not read it."""
    K = g.samples_per_octave
    return slice(m * K, m * K + K + 1)


def suite(f, lam, c, h, k, g, window=1):
    """The five checks by name, on one star profile of f."""
    base = star_profile(f, g)
    return {
        "scaling": scaling(f, lam, g, base),
        "shift": shift(f, c, g, base),
        "pushforward": pushforward(f, h, g, base),
        "perturbation": perturbation(f, k, g, base, window),
        "zeros": zeros(base, window),
    }


def scaling(f, lam, g, base):
    scaled = star_profile(f.scaled(lam), g)
    scale = np.maximum(1.0, lam * np.maximum(np.abs(base.f_values), np.abs(np.maximum.accumulate(base.f_values))))
    dev = float(np.max(np.abs(scaled.values - lam * base.values) / scale))
    return {"passed": dev <= EXACT_RTOL, "max_rel_dev": dev, "lam": lam}


def shift(f, c, g, base):
    shifted = star_profile(f.shifted(c), g)
    scale = np.maximum(1.0, np.abs(base.f_values) + abs(c))
    dev = float(np.max(np.abs(shifted.values - base.values) / scale))
    return {"passed": dev <= EXACT_RTOL, "max_rel_dev": dev, "c": c}


def pushforward(f, h, g, base):
    x = g.nodes()
    h1 = float(h(1.0))
    if h1 > 1.0 + 1e-15:
        return {"passed": False, "note": f"h(1) = {h1:g} > 1; threshold search needs h(1) <= 1"}
    runmax_w = np.maximum.accumulate(np.asarray(f(np.asarray(h(x), dtype=float)), dtype=float))
    # head: the part of [h(x), 1] that the composed samples never see
    head_nodes = base.f_values[x >= h1]
    head = float(max(head_nodes.max() if head_nodes.size else -math.inf, float(f(h1))))
    crossed = runmax_w >= head - EXACT_RTOL * max(1.0, abs(head))
    if not bool(crossed.any()):
        return {"passed": False, "a": None, "head": head}
    i_star = int(np.argmax(crossed))
    # below a: max(f on [h(x), 1]) equals max(f on [h(x), h(1)]), so the
    # pushforward identity holds node for node; require at least two octaves
    octaves_below = (len(x) - 1 - i_star) / g.samples_per_octave
    return {"passed": octaves_below >= 2.0, "a": float(x[i_star]), "head": head, "octaves_below_a": octaves_below}


def perturbation(f, k, g, base, window):
    # the gap at x is carried by k at the last record of f above x, which can
    # lag x by a whole zero-free stretch: compare window suprema, not octaves
    pert = star_profile(f.plus(as_shift(k)), g)
    d_m = g.octave_envelopes(np.abs(pert.values - base.values))[0]
    d_early = float(np.max(d_m[:-window], initial=0.0))
    d_late = float(np.max(d_m[-window:]))
    # "shrinks toward 0": strict decay, or vacuously already at roundoff
    passed = (d_late < d_early) or (d_late <= 1e-12)
    return {"passed": passed, "window_octaves": int(window), "d_early": d_early, "d_late": d_late}


def zeros(base, window):
    sups, mins = base.octave_sup, base.grid.octave_envelopes(base.values)[1]
    violations = [
        m for m in range(len(sups) - window + 1)
        if float(np.min(mins[m : m + window])) > 1e-6 * (1.0 + float(np.max(sups[m : m + window])))
    ]
    return {"passed": not violations, "window_octaves": int(window), "violating_octaves": violations}
