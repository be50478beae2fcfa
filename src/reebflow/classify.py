"""Verdicts: is a transition-time profile that of the standard flow?

The invariant sigma vanishes exactly on the standard class, but a finite
grid cannot certify a limit, so the verdict uses two fixed thresholds,
tau_std = 1e-3 and tau_ns = 0.1 (``_TAU_STD``, ``_TAU_NS``; no caller sets
them), with an explicit inconclusive band:

    standard       sigma_hat, the supremum over the deep half of the grid,
                   is < tau_std and the trend is vanishing: no oscillation
                   is resolved there
    nonstandard    the supremum over the final 8 octaves is >= tau_ns: an
                   oscillation lasts to the end of the grid
    inconclusive   anything between

An oscillation whose period is longer than half the grid cannot be seen,
and a sigma = 0 profile whose star decays like 1/u can read "nonstandard".

``self_similarity_scan`` checks supplied witnesses lam * f = f o h + k; it
never searches for h.  Passing every supplied witness is necessary but not
sufficient for standardness: a single scale can be exactly self-similar on
a profile whose oscillation still blows up, and the scan report says so
when it happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .efunc import EFunction, GridSpec, _diagnose_envelopes, _Nodes
from .flow import DEFAULT_TRANSVERSAL, Flow, Transversal, _held_source, extract_transition
from .oscillation import (
    EquivalenceWitness,
    SigmaEstimate,
    WitnessReport,
    _TAIL_WINDOW,
    _profile_pass,
    _WitnessFold,
    _sigma_from_sups,
)

__all__ = [
    "ClassificationReport",
    "ScanReport",
    "classify",
    "self_similarity_scan",
    "flow_classify",
]

_TAU_STD, _TAU_NS = 1e-3, 1e-1  # the verdict thresholds


@dataclass(frozen=True)
class ClassificationReport:
    sigma: SigmaEstimate
    verdict: str  # "standard" | "nonstandard" | "inconclusive"
    shifts: dict
    provenance: str
    warnings: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "sigma_hat": float(self.sigma.sigma_hat),
            "trend": self.sigma.trend,
            "s_m": [float(v) for v in self.sigma.s_m],
            "shifts": self.shifts,
            "provenance": self.provenance,
            "tau_std": _TAU_STD,
            "tau_ns": _TAU_NS,
            "warnings": list(self.warnings),
        }


def classify(f: EFunction, g: GridSpec) -> ClassificationReport:
    """Verdict from the sigma estimate, with the class-diagnosis warnings.

    f is evaluated on g once, in one streaming pass that gives the octave
    envelopes of f, for the checks of ``diagnose_class``, and of the star
    profile, for sigma.  The verdict follows the module's table: "standard"
    reads ``sigma_hat``, over the deep half of the grid, "nonstandard" the
    final ``_TAIL_WINDOW`` (8) octaves, and an "inconclusive" that those 8
    alone would call "standard" warns with the octave that set sigma_hat.
    No sample of f or of the profile is held.  The provenance is ``f.kind``;
    shifts are left empty.
    """
    sigma, verdict, warnings = _classify_pass(f, g)
    return ClassificationReport(sigma, verdict, {}, f.kind, warnings)


def _classify_pass(
    f: EFunction, g: GridSpec, folds: Sequence[_WitnessFold] = (), source=None
) -> tuple[SigmaEstimate, str, tuple[str, ...]]:
    """The sigma estimate, verdict and warnings of one pass of f, or ``source``, over g, which feeds ``folds``."""
    (f_sups, f_mins), sups = _profile_pass(f, g, "star", folds=folds, source=source)
    warnings = tuple(_diagnose_envelopes(f, f_sups, f_mins))
    sigma = _sigma_from_sups("star", sups)
    tail = float(np.max(sups[-_TAIL_WINDOW:]))
    if tail >= _TAU_NS:
        verdict = "nonstandard"
    elif sigma.sigma_hat < _TAU_STD and sigma.trend == "vanishing":
        verdict = "standard"
    else:
        verdict = "inconclusive"
        if tail < _TAU_STD and sigma.trend == "vanishing":
            m = len(sups) // 2 + int(np.argmax(sups[len(sups) // 2 :]))
            warnings += (f"sigma_hat = {sigma.sigma_hat:.6g}, set at octave {m} of the deep half of the "
                         f"grid, is not below tau_std = {_TAU_STD:g}: the final {_TAIL_WINDOW} octaves "
                         "alone would read standard",)
    return sigma, verdict, warnings


@dataclass(frozen=True)
class ScanReport:
    results: tuple[WitnessReport, ...]
    all_passed: bool
    verdict: str
    note: str


def self_similarity_scan(
    f: EFunction,
    witnesses: Sequence[EquivalenceWitness],
    g: GridSpec,
) -> ScanReport:
    """Check each supplied witness lam * f = f o h + k and relate to the verdict.

    Each witness walks h over the grid first.  Then f is evaluated on g
    once, in the pass of ``classify``, which feeds each block of f to the
    fold of ``check_witness`` for every witness: under ``halve`` f and h run
    again only at the last K nodes' images, under ``root_scale:2`` f at the
    images off their nodes and past the grid's end (45% at K = 16384).
    No array the size of the grid is held.  Each witness is gated at 1e-9,
    and the verdict is that of ``classify``.  An empty ``witnesses`` is a
    ValueError before h or f runs.  An h or k that raises does so before a
    non-finite f, which the pass reports after its last block.
    """
    if not witnesses:
        raise ValueError("witnesses is empty: the scan needs at least one witness to check")
    nodes, folds = _Nodes(g.samples_per_octave, g.octave_max), []
    for w in witnesses:  # the folds share the nodes' head and one scratch: they fold a block in turn
        folds.append(_WitnessFold(f, w, nodes, "self_similarity", folds[0].rows if folds else None))
    _, verdict, _ = _classify_pass(f, g, folds)
    results = tuple(fold.report() for fold in folds)
    all_passed = all(r.passed for r in results)
    if all_passed and verdict == "standard":
        note = "all supplied scales pass and the profile is standard"
    elif all_passed and verdict == "nonstandard":
        note = (
            "all supplied scales pass yet the profile is nonstandard: a finite "
            "witness list does not certify self-similarity at every scale"
        )
    elif not all_passed and verdict == "nonstandard":
        note = "witness failures are consistent with the nonstandard verdict"
    else:
        note = "witness failures on a standard/inconclusive profile: check the supplied h and k"
    return ScanReport(results, all_passed, verdict, note)


def flow_classify(
    F: Flow,
    tv: Transversal = DEFAULT_TRANSVERSAL,
    g: GridSpec | None = None,
) -> ClassificationReport:
    """Classify the transition time extracted from F, with provenance "extracted-from-flow"; on F's build grid,
    through the default transversal, the pass reads the target F holds by node index (``_held_source``)."""
    g = g or GridSpec()
    source = _held_source(F, g) if tv.is_default else None
    sigma, verdict, warnings = _classify_pass(extract_transition(F, g, tv), g, source=source)
    shifts = {"flow_shift": float(F.shift), "time_factor": float(F.lam)}
    return ClassificationReport(sigma, verdict, shifts, "extracted-from-flow", warnings)
