"""Computable conjugacy invariants for flows with hyperbola orbit foliation.

The package goes both ways between flows on the punctured quarter plane and
their transition-time invariants:

- realize a prescribed transition-time function as a flow (exact, leafwise
  closed-form integration) and extract the function back out;
- measure the oscillation profile and the sigma invariant that vanishes
  exactly on the standard class;
- solve the self-similarity relation lam * f = f o h + k for its exact
  solution by a Koenigs-style iteration;
- classify profiles as standard / nonstandard / inconclusive, with witness
  verification and time-scaling laws.
"""

from .classify import ClassificationReport, ScanReport, classify, flow_classify, self_similarity_scan
from .efunc import (
    BUILTIN_NAMES,
    EFunction,
    GridSpec,
    builtin,
    diagnose_class,
    from_csv,
    from_expression,
    sample,
)
from .errors import ConvergenceFailure, DomainError, TailCheckError, ToleranceFailure
from .flow import (
    DEFAULT_TRANSVERSAL,
    Flow,
    QuarterPlanePoint,
    Transversal,
    build_flow,
    extract_transition,
    flow_from_json,
    flow_step,
    flow_to_json,
    standard_flow,
    standard_step,
    time_scale,
    transition_time,
)
from .homeo import (
    BasinReport,
    Homeo,
    basin_of_zero,
    gallery_homeo,
    homeo_from_expression,
)
from .linearize import LinearizeConfig, LinearizeResult, koenigs_limit
from .oscillation import (
    EquivalenceWitness,
    OscillationProfile,
    SigmaEstimate,
    WitnessReport,
    check_witness,
    sharp_profile,
    sigma_estimate,
    star_profile,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "BasinReport",
    "ClassificationReport",
    "ConvergenceFailure",
    "DEFAULT_TRANSVERSAL",
    "DomainError",
    "EFunction",
    "EquivalenceWitness",
    "Flow",
    "GridSpec",
    "Homeo",
    "LinearizeConfig",
    "LinearizeResult",
    "OscillationProfile",
    "QuarterPlanePoint",
    "ScanReport",
    "SigmaEstimate",
    "TailCheckError",
    "ToleranceFailure",
    "Transversal",
    "WitnessReport",
    "basin_of_zero",
    "build_flow",
    "builtin",
    "check_witness",
    "classify",
    "diagnose_class",
    "extract_transition",
    "flow_classify",
    "flow_from_json",
    "flow_step",
    "flow_to_json",
    "from_csv",
    "from_expression",
    "gallery_homeo",
    "homeo_from_expression",
    "koenigs_limit",
    "sample",
    "self_similarity_scan",
    "sharp_profile",
    "sigma_estimate",
    "standard_flow",
    "standard_step",
    "star_profile",
    "time_scale",
    "transition_time",
]
