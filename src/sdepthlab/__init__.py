"""sdepthlab: exact depth / Stanley depth / Hilbert depth laboratory
for quotients I/J of squarefree monomial ideals at desk scale (n <= 16).

Exact Stanley-depth search stops at the Hilbert depth hdepth1, so sdepth of
the maximal ideals m_8 .. m_12 takes at most 0.21 CPU s.  Deciding
k = hdepth1 itself can still stall from n = 9 on: 5 of 60 random pairs at
n = 9, 10 (5 generators of degree <= 3, seed 99: n=9 #23, n=10 #10, #14,
#23, #27) take over 1.25 s each."""

from .monomials import (
    AmbientMismatchError,
    EmptyQuotientError,
    Ideal,
    InputError,
    Monomial,
    QuotientPair,
    SUPPORTED_CHARS,
    colon_pair,
    ideal_sum,
    intersect,
    minimalize,
    parse_monomial,
)
from .poset import PosetView, StrataReport, poset_view, strata
from .depth import DepthResult, depth
from .reisner import reisner_depth_oracle
from .sdepth import (
    Interval,
    Partition,
    SdepthResult,
    sdepth,
    sdepth_decide,
    verify_partition,
)
from .hilbert import HdepthResult, HilbertSeries, hdepth1, herzog_question, hilbert_series
from .engines import EngineCache
from .verdicts import (
    AuditReport,
    Verdict,
    bounds_report,
    consistency_audit,
    inconsistencies,
    stanley_observation,
)
from .surgery import (
    DriverFailure,
    HMap,
    Path,
    PathSearch,
    SurgeryError,
    SurgeryOutcome,
    build_h,
    build_reduced_pair,
    find_paths,
    ml1_candidate_bs,
    ml1_driver,
    normalize_partition,
    rotate,
    swap_into_generator,
    verify_outcome,
)
from .io import ParseError, load_pair, parse_input, serialize_pair
from .corpus import CorpusReport, run_corpus
from .fuzz import FuzzConfig, FuzzReport, run_fuzz

__all__ = [
    "AuditReport",
    "CorpusReport",
    "DriverFailure",
    "EngineCache",
    "FuzzConfig",
    "FuzzReport",
    "HMap",
    "ParseError",
    "Path",
    "PathSearch",
    "SurgeryError",
    "SurgeryOutcome",
    "Verdict",
    "bounds_report",
    "build_h",
    "build_reduced_pair",
    "consistency_audit",
    "find_paths",
    "inconsistencies",
    "load_pair",
    "ml1_candidate_bs",
    "ml1_driver",
    "normalize_partition",
    "parse_input",
    "rotate",
    "run_corpus",
    "run_fuzz",
    "serialize_pair",
    "stanley_observation",
    "swap_into_generator",
    "verify_outcome",
    "AmbientMismatchError",
    "DepthResult",
    "EmptyQuotientError",
    "HdepthResult",
    "HilbertSeries",
    "Ideal",
    "InputError",
    "Interval",
    "Monomial",
    "Partition",
    "PosetView",
    "QuotientPair",
    "SdepthResult",
    "StrataReport",
    "SUPPORTED_CHARS",
    "colon_pair",
    "depth",
    "hdepth1",
    "herzog_question",
    "hilbert_series",
    "ideal_sum",
    "intersect",
    "minimalize",
    "parse_monomial",
    "poset_view",
    "reisner_depth_oracle",
    "sdepth",
    "sdepth_decide",
    "strata",
    "verify_partition",
]
