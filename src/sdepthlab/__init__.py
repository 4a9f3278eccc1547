"""sdepthlab: exact depth / Stanley depth / Hilbert depth laboratory
for quotients I/J of squarefree monomial ideals at desk scale (n <= 16).

Exact Stanley-depth search stops at the Hilbert depth hdepth1 and runs on
the variables the generators use, adding one per variable left out, so
sdepth of the maximal ideals m_8 .. m_12 takes at most 0.14 CPU s and all
90 random pairs at n = 8..10 of perfbench's sdepth_hard pool take 0.65 CPU s
together.  Pairs whose generators use every variable can still stall from
n = 9 on (6 generators of degree <= 4, seed 7: n=9 #39, n=10 #321, #338
each run past 5 s)."""

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
