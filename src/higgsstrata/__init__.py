"""Exact-arithmetic stratification calculator for rank-2 and rank-3
Higgs bundle moduli: Harder-Narasimhan strata, downward-flow fixed
points, the limit classification connecting them, and an independent
gauge-scaling verification engine."""

from .admissibility import (
    AdmissibilityError,
    AdmissibleStratum,
    CaseFamily,
    InvariantRange,
    Rank2BoundViolated,
    Rank3BoundViolated,
    RankUnsupported,
    enumerate_strata,
    invariant_range,
)
from .core import (
    CaseTag,
    Genus,
    HNType,
    InvalidGenus,
    InvalidHNType,
    HodgeBundle,
    LimitOutcome,
    PolystableSum,
    StrataError,
    dominates,
    format_hn_type,
    format_label,
    parse_hn_steps,
    parse_hn_type,
    polygon_of,
)
from .fixed_points import (
    MInvariants,
    NoIntegerSolution,
    enumerate_fixed_111,
    enumerate_fixed_components,
    enumerate_m_invariants,
    l_to_m,
    m_to_l,
    validate_fixed_111,
)
from .incidence import (
    IncidenceRow,
    IncidenceTable,
    build_table,
    table_to_csv,
    table_to_dot,
    table_to_records,
)
from .limit_classifier import (
    AlignmentImpossible,
    CaseFamilyMismatch,
    ClassificationError,
    ClassifierInput,
    InfeasibleBySpecialization,
    InvalidInvariant,
    Invariant,
    SlopeOutOfBounds,
    classify,
    classify_rank3,
    classify_stratum,
    feasible_inputs,
    stability_audit,
)
from .matrix_oracle import (
    BlockPattern,
    LimitPattern,
    oracle_check,
    scale_exponents,
    take_limit,
)

__version__ = "0.1.0"
