"""Total decision procedure for downward C*-flow limits.

Given an admissible stratum and its auxiliary invariant -- the slope of
the line bundle I inside E/E1, the slope of the line bundle N inside E2,
or the alignment flag when both are pinned -- produce the limiting Hodge
bundle of (E, z*Phi) as z -> 0: case tag, fixed-component label, graded
degrees and the HN type of the limit.  All comparisons are exact; the
thresholds involve thirds, so rounding anywhere would misclassify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .admissibility import AdmissibleStratum, CaseFamily, invariant_range
from .core import (
    CaseTag,
    HNType,
    LimitOutcome,
    Min,
    PolystableSum,
    Rank2,
    StrataError,
    Type12,
    Type21,
    Type111,
    coupled_summand,
    format_rational,
    line_summand,
)


class ClassificationError(StrataError):
    """The classifier refused the input; the message names the reason."""


class InfeasibleBySpecialization(ClassificationError):
    """Invariant strictly inside the excluded gap: the limit's HN polygon
    would fail to rise under specialization."""


class SlopeOutOfBounds(ClassificationError):
    """Invariant outside the a-priori bounds on mu(I) or mu(N)."""


class CaseFamilyMismatch(ClassificationError):
    """Invariant kind does not match the stratum's case family."""


class AlignmentImpossible(ClassificationError):
    """Aligned(False) needs a nonzero map E1 -> (E/E2) (x) K, which forces
    mu1 - mu3 <= 2g-2."""


def _require_integer(value) -> int:
    # I and N are line bundles; their slopes are honest integers.
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    raise ValueError(f"slope invariant must be an integer, got {value!r}")


@dataclass(frozen=True)
class SlopeI:
    """Slope (= degree) of the line bundle I in E/E1 saturating Phi(E1)."""

    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _require_integer(self.value))


@dataclass(frozen=True)
class SlopeN:
    """Slope (= degree) of the line bundle N = ker(E2 -> (E/E2) (x) K)."""

    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _require_integer(self.value))


@dataclass(frozen=True)
class Aligned:
    """Whether N = E1 (equivalently I = E2/E1) in the balanced case."""

    flag: bool


@dataclass(frozen=True)
class NotApplicable:
    """Placeholder for strata whose limit needs no auxiliary datum."""


InvariantDatum = Union[SlopeI, SlopeN, Aligned, NotApplicable]


@dataclass(frozen=True)
class ClassifierInput:
    stratum: AdmissibleStratum
    invariant: InvariantDatum


def case1_threshold(stratum: AdmissibleStratum) -> Fraction:
    """Slope threshold t = -mu1/3 + 2*mu2/3 + 2*mu3/3 separating the
    type-(1,2) limits from the type-(1,1,1) limits in case family 1."""
    return Fraction(stratum.threshold6, 6)


def classify_semistable(stratum: AdmissibleStratum) -> LimitOutcome:
    """Semistable underlying bundle: the Higgs field flows to zero."""
    if not stratum.is_semistable:
        raise ClassificationError(f"{stratum.hn} is not a semistable type")
    hn = stratum.hn
    return LimitOutcome(
        case_tag=CaseTag.SEMISTABLE,
        component=Min(hn.total_rank, hn.total_degree),
        graded_degrees=(hn.total_degree,),
        hnt_limit=hn,
        strictly_polystable=False,
    )


def classify_rank2(stratum: AdmissibleStratum) -> LimitOutcome:
    """Unstable rank 2: the limit couples the destabilizing line into the
    quotient, and the associated graded bundle is unchanged."""
    if stratum.hn.total_rank != 2:
        raise ClassificationError(f"{stratum.hn} is not a rank-2 type")
    if stratum.is_semistable:
        raise ClassificationError(
            f"{stratum.hn} is semistable; use classify_semistable"
        )
    d1 = stratum.hn.steps[0][1]
    d = stratum.hn.total_degree
    return LimitOutcome(
        case_tag=CaseTag.RANK2,
        component=Rank2(d1),
        graded_degrees=(d1, d - d1),
        hnt_limit=stratum.hn,
        strictly_polystable=False,
    )


def _classify_case1(stratum: AdmissibleStratum, v: int) -> LimitOutcome:
    # Integer comparisons of 6*v with the slopes scaled by 6; Fraction
    # values are built only for refusal messages.
    m1, m2, m3 = stratum.mu6_vector
    v6 = 6 * v
    k = stratum.genus.canonical_degree
    d = stratum.hn.total_degree
    d1 = stratum.hn.steps[0][1]  # E1 is a line bundle here
    if v6 > m2:
        mu2 = stratum.mu_vector[1]
        raise SlopeOutOfBounds(f"mu(I) = {v} > mu2 = {format_rational(mu2)}")
    if m3 < v6 < m2:
        _, mu2, mu3 = stratum.mu_vector
        raise InfeasibleBySpecialization(
            f"mu(I) = {v} lies strictly between mu3 = {format_rational(mu3)} "
            f"and mu2 = {format_rational(mu2)}"
        )
    if v6 == m2 and m2 > m3:
        # I is the maximal destabilizing line of E/E1, so I = E2/E1.
        degrees = (m1 // 6, m2 // 6, m3 // 6)
        return LimitOutcome(
            case_tag=CaseTag.C1_4,
            component=Type111(*degrees),
            graded_degrees=degrees,
            hnt_limit=stratum.hn,
            strictly_polystable=False,
        )
    if v6 < m1 - 6 * k:
        mu1 = stratum.mu_vector[0]
        raise SlopeOutOfBounds(
            f"mu(I) = {v} < mu1 - (2g-2) = {format_rational(mu1 - k)}"
        )
    t6 = stratum.threshold6
    if v6 < t6:
        return LimitOutcome(
            case_tag=CaseTag.C1_1,
            component=Type12(d1, d - d1),
            graded_degrees=(d1, d - d1),
            hnt_limit=stratum.hn,
            strictly_polystable=False,
        )
    qdeg = d - d1 - v  # degree of Q = (E/E1)/I
    if v6 == t6:
        return LimitOutcome(
            case_tag=CaseTag.C1_2,
            component=PolystableSum((coupled_summand(d1, v), line_summand(qdeg))),
            graded_degrees=(d1, v, qdeg),
            hnt_limit=HNType(((1, d1), (1, qdeg), (1, v))),
            strictly_polystable=True,
        )
    # t < v <= mu3: honest type-(1,1,1) limit E1 -> I -> Q.
    return LimitOutcome(
        case_tag=CaseTag.C1_3,
        component=Type111(d1, v, qdeg),
        graded_degrees=(d1, v, qdeg),
        hnt_limit=HNType(((1, d1), (1, qdeg), (1, v))),
        strictly_polystable=False,
    )


def _classify_case2(stratum: AdmissibleStratum, v: int) -> LimitOutcome:
    # Same integer scaling as _classify_case1, with 6*mu as the threshold.
    m1, m2, m3 = stratum.mu6_vector
    m = stratum.mu6
    v6 = 6 * v
    k = stratum.genus.canonical_degree
    d = stratum.hn.total_degree
    d3 = stratum.hn.steps[-1][1]  # E/E2 is a line bundle here
    e2 = d - d3
    if v6 > m1:
        mu1 = stratum.mu_vector[0]
        raise SlopeOutOfBounds(f"mu(N) = {v} > mu1 = {format_rational(mu1)}")
    if m2 < v6 < m1:
        mu1, mu2, _ = stratum.mu_vector
        raise InfeasibleBySpecialization(
            f"mu(N) = {v} lies strictly between mu2 = {format_rational(mu2)} "
            f"and mu1 = {format_rational(mu1)}"
        )
    if v6 == m1 and m1 > m2:
        # N is the maximal destabilizing line of E2, so N = E1.
        degrees = (m1 // 6, m2 // 6, m3 // 6)
        return LimitOutcome(
            case_tag=CaseTag.C2_4,
            component=Type111(*degrees),
            graded_degrees=degrees,
            hnt_limit=stratum.hn,
            strictly_polystable=False,
        )
    if v6 < m1 + m2 - m3 - 6 * k:
        mu1, mu2, mu3 = stratum.mu_vector
        raise SlopeOutOfBounds(
            f"mu(N) = {v} < mu1 + mu2 - mu3 - (2g-2) = "
            f"{format_rational(mu1 + mu2 - mu3 - k)}"
        )
    if v6 < m:
        return LimitOutcome(
            case_tag=CaseTag.C2_1,
            component=Type21(e2, d3),
            graded_degrees=(e2, d3),
            hnt_limit=stratum.hn,
            strictly_polystable=False,
        )
    rdeg = e2 - v  # degree of R = E2/N
    if v6 == m:
        return LimitOutcome(
            case_tag=CaseTag.C2_2,
            component=PolystableSum((line_summand(v), coupled_summand(rdeg, d3))),
            graded_degrees=(rdeg, d3, v),
            hnt_limit=HNType(((1, rdeg), (1, v), (1, d3))),
            strictly_polystable=True,
        )
    # mu < v <= mu2: honest type-(1,1,1) limit N -> R -> E/E2.
    return LimitOutcome(
        case_tag=CaseTag.C2_3,
        component=Type111(v, rdeg, d3),
        graded_degrees=(v, rdeg, d3),
        hnt_limit=HNType(((1, rdeg), (1, v), (1, d3))),
        strictly_polystable=False,
    )


def _classify_case3(stratum: AdmissibleStratum, aligned: bool) -> LimitOutcome:
    # Balanced strata have three line-bundle steps: integer slopes.
    mu1, mu2, mu3 = (m // 6 for m in stratum.mu6_vector)
    k = stratum.genus.canonical_degree
    if aligned:
        return LimitOutcome(
            case_tag=CaseTag.C3_1,
            component=Type111(mu1, mu2, mu3),
            graded_degrees=(mu1, mu2, mu3),
            hnt_limit=stratum.hn,
            strictly_polystable=False,
        )
    if mu1 - mu3 > k:
        raise AlignmentImpossible(
            f"mu1 - mu3 = {mu1 - mu3} > 2g-2 = {k} forces N = E1"
        )
    return LimitOutcome(
        case_tag=CaseTag.C3_2,
        component=PolystableSum((coupled_summand(mu1, mu3), line_summand(mu2))),
        graded_degrees=(mu1, mu3, mu2),
        hnt_limit=stratum.hn,
        strictly_polystable=True,
    )


def classify_rank3(inp: ClassifierInput) -> LimitOutcome:
    """Route an unstable rank-3 stratum with its invariant to exactly one case.

    Feasibility is checked before classification: values strictly inside
    the excluded gap raise InfeasibleBySpecialization, values beyond the
    a-priori bounds raise SlopeOutOfBounds, and the two are never
    conflated because they encode different impossibility arguments.
    """
    stratum = inp.stratum
    if stratum.hn.total_rank != 3:
        raise ClassificationError(f"{stratum.hn} is not a rank-3 type")
    if stratum.is_semistable:
        raise ClassificationError(
            f"{stratum.hn} is semistable; use classify_semistable"
        )
    family = stratum.case_family
    invariant = inp.invariant
    if family is CaseFamily.CASE1_I:
        if not isinstance(invariant, SlopeI):
            raise CaseFamilyMismatch(
                f"{stratum.hn} has mu2 < mu; it needs SlopeI, got "
                f"{type(invariant).__name__}"
            )
        return _classify_case1(stratum, invariant.value)
    if family is CaseFamily.CASE2_N:
        if not isinstance(invariant, SlopeN):
            raise CaseFamilyMismatch(
                f"{stratum.hn} has mu2 > mu; it needs SlopeN, got "
                f"{type(invariant).__name__}"
            )
        return _classify_case2(stratum, invariant.value)
    if not isinstance(invariant, Aligned):
        raise CaseFamilyMismatch(
            f"{stratum.hn} has mu2 = mu; it needs Aligned, got "
            f"{type(invariant).__name__}"
        )
    return _classify_case3(stratum, invariant.flag)


def classify(inp: ClassifierInput) -> LimitOutcome:
    """Dispatch on rank and semistability; the one entry point the CLI uses."""
    stratum = inp.stratum
    if stratum.is_semistable:
        if not isinstance(inp.invariant, NotApplicable):
            raise CaseFamilyMismatch(
                f"{stratum.hn} is semistable and takes no invariant"
            )
        return classify_semistable(stratum)
    if stratum.hn.total_rank == 2:
        if not isinstance(inp.invariant, NotApplicable):
            raise CaseFamilyMismatch(
                f"{stratum.hn} is a rank-2 type and takes no invariant"
            )
        return classify_rank2(stratum)
    return classify_rank3(inp)


def feasible_inputs(stratum: AdmissibleStratum) -> list[InvariantDatum]:
    """Every invariant datum the stratum admits, in sweep order."""
    if stratum.is_semistable or stratum.hn.total_rank == 2:
        return [NotApplicable()]
    family = stratum.case_family
    if family is CaseFamily.CASE1_I:
        rng = invariant_range(stratum)
        return [SlopeI(v) for v in rng.feasible_integers]
    if family is CaseFamily.CASE2_N:
        rng = invariant_range(stratum)
        return [SlopeN(v) for v in rng.feasible_integers]
    mu1, _, mu3 = stratum.mu_vector
    flags: list[InvariantDatum] = [Aligned(True)]
    if mu1 - mu3 <= stratum.genus.canonical_degree:
        flags.append(Aligned(False))
    return flags


def excluded_gap_integers(stratum: AdmissibleStratum) -> list[int]:
    """Integers strictly inside the specialization-excluded gap."""
    if stratum.is_semistable or stratum.hn.total_rank != 3:
        return []
    mu1, mu2, mu3 = stratum.mu_vector
    family = stratum.case_family
    if family is CaseFamily.CASE1_I:
        low, high = mu3, mu2
    elif family is CaseFamily.CASE2_N:
        low, high = mu2, mu1
    else:
        return []
    return list(range(math.floor(low) + 1, math.ceil(high)))


# ---------------------------------------------------------------------------
# Stability audit


@dataclass(frozen=True)
class AuditCheck:
    """One invariant-subobject slope inequality re-derived from the limit."""

    subobject: str
    inequality: str
    holds: bool
    is_equality: bool


def _check(subobject: str, lhs: Fraction, rhs: Fraction, allow_equal: bool) -> AuditCheck:
    rel = "<=" if allow_equal else "<"
    return AuditCheck(
        subobject=subobject,
        inequality=f"{format_rational(lhs)} {rel} {format_rational(rhs)}",
        holds=(lhs <= rhs) if allow_equal else (lhs < rhs),
        is_equality=lhs == rhs,
    )


def stability_audit(outcome: LimitOutcome, inp: ClassifierInput) -> list[AuditCheck]:
    """Re-derive the slope inequality of every Higgs-invariant subobject
    of the limit, with exact arithmetic.

    All inequalities must hold, strictly except for exactly one equality
    in the strictly polystable cases; a failed check indicates an
    implementation bug, not a data condition.
    """
    stratum = inp.stratum
    mu = stratum.mu
    tag = outcome.case_tag
    if tag is CaseTag.SEMISTABLE:
        return []
    if tag is CaseTag.RANK2:
        d2 = stratum.hn.steps[1][1]
        return [_check("E/E1", Fraction(d2), mu, allow_equal=False)]

    mu1, mu2, mu3 = stratum.mu_vector
    d = stratum.hn.total_degree
    v = inp.invariant.value if isinstance(inp.invariant, (SlopeI, SlopeN)) else None

    if tag is CaseTag.C1_1:
        d1 = stratum.hn.steps[0][1]
        return [
            _check("E1 + I", Fraction(d1 + v, 2), mu, allow_equal=False),
            _check("E/E1", Fraction(d - d1, 2), mu, allow_equal=False),
            _check("line L in E/E1 (max slope mu2)", mu2, mu, allow_equal=False),
        ]
    if tag in (CaseTag.C1_2, CaseTag.C1_3, CaseTag.C1_4):
        # Decomposition E1 + I + Q; in case 1.4 the invariant is pinned
        # at mu(I) = mu2.
        vi = Fraction(int(mu2) if tag is CaseTag.C1_4 else v)
        qslope = mu2 + mu3 - vi
        return [
            _check("I + Q", Fraction(vi + qslope, 2), mu, allow_equal=False),
            _check("Q", qslope, mu, allow_equal=(tag is CaseTag.C1_2)),
        ]
    if tag is CaseTag.C2_1:
        return [
            _check("N", Fraction(v), mu, allow_equal=False),
            _check("E/E2", mu3, mu, allow_equal=False),
            _check(
                "L + E/E2 (max line slope mu1)",
                Fraction(mu1 + mu3, 2),
                mu,
                allow_equal=False,
            ),
        ]
    if tag in (CaseTag.C2_2, CaseTag.C2_3, CaseTag.C2_4, CaseTag.C3_1):
        # Decomposition N + R + E/E2; in cases 2.4 and 3.1 the invariant
        # is pinned at mu(N) = mu1.
        vn = Fraction(int(mu1) if tag in (CaseTag.C2_4, CaseTag.C3_1) else v)
        return [
            _check("E/E2", mu3, mu, allow_equal=False),
            _check("R + E/E2", Fraction(d - vn, 2), mu, allow_equal=(tag is CaseTag.C2_2)),
        ]
    if tag is CaseTag.C3_2:
        return [
            _check("E/E2 inside the coupled summand", mu3, mu, allow_equal=False),
            _check("split summand E2/E1", mu2, mu, allow_equal=True),
        ]
    raise ValueError(f"unknown case tag {tag!r}")
