"""Slope bounds on Harder-Narasimhan types of semistable Higgs bundles.

For rank 3 both consecutive slope gaps are bounded by the canonical
degree 2g-2; for unstable rank 2 the subline degree satisfies
d < 2*d1 <= d + 2g-2.  These bounds make the set of admissible types
finite for each (rank, degree, genus), which is what every enumeration
and sweep in this package relies on.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from operator import attrgetter

from .core import Frozen, Genus, HNType, StrataError, _hn_type, _set


class AdmissibilityError(StrataError):
    """An HN type violates the semistability bounds."""


class RankUnsupported(AdmissibilityError, ValueError):
    """A rank the query is not defined for."""


class Rank2BoundViolated(AdmissibilityError):
    pass


class Rank3BoundViolated(AdmissibilityError):
    pass


class CaseFamily(Enum):
    """Position of mu2 relative to the total slope decides the free datum."""

    CASE1_I = "1-I"
    CASE2_N = "2-N"
    CASE3_FLAG = "3-flag"
    NONE = "none"

    __hash__ = object.__hash__  # by identity, in C, as CaseTag


class AdmissibleStratum(Frozen):
    """A Shatz stratum label that passes the slope bounds for its genus.

    "Admissible" means the bounds necessary for the stratum to contain a
    semistable Higgs bundle hold; nonemptiness in the actual moduli
    space is not certified.

    Only ranks 2 and 3 are supported; any other raises RankUnsupported.
    An unstable type whose slope gaps exceed 2g-2 raises
    Rank2BoundViolated or Rank3BoundViolated, naming the inequality.
    The integer data are plain attributes, computed once at construction,
    with one shape for both ranks: ``mu6_vector``, ``case_family``,
    ``window6`` and ``feasible_integers``.  A rank-2 stratum has no case
    family, so it holds None, None and ().
    """

    _fields = ("hn", "genus")

    def __init__(self, hn: HNType, genus: Genus) -> None:
        # Slopes scaled by 6, as integers.  Every step of a rank-2 or
        # rank-3 type has rank 1, 2 or 3, so 6*mu_i = 6*d_i/r_i is an
        # integer, and so is 6*mu = 6*d/r; in any other rank the division
        # would floor.  Comparing 6*v with these decides exactly what
        # comparing v with the slopes decides.  The values live in the
        # instance __dict__ outside _fields, so __eq__, __hash__ and
        # __repr__ never look at them.
        rank = hn.total_rank
        if rank != 2 and rank != 3:
            raise RankUnsupported(f"only ranks 2 and 3 are supported, got {rank}")
        if not hn.is_semistable:
            # The slope bounds: each consecutive gap is at most 2g-2.
            k = genus.canonical_degree
            if rank == 2:
                mu1, mu2 = hn.mu_vector
                if mu1 - mu2 > k:
                    raise Rank2BoundViolated(f"2*d1 - d = {mu1 - mu2} exceeds 2g-2 = {k} for {hn}")
            else:
                mu1, mu2, mu3 = hn.mu_vector
                if mu1 - mu2 > k:
                    raise Rank3BoundViolated(f"mu1 - mu2 = {mu1 - mu2} > 2g-2 = {k} for {hn}")
                if mu2 - mu3 > k:
                    raise Rank3BoundViolated(f"mu2 - mu3 = {mu2 - mu3} > 2g-2 = {k} for {hn}")
        _set(self, "hn", hn)
        _set(self, "genus", genus)
        steps = hn.steps
        if rank == 2:
            vars(self).update(
                mu6_vector=tuple(6 * d // r for r, d in steps for _ in range(r)),
                case_family=None, window6=None, feasible_integers=(),
            )
            return
        mu6 = 2 * hn.total_degree
        if len(steps) == 1:  # semistable
            m1 = m2 = m3 = mu6
        elif len(steps) == 3:  # three lines
            (_, d1), (_, d2), (_, d3) = steps
            m1, m2, m3 = 6 * d1, 6 * d2, 6 * d3
        else:  # a line and a rank-2 piece, in either order
            (r1, d1), (_, d2) = steps
            m1, m3 = 6 * d1 // r1, 6 * d2 // (3 - r1)
            m2 = m1 if r1 == 2 else m3
        # window6 is 6 * (low, gap_low, gap_high, threshold) for the slope
        # invariant of case families 1 and 2, None for the others.  The
        # invariant's a-priori interval is [low, gap_low]; the open gap
        # (gap_low, gap_high) is excluded, and gap_high is the isolated
        # point when it lies above gap_low.  The threshold separates cases
        # x.1 (below it), x.2 (at it) and x.3: it is t in family 1 and mu
        # in family 2.  Family 2 is family 1 on the dual bundle, which is
        # why the two windows mirror each other.
        k6 = 12 * genus.g - 12  # 6 * (2g-2)
        window6 = None
        if len(steps) == 1:
            family = CaseFamily.NONE
        elif m2 < mu6:
            # 6 * t for the case-1 threshold t = (-mu1 + 2*mu2 + 2*mu3)/3.
            # 3t has denominator at most 2 (each mu_i has denominator 1 or
            # 2 in rank 3), so 6t is an integer and the division is exact.
            t6 = (-m1 + 2 * m2 + 2 * m3) // 3
            family, window6 = CaseFamily.CASE1_I, (m1 - k6, m3, m2, t6)
        elif m2 > mu6:
            family, window6 = CaseFamily.CASE2_N, (m1 + m2 - m3 - k6, m2, m1, mu6)
        else:
            family = CaseFamily.CASE3_FLAG
        # Feasible integer values of the slope invariant, ascending: every
        # integer in [low, gap_low], then gap_high if it is an integer
        # above gap_low.  Empty for the families that take no slope
        # invariant.
        feasible = ()
        if window6 is not None:
            low6, gap_low6, gap_high6, _ = window6
            feasible = tuple(range(-(-low6 // 6), gap_low6 // 6 + 1))
            if gap_high6 > gap_low6 and gap_high6 % 6 == 0:
                feasible += (gap_high6 // 6,)
        vars(self).update(
            mu6_vector=(m1, m2, m3), case_family=family, window6=window6,
            feasible_integers=feasible,
        )

    @property
    def is_semistable(self) -> bool:
        return self.hn.is_semistable

    def __str__(self) -> str:
        return str(self.hn)


def enumerate_strata(rank: int, degree: int, genus: Genus) -> list[AdmissibleStratum]:
    """Every admissible HN type of the given rank and degree.

    Includes the semistable type; finite by the slope bounds; sorted by
    the slope vector mu6_vector: the order of the polygon's heights mu1,
    mu1 + mu2, a linear extension of dominance (semistable first, most
    unstable last).  No two types tie: the slopes determine the type.

    The loops generate canonical steps only: integer degrees, strictly
    decreasing slopes, no equal neighbours.  So each type is built with
    the trusted constructor; the stratum's constructor still checks every
    one's bounds.
    """
    k = genus.canonical_degree
    if rank not in (2, 3):
        raise RankUnsupported(f"only ranks 2 and 3 are supported, got {rank}")
    d = degree
    if type(d) is not int:
        # An integral degree such as Fraction(3) becomes an int; the
        # checked constructor refuses any other by name.
        d = HNType(((rank, d),)).total_degree
    if rank == 2:
        found = [_hn_type(((2, d),), 2, d)]
        # d < 2*d1 <= d + 2g-2
        for d1 in range(d // 2 + 1, (d + k) // 2 + 1):
            found.append(_hn_type(((1, d1), (1, d - d1)), 2, d))
    else:
        found = [_hn_type(((3, d),), 3, d)]
        # Type (1,2): line over a semistable rank-2 quotient.
        # 0 < mu1 - mu2 = (3a-d)/2 <= 2g-2.
        for a in range(d // 3 + 1, (d + 2 * k) // 3 + 1):
            found.append(_hn_type(((1, a), (2, d - a)), 3, d))
        # Type (2,1): semistable rank-2 sub over a line.
        # 0 < mu2 - mu3 = (3e-2d)/2 <= 2g-2.
        for e in range((2 * d) // 3 + 1, (2 * d + 2 * k) // 3 + 1):
            found.append(_hn_type(((2, e), (1, d - e)), 3, d))
        # Three distinct integer slopes a > b > c with both gaps <= 2g-2.
        for a in range(d // 3 + 1, d // 3 + 2 * k + 2):
            # c = d - a - b < b and b - c <= k bound b, with a - k <= b < a.
            for b in range(max(a - k, (d - a) // 2 + 1), min(a, (d - a + k) // 2 + 1)):
                found.append(_hn_type(((1, a), (1, b), (1, d - a - b)), 3, d))
    strata = [AdmissibleStratum(hn, genus) for hn in found]
    strata.sort(key=attrgetter("mu6_vector"))
    return strata


class InvariantRange(namedtuple(
    "InvariantRange", "case_family interval_low interval_high isolated_point feasible_integers"
)):
    """Feasible values of the auxiliary slope invariant of a stratum.

    The closed interval is the a-priori bound on the invariant; the
    isolated point is the extra value allowed at the far end of the
    excluded open gap (the interior of which is infeasible because the
    HN polygon rises under specialization): Fractions, or None for a
    stratum that takes no slope invariant.  ``feasible_integers``
    collects every integer in the interval plus the isolated point.
    """

    __slots__ = ()


def invariant_range(stratum: AdmissibleStratum) -> InvariantRange:
    """Interval, isolated point and feasible integers for mu(I) or mu(N)."""
    if stratum.hn.total_rank != 3:
        raise RankUnsupported("invariant ranges are defined for rank 3 only")
    if stratum.window6 is None:
        # Semistable, or case 3: the free datum is the alignment flag.
        return InvariantRange(stratum.case_family, None, None, None, ())
    low6, gap_low6, gap_high6, _ = stratum.window6
    isolated = Fraction(gap_high6, 6) if gap_high6 > gap_low6 else None
    return InvariantRange(
        stratum.case_family,
        Fraction(low6, 6),
        Fraction(gap_low6, 6),
        isolated,
        stratum.feasible_integers,
    )
