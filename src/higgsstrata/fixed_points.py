"""Fixed-point component labels of the downward scaling flow.

Type-(1,1,1) components are cut out by explicit numeric constraints,
parametrized either by the weight-ordered line degrees (l1, l2, l3) or
by the zero-counts (m1, m2) of the two couplings; the two coordinate
systems are exchanged by an affine dictionary.  Type-(1,2) and (2,1)
components carry no intrinsic inequality list and are enumerated as
images of the limit map.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import limit_classifier
from .admissibility import RankUnsupported, enumerate_strata
from .core import (
    CaseTag,
    FixedComponentLabel,
    Genus,
    Min,
    PolystableSum,
    Rank2,
    StrataError,
    Type12,
    Type21,
    Type111,
)


class NoIntegerSolution(StrataError):
    """The (m1, m2, degree) data admit no integer line degrees."""


@dataclass(frozen=True)
class MInvariants:
    """Coupling zero-counts of a type-(1,1,1) fixed point.

    m1 counts the zeros of the weight-raising map L1 -> L2 (x) K and m2
    those of L2 -> L3 (x) K.  Plain data: the constraint region is
    checked by validate_m_invariants, not at construction (the
    coordinate change is useful outside the region too).
    """

    m1: int
    m2: int
    genus: Genus
    degree: int


@dataclass(frozen=True)
class LInvariants:
    """Weight-ordered line degrees of a type-(1,1,1) fixed point."""

    l1: int
    l2: int
    l3: int
    genus: Genus

    @property
    def degrees(self) -> tuple[int, int, int]:
        return (self.l1, self.l2, self.l3)


def validate_m_invariants(m: MInvariants) -> bool:
    """Constraint region for (m1, m2): nonnegativity, the two strict
    stability bounds, and mod-3 solvability of the line degrees for the
    ambient degree (for degree divisible by 3 this is m1+2m2 = 0 mod 3).
    """
    bound = 6 * m.genus.g - 6
    return (
        m.m1 >= 0
        and m.m2 >= 0
        and 2 * m.m1 + m.m2 < bound
        and m.m1 + 2 * m.m2 < bound
        and (2 * m.m1 + m.m2 - m.degree) % 3 == 0
    )


def m_to_l(m: MInvariants) -> LInvariants:
    """Solve for the unique integer line degrees; inverse of l_to_m.

    Only integer solvability is checked here (NoIntegerSolution when the
    mod-3 condition fails); stability is validate_fixed_111's job.
    """
    k = m.genus.canonical_degree
    # l1 + (l1 + m1 - k) + (l1 + m1 + m2 - 2k) = degree
    numerator = m.degree - 2 * m.m1 - m.m2 + 3 * k
    if numerator % 3 != 0:
        raise NoIntegerSolution(
            f"no integer line degrees for m=({m.m1},{m.m2}), degree {m.degree}: "
            f"need 2*m1 + m2 = {2 * m.m1 + m.m2} = {m.degree} (mod 3)"
        )
    l1 = numerator // 3
    l2 = l1 + m.m1 - k
    l3 = l2 + m.m2 - k
    return LInvariants(l1, l2, l3, m.genus)


def l_to_m(l: LInvariants) -> MInvariants:
    k = l.genus.canonical_degree
    return MInvariants(l.l2 - l.l1 + k, l.l3 - l.l2 + k, l.genus, l.l1 + l.l2 + l.l3)


def validate_fixed_111(l: LInvariants, degree: int) -> bool:
    """True iff the degrees sum to the ambient degree, both couplings can
    be nonzero, and the two strict stability inequalities hold (cleared
    of thirds)."""
    k = l.genus.canonical_degree
    return (
        l.l1 + l.l2 + l.l3 == degree
        and l.l2 - l.l1 + k >= 0
        and l.l3 - l.l2 + k >= 0
        and l.l1 + l.l2 - 2 * l.l3 > 0
        and 2 * l.l1 - l.l2 - l.l3 > 0
    )


def enumerate_m_invariants(degree: int, genus: Genus) -> list[MInvariants]:
    """All (m1, m2) in the constraint region for this degree, sorted."""
    bound = 6 * genus.g - 6
    out = []
    for m1 in range(0, (bound - 1) // 2 + 1):
        for m2 in range(0, (bound - 1) // 2 + 1):
            m = MInvariants(m1, m2, genus, degree)
            if validate_m_invariants(m):
                out.append(m)
    return out


def enumerate_fixed_111(degree: int, genus: Genus) -> list[Type111]:
    """All type-(1,1,1) labels of the given degree, sorted by degrees."""
    labels = []
    for m in enumerate_m_invariants(degree, genus):
        l = m_to_l(m)
        labels.append(Type111(*l.degrees))
    return sorted(labels, key=lambda t: t.degrees)


def _reachable_pair_labels(degree: int, genus: Genus) -> tuple[list[Type12], list[Type21]]:
    # Type-(1,2) and (2,1) labels are exactly the images of the limit map
    # in the sub-threshold branches of case families 1 and 2.  Those
    # branches take a stratum's smallest feasible values, and their label
    # depends on the stratum alone, so classifying the smallest decides.
    t12: set[Type12] = set()
    t21: set[Type21] = set()
    for stratum in enumerate_strata(3, degree, genus):
        if stratum.is_semistable:
            continue
        smallest = limit_classifier.feasible_inputs(stratum)[0]
        outcome = limit_classifier.classify_rank3(
            limit_classifier.ClassifierInput(stratum, smallest)
        )
        if outcome.case_tag is CaseTag.C1_1:
            t12.add(outcome.component)
        elif outcome.case_tag is CaseTag.C2_1:
            t21.add(outcome.component)
    return (
        sorted(t12, key=lambda c: c.deg_sub),
        sorted(t21, key=lambda c: c.deg_sub_pair),
    )


def enumerate_fixed_components(
    rank: int, degree: int, genus: Genus
) -> list[FixedComponentLabel]:
    """Every fixed-component label for the given moduli parameters.

    Rank 2: the minimal component plus one component per subline degree
    d1 with d < 2*d1 <= d + 2g-2.  Rank 3: the minimal component, the
    reachable type-(1,2)/(2,1) labels, and every type-(1,1,1) label
    passing validate_fixed_111.  Strictly polystable limits keep their
    own PolystableSum labels and are not folded into any component here.
    """
    k = genus.canonical_degree
    if rank == 2:
        labels: list[FixedComponentLabel] = [Min(2, degree)]
        labels.extend(
            Rank2(d1) for d1 in range(degree // 2 + 1, (degree + k) // 2 + 1)
        )
        return labels
    if rank == 3:
        t12, t21 = _reachable_pair_labels(degree, genus)
        labels = [Min(3, degree)]
        labels.extend(t12)
        labels.extend(t21)
        labels.extend(enumerate_fixed_111(degree, genus))
        return labels
    raise RankUnsupported(f"only ranks 2 and 3 are supported, got {rank}")


def validate_component_label(
    label: FixedComponentLabel, rank: int, degree: int, genus: Genus
) -> bool:
    """Degree bookkeeping (and, for type (1,1,1), the full constraint
    list) for a label claimed to live in the given moduli space."""
    k = genus.canonical_degree
    if isinstance(label, Min):
        return label.rank == rank and label.degree == degree
    if isinstance(label, Rank2):
        return rank == 2 and degree < 2 * label.d1 <= degree + k
    if isinstance(label, Type12):
        return rank == 3 and label.deg_sub + label.deg_quot_pair == degree
    if isinstance(label, Type21):
        return rank == 3 and label.deg_sub_pair + label.deg_quot == degree
    if isinstance(label, Type111):
        l = LInvariants(label.l1, label.l2, label.l3, genus)
        return rank == 3 and validate_fixed_111(l, degree)
    if isinstance(label, PolystableSum):
        degrees = [d for s in label.summands for d in s]
        return len(degrees) == rank and sum(degrees) == degree
    raise TypeError(f"not a fixed-component label: {label!r}")
