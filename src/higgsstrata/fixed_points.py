"""Fixed-point component labels of the downward scaling flow.

Type-(1,1,1) components are cut out by explicit numeric constraints,
parametrized either by the weight-ordered line degrees (l1, l2, l3) or
by the zero-counts (m1, m2) of the two couplings; the two coordinate
systems are exchanged by an affine dictionary.

Type-(1,2) and (2,1) components are the images of the limit map in
cases 1.1 and 2.1.  They are listed in closed form, with k = 2g-2 and d
the degree: type (1,2) is (a, d-a) for every integer a with d < 3a and
6a < 2d + 3k, and type (2,1) is (e, d-e) for every integer e with
2d < 3e and 6e < 4d + 3k.  For type (1,2):

- a family-1 stratum with mu1 = a has smallest feasible value a - k
  when a - k <= mu3; otherwise it has only its isolated point, which
  lies at or above the threshold;
- case 1.1 needs a - k < t = (2d - 3a)/3, that is 6a < 2d + 3k;
- the stratum of HN type 1:a,2:(d-a) exists, has mu3 >= a - k, and so
  reaches case 1.1.

Type (2,1) follows by duality.  No stratum is built or classified here;
the acceptance suite checks the list against each incidence table.
"""

from __future__ import annotations

from collections import namedtuple

from .admissibility import RankUnsupported
from .core import (
    FixedComponentLabel,
    Genus,
    HodgeBundle,
    PolystableSum,
    StrataError,
    _hodge_bundle,
)


class NoIntegerSolution(StrataError):
    """The (m1, m2, degree) data admit no integer line degrees."""


class MInvariants(namedtuple("MInvariants", "m1 m2 genus degree")):
    """Coupling zero-counts of a type-(1,1,1) fixed point.

    m1 counts the zeros of the weight-raising map L1 -> L2 (x) K and m2
    those of L2 -> L3 (x) K.  Plain data: the constraint region is not
    checked at construction (the coordinate change is useful outside the
    region too); enumerate_m_invariants lists the pairs inside it.
    """

    __slots__ = ()


def _line_degrees(m1: int, m2: int, degree: int, k: int) -> tuple[int, int, int] | None:
    """The line degrees (l1, l2, l3) of the zero-counts (m1, m2) on a
    curve of canonical degree k, or None when they are not integers."""
    # l1 + (l1 + m1 - k) + (l1 + m1 + m2 - 2k) = degree
    numerator = degree - 2 * m1 - m2 + 3 * k
    if numerator % 3 != 0:
        return None
    l1 = numerator // 3
    l2 = l1 + m1 - k
    return l1, l2, l2 + m2 - k


def m_to_l(m: MInvariants) -> HodgeBundle:
    """Solve for the unique integer line degrees (l1, l2, l3) of the
    type-(1,1,1) label; inverse of l_to_m.

    Only integer solvability is checked here (NoIntegerSolution when the
    mod-3 condition fails); stability is validate_fixed_111's job.
    """
    degrees = _line_degrees(m.m1, m.m2, m.degree, m.genus.canonical_degree)
    if degrees is None:
        raise NoIntegerSolution(
            f"no integer line degrees for m=({m.m1},{m.m2}), degree {m.degree}: "
            f"need 2*m1 + m2 = {2 * m.m1 + m.m2} = {m.degree} (mod 3)"
        )
    return HodgeBundle((1, 1, 1), degrees)


def l_to_m(label: HodgeBundle, genus: Genus) -> MInvariants:
    l1, l2, l3 = label.degrees
    k = genus.canonical_degree
    return MInvariants(l2 - l1 + k, l3 - l2 + k, genus, l1 + l2 + l3)


def validate_fixed_111(label: HodgeBundle, degree: int, genus: Genus) -> bool:
    """True iff the type-(1,1,1) label's degrees sum to the ambient
    degree, both couplings can be nonzero, and the two strict stability
    inequalities hold (cleared of thirds)."""
    l1, l2, l3 = label.degrees
    k = genus.canonical_degree
    return (
        l1 + l2 + l3 == degree
        and l2 - l1 + k >= 0
        and l3 - l2 + k >= 0
        and l1 + l2 - 2 * l3 > 0
        and 2 * l1 - l2 - l3 > 0
    )


def _m_pairs(degree: int, genus: Genus):
    """The (m1, m2) of the constraint region for this degree, sorted.

    m2 runs over the one residue mod 3 that makes 2*m1 + m2 = degree
    (mod 3), up to the tighter of the two strict bounds.
    """
    bound = 6 * genus.g - 6
    shift = degree % 3  # m2 = shift + m1 (mod 3), since -2 = 1 (mod 3)
    # 2*m1 + m2 < bound and m1 + 2*m2 < bound, with m2 >= 0.
    for m1 in range((bound + 1) // 2):
        for m2 in range((shift + m1) % 3, min(bound - 2 * m1, (bound - m1 + 1) // 2), 3):
            yield m1, m2


def _int_degree(rank: int, degree: int) -> int:
    """An integral degree, such as Fraction(3), as an int; the checked
    constructor of the rank's minimal component refuses any other by name."""
    return degree if type(degree) is int else HodgeBundle((rank,), (degree,)).degrees[0]


def enumerate_m_invariants(degree: int, genus: Genus) -> list[MInvariants]:
    """All (m1, m2) in the constraint region for this degree, sorted."""
    degree = _int_degree(3, degree)
    return [MInvariants(m1, m2, genus, degree) for m1, m2 in _m_pairs(degree, genus)]


def enumerate_fixed_111(degree: int, genus: Genus) -> list[HodgeBundle]:
    """All type-(1,1,1) labels of the given degree, sorted by degrees.

    The labels are m_to_l's of the constraint region, solved from the
    pairs directly: the region's mod-3 condition makes every solution
    integer, so each is built with the trusted constructor.
    """
    k, degree = genus.canonical_degree, _int_degree(3, degree)
    labels = [
        _hodge_bundle((1, 1, 1), _line_degrees(m1, m2, degree, k))
        for m1, m2 in _m_pairs(degree, genus)
    ]
    return sorted(labels, key=lambda t: t.degrees)


def _pair_degrees(rank0: int, degree: int, genus: Genus) -> range:
    """The module docstring's closed form for an int degree: the weight-0
    degrees a of the type-(1,2) labels (r = rank0 = 1) or the type-(2,1)
    labels (r = 2), ascending: r*d < 3a and 6a < 2r*d + 3k."""
    k = genus.canonical_degree
    return range(rank0 * degree // 3 + 1, (2 * rank0 * degree + 3 * k - 1) // 6 + 1)


def _reachable_pair_labels(degree: int, genus: Genus) -> list[HodgeBundle]:
    """The type-(1,2), then the type-(2,1) labels of the closed form."""
    return [_hodge_bundle(ranks, (a, degree - a)) for ranks in ((1, 2), (2, 1))
            for a in _pair_degrees(ranks[0], degree, genus)]


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
    if rank not in (2, 3):
        raise RankUnsupported(f"only ranks 2 and 3 are supported, got {rank}")
    minimal = HodgeBundle((rank,), (degree,))
    degree, k = minimal.degrees[0], genus.canonical_degree  # checked: an int from here on
    if rank == 2:
        d1s = range(degree // 2 + 1, (degree + k) // 2 + 1)
        return [minimal, *(HodgeBundle((1, 1), (d1, degree - d1)) for d1 in d1s)]
    return [minimal, *_reachable_pair_labels(degree, genus), *enumerate_fixed_111(degree, genus)]


def validate_component_label(
    label: FixedComponentLabel, rank: int, degree: int, genus: Genus
) -> bool:
    """Rank and degree bookkeeping, then the rank-2 bound on d1, the closed
    form of types (1,2) and (2,1), or the full type-(1,1,1) constraint
    list, for a label claimed to live in the given moduli space."""
    if isinstance(label, PolystableSum):
        degrees = label.degrees
        return len(degrees) == rank and sum(degrees) == degree
    if not isinstance(label, HodgeBundle):
        raise TypeError(f"not a fixed-component label: {label!r}")
    if sum(label.ranks) != rank or sum(label.degrees) != degree:
        return False
    if label.ranks == (1, 1):
        return degree < 2 * label.degrees[0] <= degree + genus.canonical_degree
    if label.ranks == (1, 1, 1):
        return validate_fixed_111(label, degree, genus)
    if label.ranks in ((1, 2), (2, 1)):
        return label.degrees[0] in _pair_degrees(label.ranks[0], degree, genus)
    return True
