"""Exact arithmetic and the shared vocabulary of stratum labels.

Harder-Narasimhan data, fixed-component labels and limit outcomes are
immutable values built on integers: slopes are compared by
cross-multiplying or held scaled by 6.  Nothing in this package ever
touches floating point, because strict-versus-non-strict comparisons at
rational thresholds decide which classification case applies.  The HN
polygon is no value of its own: ``dominates`` compares two HN types by
their polygons' heights, computed from the steps.

Every constructor checks its arguments.  The few values that the
package builds from data it has already checked also have a private
trusted constructor that skips the re-checks: ``_hn_type``, which
``enumerate_strata`` uses for the types its loops generate; and
``_hn_lines``, ``_hodge_bundle`` and ``_limit_outcome``, which the
limit classifier uses on its per-value path (and ``fixed_points`` for
the type-(1,1,1) labels it solves for).
Each builds an object equal to the checked one, so anything a user or
another module builds directly stays checked, with every error text.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd
from operator import attrgetter


class StrataError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidHNType(StrataError, ValueError):
    """Malformed HN-type text, or steps that do not form an HN type."""


class InvalidGenus(StrataError, ValueError):
    """A genus below 2."""


def _ratio(p: int, q: int) -> str:
    """str(Fraction(p, q)) in integers, for q > 0: p/q in lowest terms, as
    "p/q" or "p".  The package's one writer of rational text; a slope held
    scaled by 6 (mu6_vector, window6) is written as _ratio(n, 6)."""
    common = gcd(p, q)
    p, q = p // common, q // common
    return str(p) if q == 1 else f"{p}/{q}"


# Frozen objects get their fields through object.__setattr__: in the
# checked __init__, and in the trusted constructors below, which skip it.
_new = object.__new__
_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Assigning or deleting an attribute of a Frozen value."""


class Frozen:
    """Base of the checked value types: immutable, equal only to an object
    of its own class with equal ``_fields``, hashed as the tuple of those
    fields and printed as Name(field=value, ...).  Each subclass's
    __init__ checks its arguments and sets the fields with _set."""

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls._fields)  # of one name: the value, not a 1-tuple
        key = (lambda self: (get(self),)) if len(cls._fields) == 1 else get

        def __eq__(self, other):
            return get(self) == get(other) if other.__class__ is self.__class__ else NotImplemented

        cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _ints(values) -> tuple[int, ...] | None:
    """values as a tuple of ints, or None when int() would change a value
    or cannot convert it.  Integral values such as Fraction(2) become int."""
    try:
        ints = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        return None
    return ints if ints == values or ints == tuple(values) else None


class Genus(Frozen):
    """Genus of the base curve; the theory requires g >= 2."""

    _fields = ("g",)

    def __init__(self, g: int) -> None:
        try:
            n = int(g)
        except (TypeError, ValueError, OverflowError):
            n = None
        if n is None or n != g:
            raise InvalidGenus(f"genus must be an integer, got {g!r}")
        if n < 2:
            raise InvalidGenus(f"genus must be >= 2, got {n}")
        _set(self, "g", n)

    @property
    def canonical_degree(self) -> int:
        return 2 * self.g - 2


class HNType(Frozen):
    """Harder-Narasimhan type: (rank, degree) subquotients, steepest first.

    Consecutive steps of equal slope are merged at construction, so
    ``HNType(((1, 1), (1, 0), (1, 0)))`` normalizes to
    ``HNType(((1, 1), (2, 0)))``.  After merging, subquotient slopes
    must be strictly decreasing.  A single step means the semistable
    type.
    """

    _fields = ("steps",)

    def __init__(self, steps: tuple[tuple[int, int], ...]) -> None:
        # One pass converts the steps, merges equal slopes and sums the
        # totals; the checks it notes raise afterwards, in a fixed order.
        # Once ranks are positive, d/r against pd/pr compares as d*pr
        # against pd*r: exact without building rationals.
        raw: list[tuple[int, int]] = []
        merged: list[tuple[int, int]] = []
        rank = degree = 0
        ranks_positive = slopes_decrease = True
        try:
            for r, d in steps:
                step = int(r), int(d)
                # Integral values such as Fraction(2) normalise to int;
                # anything int() would change is refused.
                if step != (r, d):
                    raise ValueError
                raw.append(step)
                r, d = step
                rank += r
                degree += d
                ranks_positive = ranks_positive and r >= 1
                if merged:
                    pr, pd = merged[-1]
                    if d * pr == pd * r:
                        merged[-1] = (pr + r, pd + d)
                        continue
                    slopes_decrease = slopes_decrease and d * pr < pd * r
                merged.append(step)
        except (TypeError, ValueError, OverflowError):
            raw = None
        if raw is None:
            raise InvalidHNType(f"steps must be pairs of integers (rank, degree): {steps!r}")
        if not raw:
            raise InvalidHNType("HN type needs at least one step")
        if not ranks_positive:
            raise InvalidHNType(f"step ranks must be positive: {tuple(raw)}")
        if not slopes_decrease:
            raise InvalidHNType(f"subquotient slopes must be strictly decreasing: {tuple(raw)}")
        # total_rank and total_degree are outside _fields: __eq__, __hash__
        # and __repr__ never look at them.
        _set(self, "steps", tuple(merged))
        _set(self, "total_rank", rank)
        _set(self, "total_degree", degree)

    @property
    def is_semistable(self) -> bool:
        return len(self.steps) == 1

    @property
    def mu_vector(self) -> tuple[Fraction, ...]:
        """Subquotient slopes repeated with multiplicity, non-increasing."""
        out: list[Fraction] = []
        for r, d in self.steps:
            out.extend([Fraction(d, r)] * r)
        return tuple(out)

    def __str__(self) -> str:
        return format_hn_type(self)


def _hn_lines(high: int, middle: int, low: int) -> HNType:
    """HNType(((1, high), (1, middle), (1, low))) for integer degrees,
    without re-running its checks; the limit classifier's constructor.

    Equal neighbouring degrees merge as HNType merges equal slopes.
    Increasing degrees go to the checked constructor, which refuses them.
    """
    if high < middle or middle < low:
        return HNType(((1, high), (1, middle), (1, low)))
    if high == middle == low:
        steps = ((3, 3 * high),)
    elif high == middle:
        steps = ((2, 2 * high), (1, low))
    elif middle == low:
        steps = ((1, high), (2, 2 * low))
    else:
        steps = ((1, high), (1, middle), (1, low))
    return _hn_type(steps, 3, high + middle + low)


def _hn_type(steps: tuple[tuple[int, int], ...], total_rank: int, total_degree: int) -> HNType:
    """HNType(steps) for steps that are already canonical: int pairs of
    positive rank, strictly decreasing slopes, so no neighbours to merge,
    with the given sums.  Nothing is re-checked; the trusted constructor
    of _hn_lines and enumerate_strata, whose loops generate such steps.
    """
    hn = _new(HNType)
    _set(hn, "steps", steps)
    _set(hn, "total_rank", total_rank)
    _set(hn, "total_degree", total_degree)
    return hn


def format_hn_type(hn: HNType) -> str:
    """Canonical text encoding: comma-separated "rank:degree" pairs."""
    return ",".join([f"{r}:{d}" for r, d in hn.steps])


def parse_hn_steps(text: str) -> tuple[tuple[int, int], ...]:
    """The (rank, degree) pairs of "rank:degree,..." text, unvalidated."""
    steps = []
    for part in text.strip().split(","):
        rank_s, _, deg_s = part.partition(":")
        try:
            steps.append((int(rank_s), int(deg_s)))
        except ValueError:
            raise InvalidHNType(f"bad HN step {part!r}, expected rank:degree") from None
    return tuple(steps)


def parse_hn_type(text: str) -> HNType:
    return HNType(parse_hn_steps(text))


def polygon_of(hn: HNType) -> tuple[tuple[int, int], ...]:
    """Vertices of the HN polygon: partial (rank, degree) sums from (0,0),
    convex by the HN invariant."""
    vertices = [(0, 0)]
    for r, d in hn.steps:
        pr, pd = vertices[-1]
        vertices.append((pr + r, pd + d))
    return tuple(vertices)


def _heights(hn: HNType):
    """The HN polygon's height at each integer rank 1..r, as the fraction
    (numerator, rank of the step over that rank).  At r it is the total
    degree, which dominates has already compared."""
    degree = 0
    for r, d in hn.steps:
        for x in range(1, r + 1):
            yield degree * r + d * x, r
        degree += d


def dominates(p: HNType, q: HNType) -> bool:
    """True iff the HN polygon of p lies on or above that of q at every
    intermediate integer rank.

    This is the partial order in which the polygon rises under
    specialization; both polygons must share the endpoints (0,0) and
    (r,d), so both types have the same total rank and degree.
    """
    p_end, q_end = (p.total_rank, p.total_degree), (q.total_rank, q.total_degree)
    if p_end != q_end:
        raise ValueError(f"polygons have different endpoints: {p_end} vs {q_end}")
    for (p_num, p_len), (q_num, q_len) in zip(_heights(p), _heights(q)):
        if p_num * q_len < q_num * p_len:
            return False
    return True


# ---------------------------------------------------------------------------
# Fixed-component labels


#: Label text of each Hodge type (the ranks of the weight pieces, weight 0
#: first), filled with the degrees in weight order.  A template shows only
#: what the ambient rank and degree do not fix ("min" no degree, "r2" only
#: d1), since str.format ignores surplus arguments.
_LABEL_TEXT = {
    (2,): "min",
    (3,): "min",
    (1, 1): "r2:{}",
    (1, 2): "t12:{}|{}",
    (2, 1): "t21:{}|{}",
    (1, 1, 1): "t111:{},{},{}",
}
#: Each type maps to itself: looking ranks up gives the int tuple of an
#: equal type (Fraction(1) == 1 and hashes alike), shared by every label.
_HODGE_TYPES = {ranks: ranks for ranks in _LABEL_TEXT}


class HodgeBundle(Frozen):
    """A non-polystable fixed point: a Hodge bundle of the given type.

    ``ranks`` are the ranks of the weight pieces and ``degrees`` their
    degrees, both in Hodge-weight order (weight 0 first).  Type (r) is
    the minimal component (semistable, zero Higgs field), type (1,1) a
    rank-2 component, and (1,2), (2,1) and (1,1,1) the rank-3 ones.
    """

    _fields = ("ranks", "degrees")

    def __init__(self, ranks: tuple[int, ...], degrees: tuple[int, ...]) -> None:
        try:
            shared = _HODGE_TYPES.get(tuple(ranks))
        except TypeError:  # not iterable, or unhashable items
            shared = None
        if shared is None:
            raise ValueError(f"not a supported Hodge type: {ranks!r}")
        ints = _ints(degrees)
        if ints is None or len(ints) != len(shared):
            raise ValueError(
                f"a Hodge bundle of type {shared} needs {len(shared)} integer "
                f"degrees, got {degrees!r}"
            )
        _set(self, "ranks", shared)
        _set(self, "degrees", ints)


def _hodge_bundle(ranks: tuple[int, ...], degrees: tuple[int, ...]) -> HodgeBundle:
    """HodgeBundle(ranks, degrees) for a tuple of as many int degrees,
    without re-running its checks; the constructor of the limit
    classifier and of enumerate_fixed_111.

    The ranks tuple is the shared one of _HODGE_TYPES; a type outside it
    goes to the checked constructor, which refuses it.  The fields are
    set as the checked constructor sets them: vars() would give each
    object a dict of its own.
    """
    shared = _HODGE_TYPES.get(ranks)
    if shared is None:
        return HodgeBundle(ranks, degrees)
    bundle = _new(HodgeBundle)
    _set(bundle, "ranks", shared)
    _set(bundle, "degrees", degrees)
    return bundle


class PolystableSum(Frozen):
    """Strictly polystable limit: an unordered direct sum of stable summands.

    Each summand is the tuple of its pieces' degrees in Hodge-weight
    order (weights 0, 1, ...).  Summands are canonicalized (higher rank
    first, then by degrees) so that numerically identical limits reached
    through different cases compare equal.
    """

    _fields = ("summands",)

    def __init__(self, summands: tuple[tuple[int, ...], ...]) -> None:
        ints = tuple(map(_ints, summands))
        if not ints:
            raise ValueError("polystable sum needs at least one summand")
        if None in ints:
            raise ValueError(f"summand degrees must be integers: {summands!r}")
        if () in ints:
            raise ValueError(f"polystable summands must be nonempty: {summands!r}")
        _set(self, "summands", tuple(sorted(ints, key=lambda s: (-len(s), s))))

    @property
    def degrees(self) -> tuple[int, ...]:
        """The pieces' degrees, summand after summand in canonical order."""
        return tuple(d for s in self.summands for d in s)


FixedComponentLabel = HodgeBundle | PolystableSum


def format_label(label: FixedComponentLabel) -> str:
    if isinstance(label, HodgeBundle):
        return _LABEL_TEXT[label.ranks].format(*label.degrees)
    if isinstance(label, PolystableSum):
        parts = "+".join("[" + ",".join(map(str, s)) + "]" for s in label.summands)
        return f"poly:{parts}"
    raise TypeError(f"not a fixed-component label: {label!r}")


# ---------------------------------------------------------------------------
# Limit outcomes


class CaseTag(Enum):
    """Which branch of the limit classification fired."""

    SEMISTABLE = "ss"
    RANK2 = "rk2"
    C1_1 = "1.1"
    C1_2 = "1.2"
    C1_3 = "1.3"
    C1_4 = "1.4"
    C2_1 = "2.1"
    C2_2 = "2.2"
    C2_3 = "2.3"
    C2_4 = "2.4"
    C3_1 = "3.1"
    C3_2 = "3.2"

    # Members are singletons and compare by identity, so they hash by
    # identity too, in C; Enum.__hash__ hashes the name in Python.
    __hash__ = object.__hash__


class LimitOutcome(Frozen):
    """Full description of the limiting Hodge bundle of a downward flow.

    ``graded_degrees`` lists the degrees of the summands of the limit's
    associated graded bundle in Hodge-weight order (weight 0 first); for
    strictly polystable limits the order follows the canonical summand
    list of the component, each summand internally weight-ordered.  The
    component holds them.  ``hnt_limit`` carries the slope-ordered data
    separately, since the two orders genuinely differ.
    """

    _fields = ("case_tag", "component", "hnt_limit")

    def __init__(
        self, case_tag: CaseTag, component: FixedComponentLabel, hnt_limit: HNType
    ) -> None:
        graded = _ints(component.degrees)
        if graded is None:
            raise ValueError(f"graded degrees must be integers: {component.degrees!r}")
        if sum(graded) != hnt_limit.total_degree:
            raise ValueError(f"graded degrees {graded} do not sum to {hnt_limit.total_degree}")
        _set(self, "case_tag", case_tag)
        _set(self, "component", component)
        _set(self, "hnt_limit", hnt_limit)

    @property
    def graded_degrees(self) -> tuple[int, ...]:
        return self.component.degrees

    @property
    def strictly_polystable(self) -> bool:
        """True exactly for the direct sums of stable summands (cases 1.2,
        2.2 and 3.2): the component says so."""
        return isinstance(self.component, PolystableSum)


def _limit_outcome(
    case_tag: CaseTag, component: FixedComponentLabel, hnt_limit: HNType
) -> LimitOutcome:
    """LimitOutcome(case_tag, component, hnt_limit) without re-checking
    that the component's degrees are integers summing to the limit's
    degree; the limit classifier's constructor, whose components and
    limits are built from the same integers.  Incidence tables still run
    validate_component_label and oracle_check on every outcome object.
    """
    outcome = _new(LimitOutcome)
    _set(outcome, "case_tag", case_tag)
    _set(outcome, "component", component)
    _set(outcome, "hnt_limit", hnt_limit)
    return outcome
