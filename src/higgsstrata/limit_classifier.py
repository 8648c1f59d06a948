"""Total decision procedure for downward C*-flow limits.

Given an admissible stratum and its auxiliary invariant -- the slope of
the line bundle I inside E/E1, the slope of the line bundle N inside E2,
or the alignment flag when both are pinned -- produce the limiting Hodge
bundle of (E, z*Phi) as z -> 0: case tag, fixed-component label, graded
degrees and the HN type of the limit.  All comparisons are exact; the
thresholds involve thirds, so rounding anywhere would misclassify.

One routine, _slope_runs, turns slope values into outcomes, for tables
and limit alike; _check_window refuses a value and builds nothing.  The
refusal texts and the audit's inequalities write their rationals with
core._ratio, so this module builds no rational object.  It refuses a
value in the excluded gap but does not list the gap's integers:
verification derives them from the HN type, as it checks the refusal.

The classifier builds its outcomes with core's trusted constructors
(_hn_lines, _hodge_bundle, _limit_outcome): every degree it passes is
an integer taken from a stratum that has already been checked, so the
constructors' re-checks could not fail.  Labels, HN types and outcomes
built anywhere else keep every check.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple

from .admissibility import AdmissibleStratum, CaseFamily
from .core import (
    CaseTag,
    LimitOutcome,
    PolystableSum,
    StrataError,
    _hn_lines,
    _hodge_bundle,
    _limit_outcome,
    _ratio,
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


class InvalidInvariant(ClassificationError, ValueError):
    """A slope invariant that is not an integer."""


class AlignmentImpossible(ClassificationError):
    """The alignment flag False needs a nonzero map E1 -> (E/E2) (x) K,
    which forces mu1 - mu3 <= 2g-2."""


#: The auxiliary invariant of a stratum, as the classifier takes it: the
#: integer slope of I (case family 1) or of N (case family 2), the
#: alignment flag (case family 3), or None for semistable and rank-2 strata.
Invariant = int | bool | None

#: A run of an incidence row: consecutive invariants and their one outcome.
Run = tuple[range | tuple[Invariant, ...], LimitOutcome]


ClassifierInput = namedtuple("ClassifierInput", "stratum invariant")


#: Per case family, the names of a limit's lines in weight order and the
#: one a polystable limit splits off.  A rank-2 stratum's case family is None.
_LINE_NAMES = {
    None: (("E1", "E/E1"), None),
    CaseFamily.NONE: (("E",), None),
    CaseFamily.CASE1_I: (("E1", "I", "Q"), 2),
    CaseFamily.CASE2_N: (("N", "R", "E/E2"), 0),
    CaseFamily.CASE3_FLAG: (("E1", "E2/E1", "E/E2"), 1),
}


class _SlopeFamily(namedtuple("_SlopeFamily", "relation datum ends tags x1_type refined")):
    """What tells case family 2 from case family 1.

    Both read the window AdmissibleStratum.window6.  Below the threshold
    the limit keeps a two-piece filtration (sub, quotient): E1 in E for
    family 1, E2 in E for family 2.  From the threshold on, the datum
    line refines one piece into two lines: I refines E/E1 into I and
    Q = (E/E1)/I, N refines E2 into N and R = E2/N.  Family 2 is family 1
    on the dual bundle, which swaps sub and quotient; the table holds
    the names and positions that swap.

    relation: how mu2 compares with mu; datum: the line the invariant
    measures; ends: the names of the window's low, gap_low and gap_high;
    tags: cases x.1 to x.4; x1_type: the Hodge type of case x.1's (sub,
    quotient) limit; refined: the rank-2 piece the datum line refines, 0
    sub or 1 quotient.
    """

    __slots__ = ()


_FAMILIES = {
    CaseFamily.CASE1_I: _SlopeFamily(
        relation="<", datum="I", ends=("mu1 - (2g-2)", "mu3", "mu2"),
        tags=(CaseTag.C1_1, CaseTag.C1_2, CaseTag.C1_3, CaseTag.C1_4),
        x1_type=(1, 2), refined=1,
    ),
    CaseFamily.CASE2_N: _SlopeFamily(
        relation=">", datum="N", ends=("mu1 + mu2 - mu3 - (2g-2)", "mu2", "mu1"),
        tags=(CaseTag.C2_1, CaseTag.C2_2, CaseTag.C2_3, CaseTag.C2_4),
        x1_type=(2, 1), refined=0,
    ),
}


def _check_window(stratum: AdmissibleStratum, fam: _SlopeFamily, v: int) -> None:
    # Refuse a slope value outside the window, building nothing: integer
    # comparisons of 6*v, whose ends are rationals only in the messages.
    low6, gap_low6, gap_high6, _ = stratum.window6
    v6 = 6 * v
    low_name, gap_low_name, gap_high_name = fam.ends
    if v6 > gap_high6:
        raise SlopeOutOfBounds(f"mu({fam.datum}) = {v} > {gap_high_name} = {_ratio(gap_high6, 6)}")
    if gap_low6 < v6 < gap_high6:
        raise InfeasibleBySpecialization(
            f"mu({fam.datum}) = {v} lies strictly between {gap_low_name} = "
            f"{_ratio(gap_low6, 6)} and {gap_high_name} = {_ratio(gap_high6, 6)}"
        )
    if v6 < low6:  # low <= gap_high by the slope bounds
        raise SlopeOutOfBounds(f"mu({fam.datum}) = {v} < {low_name} = {_ratio(low6, 6)}")


def _slope_runs(
    stratum: AdmissibleStratum, fam: _SlopeFamily, values, interned: dict
) -> list[Run]:
    """The runs of ascending feasible slope values, a table row's or
    limit's one; nothing here refuses.  The values below the threshold
    (case x.1, which keeps the (sub, quotient) filtration) are one run, a
    range; each other value is a run of case x.2, x.3 or x.4.  An x.2 or
    x.3 outcome depends only on the family, on whether the value is at the
    threshold and on the graded degrees; ``interned`` keeps each under
    those integers, so rows given one dict share equal outcomes."""
    _, gap_low6, _, thresh6 = stratum.window6
    sub = sum(stratum.mu6_vector[: 2 - fam.refined]) // 6  # degree of E1 or E2
    pair = sub, stratum.hn.total_degree - sub
    below = bisect_left(values, -(-thresh6 // 6))  # the values with 6*v < thresh6
    runs = []
    if below:
        x1 = _limit_outcome(fam.tags[0], _hodge_bundle(fam.x1_type, pair), stratum.hn)
        runs.append((range(values[0], values[0] + below), x1))
    i, split = fam.refined, _LINE_NAMES[stratum.case_family][1]
    before, refined, after = pair[:i], pair[i], pair[i + 1 :]
    for v in values[below:]:
        v6 = 6 * v
        if v6 > gap_low6:
            # The isolated point v = gap_high: I = E2/E1 in family 1 (v =
            # mu2), N = E1 in family 2 (v = mu1), so the limit keeps the HN
            # filtration.  Only three-line strata have one, so the x.3
            # graded degrees at v are the HN degrees (d1, d2, d3).
            component = _hodge_bundle((1, 1, 1), before + (v, refined - v) + after)
            runs.append(((v,), _limit_outcome(fam.tags[3], component, stratum.hn)))
            continue
        at_threshold = v6 == thresh6
        key = (i, at_threshold, pair, v)
        outcome = interned.get(key)
        if outcome is None:
            rest = refined - v  # degree of Q or R
            graded = before + (v, rest) + after  # weight order
            hnt_limit = _hn_lines(*before, rest, v, *after)  # slope order
            if at_threshold:
                line = graded[split : split + 1]
                coupled = graded[:split] + graded[split + 1 :]
                tag, component = fam.tags[1], PolystableSum((coupled, line))
            else:
                tag, component = fam.tags[2], _hodge_bundle((1, 1, 1), graded)
            outcome = interned[key] = _limit_outcome(tag, component, hnt_limit)
        runs.append(((v,), outcome))
    return runs


def _classify_case3(stratum: AdmissibleStratum, aligned: bool) -> LimitOutcome:
    # Balanced strata have three line-bundle steps: integer slopes.
    mu1, mu2, mu3 = (m // 6 for m in stratum.mu6_vector)
    k = stratum.genus.canonical_degree
    if aligned:
        component = _hodge_bundle((1, 1, 1), (mu1, mu2, mu3))
        return _limit_outcome(CaseTag.C3_1, component, stratum.hn)
    if mu1 - mu3 > k:
        raise AlignmentImpossible(
            f"mu1 - mu3 = {mu1 - mu3} > 2g-2 = {k} forces N = E1"
        )
    return _limit_outcome(CaseTag.C3_2, PolystableSum(((mu1, mu3), (mu2,))), stratum.hn)


def classify_rank3(inp: ClassifierInput) -> LimitOutcome:
    """Route an unstable rank-3 stratum with its invariant to exactly one case.

    Feasibility is checked before classification: values strictly inside
    the excluded gap raise InfeasibleBySpecialization, values beyond the
    a-priori bounds raise SlopeOutOfBounds, and the two are never
    conflated because they encode different impossibility arguments.

    The case family fixes the invariant's kind: an integer in families 1
    and 2, a bool in family 3.  An integer is any value whose
    ``denominator`` is 1: an int, or an integral rational, which becomes
    its int.  A wrong kind raises CaseFamilyMismatch; a slope value that is
    not an integer (a float, a string, a proper fraction) raises
    InvalidInvariant.
    """
    stratum = inp.stratum
    if stratum.hn.total_rank != 3:
        raise ClassificationError(f"{stratum.hn} is not a rank-3 type")
    if stratum.is_semistable:
        raise ClassificationError(f"{stratum.hn} is semistable; use classify")
    invariant = inp.invariant
    fam = _FAMILIES.get(stratum.case_family)
    if fam is None:
        if isinstance(invariant, bool):
            return _classify_case3(stratum, invariant)
        relation, need = "=", "an alignment flag"
    elif invariant is None or isinstance(invariant, bool):
        relation, need = fam.relation, f"an integer mu({fam.datum})"
    elif getattr(invariant, "denominator", None) == 1:
        # I and N are line bundles; their slopes are honest integers, and
        # the outcome's degrees are ints.
        _check_window(stratum, fam, v := int(invariant))
        return _slope_runs(stratum, fam, (v,), {})[0][1]
    else:
        raise InvalidInvariant(f"slope invariant must be an integer, got {invariant!r}")
    raise CaseFamilyMismatch(
        f"{stratum.hn} has mu2 {relation} mu; it needs {need}, got {invariant!r}"
    )


def classify(inp: ClassifierInput) -> LimitOutcome:
    """Classify any stratum with its invariant; the one entry point the CLI
    uses.  Semistable and rank-2 strata take None and are decided here,
    unstable rank-3 strata go to classify_rank3."""
    stratum = inp.stratum
    if stratum.is_semistable:
        if inp.invariant is not None:
            raise CaseFamilyMismatch(
                f"{stratum.hn} is semistable and takes no invariant"
            )
        # The Higgs field flows to zero.
        hn = stratum.hn
        component = _hodge_bundle((hn.total_rank,), (hn.total_degree,))
        return _limit_outcome(CaseTag.SEMISTABLE, component, hn)
    if stratum.hn.total_rank == 2:
        if inp.invariant is not None:
            raise CaseFamilyMismatch(
                f"{stratum.hn} is a rank-2 type and takes no invariant"
            )
        # The limit couples the destabilizing line into the quotient, and
        # the associated graded bundle is unchanged.
        (_, d1), (_, d2) = stratum.hn.steps
        return _limit_outcome(CaseTag.RANK2, _hodge_bundle((1, 1), (d1, d2)), stratum.hn)
    return classify_rank3(inp)


def feasible_inputs(stratum: AdmissibleStratum) -> list[Invariant]:
    """Every invariant the stratum admits, in sweep order."""
    if stratum.is_semistable or stratum.hn.total_rank == 2:
        return [None]
    if stratum.case_family is not CaseFamily.CASE3_FLAG:
        return list(stratum.feasible_integers)
    m1, _, m3 = stratum.mu6_vector
    return [True, False] if m1 - m3 <= 6 * stratum.genus.canonical_degree else [True]


def classify_stratum(stratum: AdmissibleStratum, interned: dict) -> tuple[Run, ...]:
    """One row of the incidence table: the stratum's feasible invariants,
    in feasible_inputs order, as maximal runs of one outcome.

    classify decides a semistable or rank-2 row's None, _classify_case3
    each flag of a balanced row.  A slope row is checked at its first and
    last value, the window's ends, then goes to one _slope_runs call with
    ``interned`` ({} for a row on its own, one dict for a whole table)."""
    inputs = feasible_inputs(stratum)
    if not inputs:
        return ()
    if inputs[0] is None:  # semistable or rank 2
        return (((None,), classify(ClassifierInput(stratum, None))),)
    fam = _FAMILIES.get(stratum.case_family)
    if fam is None:  # the alignment flags
        return tuple(((v,), _classify_case3(stratum, v)) for v in inputs)
    _check_window(stratum, fam, inputs[0])
    _check_window(stratum, fam, inputs[-1])
    return tuple(_slope_runs(stratum, fam, inputs, interned))


# ---------------------------------------------------------------------------
# Stability audit


class AuditCheck(namedtuple(
    "AuditCheck", "lines degree rank d r allow_equal datum", defaults=(False, False)
)):
    """A Higgs-invariant subobject of the limit, the sum of the named
    lines, against the whole bundle's degree d and rank r: its slope, the
    ratio degree/rank, must be smaller, or no larger if allow_equal.  The
    steepest-line check (L) scales both by 6, as L's slope may be a
    half-integer.  ``datum`` marks the one check that reads the invariant,
    a strict one: its subobject holds the datum line I or N.  Texts are
    built on read."""

    __slots__ = ()

    @property
    def subobject(self) -> str:
        return " + ".join(self.lines)

    @property
    def holds(self) -> bool:
        return self.degree * self.r < self.d * self.rank or self.allow_equal and self.is_equality

    @property
    def is_equality(self) -> bool:
        return self.degree * self.r == self.d * self.rank

    @property
    def inequality(self) -> str:
        rel = "<=" if self.allow_equal else "<"
        return f"{_ratio(self.degree, self.rank)} {rel} {_ratio(self.d, self.r)}"


def stability_audit(outcome: LimitOutcome, inp: ClassifierInput) -> list[AuditCheck]:
    """Re-derive the slope inequality of every Higgs-invariant subobject
    of the limit from its component, in integers.  Three rules:

    * from weight 1 on, every tail of the pieces in weight order (of
      each summand, for a polystable sum) has slope < mu;
    * a polystable sum's line summand has slope <= mu;
    * a rank-2 piece adds its steepest line L, of the slope the stratum
      gives, with the pieces after it, and the pieces before it with the
      datum line I or N: both of slope < mu.

    All inequalities must hold, strictly except for exactly one equality
    in the strictly polystable cases; a failed check indicates an
    implementation bug, not a data condition.
    """
    stratum = inp.stratum
    d, r = stratum.hn.total_degree, stratum.hn.total_rank
    names, split = _LINE_NAMES[stratum.case_family]
    component = outcome.component
    if isinstance(component, PolystableSum):
        # The coupled summand's lines take the names the split line leaves.
        coupled = names[:split] + names[split + 1 :]
        chains = [((1,) * len(s), s, coupled) for s in component.summands]
        singles = [s for s in component.summands if len(s) == 1]
        checks = [AuditCheck((names[split],), s[0], 1, d, r, True) for s in singles]
    else:
        ranks, degrees = component.ranks, component.degrees
        chains, checks = [(ranks, degrees, names)], []
        if ranks in ((1, 2), (2, 1)):
            # The rank-2 piece w holds lines w and w + 1, in weight order
            # and in the stratum's slope order: L has slope mu_(w+1).  The
            # pieces after it are 1 - w lines, the pieces before it w.
            w = ranks.index(2)
            steepest = stratum.mu6_vector[w] + 6 * sum(degrees[w + 1 :]), 6 * (2 - w)
            datum = sum(degrees[:w]) + inp.invariant, w + 1
            checks.append(AuditCheck(("L", *names[w + 2 :]), *steepest, d, r))
            checks.append(AuditCheck(names[: w + 1], *datum, d, r, False, True))
    for ranks, degrees, line_names in chains:
        for w in range(1, len(ranks)):
            tail = line_names[sum(ranks[:w]) :]
            checks.append(AuditCheck(tail, sum(degrees[w:]), sum(ranks[w:]), d, r))
    return checks
