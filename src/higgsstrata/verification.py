"""Acceptance suite: exact, property-style checks over desk-scale sweeps.

Every criterion is exact (zero tolerance) and takes one Sweep, the grid
it checks: by default genus 2..5 and |degree| <= 6, which runs in
seconds.  The checks live here; incidence only builds the tables they
read.  Each function returns a CriterionResult instead of raising, so
the CLI can report a full pass/fail summary.

The rank-3 criteria check each grid point's table in one checker,
_check_rank3, which runs each check once at the level where its inputs
change: per table, row, run (consecutive values of one outcome) or
value.  A check made per run lists its failure once per value of the run.

Criterion 2 compares integers.  In rank 3 every slope mu_i has
denominator 1 or 2, so 6*mu_i is an integer, and so are 6*v for an
integer invariant v and 18 times each threshold: the case-1 threshold
t = (-mu1 + 2*mu2 + 2*mu3)/3 and the total slope mu = (mu1 + mu2 +
mu3)/3.  So v < t is 3*(6v) < -6mu1 + 12mu2 + 12mu3, and so on for
every case inequality.  The scaled slopes are computed from each
stratum's ``hn.steps``, not read from the window the classifier
compares with (``window6``), so a fault in that window shows as a
disagreement instead of being shared.  Each row's feasible set, the
integers of its excluded gap and the values just outside the row come
from the same inequalities, so no check of criterion 2 reads the
classifier's data.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from . import fixed_points, incidence, limit_classifier, matrix_oracle
from .admissibility import CaseFamily
from .core import (
    CaseTag, Genus, HNType, HodgeBundle, StrataError, dominates, format_label
)
from .limit_classifier import AlignmentImpossible, InfeasibleBySpecialization, SlopeOutOfBounds
from .matrix_oracle import BlockPattern

GENERA = (2, 3, 4, 5)
DEGREES = tuple(range(-6, 7))


CriterionResult = namedtuple("CriterionResult", "number name passed details")


def _result(number: int, name: str, failures: list[str], detail: str) -> CriterionResult:
    if failures:
        shown = "; ".join(failures[:5])
        if len(failures) > 5:
            shown += f"; ... ({len(failures)} failures)"
        return CriterionResult(number, name, False, shown)
    return CriterionResult(number, name, True, detail)


class Sweep:
    """The grid the criteria check: every genus with every degree.  The
    six rank-3 criteria share one pass over it, made when the first of
    them asks; a new sweep makes a new pass."""

    def __init__(self, genera=GENERA, degrees=DEGREES) -> None:
        self.genera = tuple(genera)
        self.degrees = tuple(degrees)
        self._rank3: dict[int, CriterionResult] | None = None

    def points(self) -> list[tuple[Genus, int]]:
        return [(Genus(g), d) for g in self.genera for d in self.degrees]

    def rank3_result(self, number: int) -> CriterionResult:
        """Criterion 2, 3, 4, 5, 7 or 8, from the sweep's one rank-3 pass."""
        if self._rank3 is None:
            self._rank3 = {r.number: r for r in _rank3_grid_pass(self)}
        return self._rank3[number]


def _tables(rank: int, sweep: Sweep, rejections: list[str], errors: list[str]):
    # Each grid point's table in turn.  A rejected outcome (AssertionError) and
    # a refused feasible value (StrataError) become failures, not crashes.
    for genus, d in sweep.points():
        try:
            table = incidence.build_table(rank, d, genus)
        except AssertionError as exc:
            rejections.append(f"g={genus.g}, d={d}: {exc}")
            continue
        except StrataError as exc:
            errors.append(f"g={genus.g}, d={d}: {type(exc).__name__}: {exc}")
            continue
        yield table


def _check_rank2(table: incidence.IncidenceTable, failures: list[str]) -> None:
    # Criterion 1 on one table.  The stratum -> component map must be a
    # bijection onto the listed components: the semistable stratum to the
    # minimal component, and the stratum with subquotient degrees (d1, d2)
    # to the type-(1,1) component with the same degrees.  Their count is
    # recomputed from the bound d < 2*d1 <= d + 2g-2.
    genus, d = table.genus, table.degree
    components = fixed_points.enumerate_fixed_components(2, d, genus)
    reached = [row.runs[0][1].component for row in table.rows if len(row.feasible_set) == 1]
    expected = [HodgeBundle(*zip(*row.stratum.hn.steps)) for row in table.rows]
    if reached != expected or len(set(reached)) != len(reached) or set(reached) != set(components):
        failures.append(f"coincidence fails at rank 2, d={d}, g={genus.g}")
    k = genus.canonical_degree
    # One d1 beyond each end of the bound, so the inequality decides.
    window = range(d // 2, (d + k) // 2 + 2)
    by_bound = sum(1 for d1 in window if d < 2 * d1 <= d + k)
    if len(components) != 1 + by_bound or len(components) != genus.g:
        failures.append(
            f"component count {len(components)} != 1+{by_bound} (g={genus.g}, d={d})"
        )


def criterion_rank2_coincidence(sweep: Sweep | None = None) -> CriterionResult:
    """The two stratifications coincide in rank 2, with the component
    count recomputed from the bound d < 2*d1 <= d + 2g-2."""
    failures = []
    checked = 0
    for table in _tables(2, sweep or Sweep(), failures, failures):
        _check_rank2(table, failures)
        checked += 1
    return _result(1, "rank2-coincidence", failures, f"{checked} tables bijective")


def _case_inequalities(stratum) -> tuple | None:
    """The row's constants in the case inequalities of criterion 2, or
    None for a stratum that takes no slope invariant.

    Slopes are scaled by 6 and the threshold by 18, so the comparisons
    are of integers (see the module docstring).  They are taken from
    ``hn.steps``, never from the stratum's window, so that they stay
    independent of the classifier.  Returns the family's four tags, 6
    times the low end of case x.1, 18 times the threshold, 6 times the
    high end of case x.3, and 6 times case x.4's value (None when that
    case cannot occur).
    """
    family = stratum.case_family
    if family is not CaseFamily.CASE1_I and family is not CaseFamily.CASE2_N:
        return None
    m1, m2, m3 = (6 * d // r for r, d in stratum.hn.steps for _ in range(r))
    k6 = 6 * stratum.genus.canonical_degree
    if family is CaseFamily.CASE1_I:
        # mu1 - k <= v < t, v = t, t < v <= mu3, v = mu2 > mu3, with
        # t = (-mu1 + 2*mu2 + 2*mu3)/3.
        tags = (CaseTag.C1_1, CaseTag.C1_2, CaseTag.C1_3, CaseTag.C1_4)
        return tags, m1 - k6, -m1 + 2 * m2 + 2 * m3, m3, m2 if m2 > m3 else None
    # mu1 + mu2 - mu3 - k <= v < mu, v = mu, mu < v <= mu2, v = mu1 > mu2,
    # with mu = (mu1 + mu2 + mu3)/3.
    tags = (CaseTag.C2_1, CaseTag.C2_2, CaseTag.C2_3, CaseTag.C2_4)
    return tags, m1 + m2 - m3 - k6, m1 + m2 + m3, m2, m1 if m1 > m2 else None


def _case_matches(inequalities: tuple, v: int) -> list[CaseTag]:
    """Every case whose inequality the integer v satisfies, given the
    row's _case_inequalities: a direct translation, kept independent of
    the classifier's branch ordering."""
    (x1, x2, x3, x4), low6, threshold18, high6, isolated6 = inequalities
    v6 = 6 * v
    v18 = 3 * v6
    matches = []
    if low6 <= v6 and v18 < threshold18:
        matches.append(x1)
    if v18 == threshold18:
        matches.append(x2)
    if threshold18 < v18 and v6 <= high6:
        matches.append(x3)
    if v6 == isolated6:
        matches.append(x4)
    return matches


def _feasible_reference(stratum, inequalities: tuple | None) -> tuple:
    """A row's feasible set from ``hn.steps``: the integers of cases x.1 to
    x.3, then case x.4's value; or the flags, False if mu1 - mu3 <= 2g-2."""
    if inequalities is None:
        (_, d1), _, (_, d3) = stratum.hn.steps
        return (True, False) if d1 - d3 <= stratum.genus.canonical_degree else (True,)
    _, low6, _, high6, isolated6 = inequalities
    values = tuple(range(-(-low6 // 6), high6 // 6 + 1))
    return values if isolated6 is None else (*values, isolated6 // 6)


def _gap_values(inequalities: tuple | None) -> range:
    """A row's excluded gap from its _case_inequalities: the integers
    strictly between case x.3's high end and case x.4's value, none when
    case x.4 cannot occur or the stratum takes no slope invariant."""
    if inequalities is None or inequalities[4] is None:
        return range(0)
    _, _, _, high6, isolated6 = inequalities
    return range(high6 // 6 + 1, -(-isolated6 // 6))


def _check_refused(stratum, what: str, v, error: type, failures: list[str]) -> None:
    # Criterion 2 on one invariant the row leaves out, a gap value, an
    # edge value or a flag: the classifier must refuse it with error.
    try:
        limit_classifier.classify_rank3(limit_classifier.ClassifierInput(stratum, v))
        failures.append(f"{stratum.hn} {what} {v} did not raise")
    except error:
        pass
    except limit_classifier.ClassificationError as exc:
        failures.append(f"{stratum.hn} {what} {v}: wrong error {exc!r}")


def _check_edges(stratum, inequalities: tuple | None, reference: tuple, failures) -> None:
    # Criterion 2 just outside a row: one below its first and one above
    # its last feasible value, refused as infeasible inside the gap and as
    # out of bounds elsewhere; for a balanced row of True alone, the flag
    # False.
    if inequalities is not None:
        gap = _gap_values(inequalities)
        for v in (reference[0] - 1, reference[-1] + 1):
            error = InfeasibleBySpecialization if v in gap else SlopeOutOfBounds
            _check_refused(stratum, "edge value", v, error, failures)
    elif reference == (True,):
        _check_refused(stratum, "flag", False, AlignmentImpossible, failures)


def _check_hn_bb(table: incidence.IncidenceTable, failures: list[str]) -> int:
    # Criterion 5 on one table; returns the number of labels verified.
    # Each type-(1,1,1) label with l1 - l3 > 2g-2 must be reached by the
    # stratum with the same slope vector alone, from its whole feasible
    # set.  The table's type-(1,2) and (2,1) labels, found by classifying,
    # must be the ones fixed_points lists in closed form.
    labels = table.bb_map()  # derived from the rows on each read
    reached = {
        label for label in labels
        if isinstance(label, HodgeBundle) and label.ranks in ((1, 2), (2, 1))
    }
    if reached != set(fixed_points._reachable_pair_labels(table.degree, table.genus)):
        failures.append(
            f"g={table.genus.g}, d={table.degree}: type-(1,2)/(2,1) labels "
            "differ from the fixed components"
        )
    k = table.genus.canonical_degree
    preimages: dict[HodgeBundle, list[HNType]] = {}  # a stratum per value
    for row in table.rows:
        for values, outcome in row.runs:
            if not outcome.strictly_polystable and outcome.component.ranks == (1, 1, 1):
                preimages.setdefault(outcome.component, []).extend([row.stratum.hn] * len(values))
    rows = {row.stratum.hn: row for row in table.rows}
    verified = []
    for label, strata in preimages.items():
        if label.degrees[0] - label.degrees[2] <= k:
            continue
        expected_hn = HNType(tuple((1, l) for l in label.degrees))
        if set(strata) != {expected_hn}:
            failures.append(
                f"label {format_label(label)}: preimage strata "
                f"{sorted(map(str, set(strata)))} != {{{expected_hn}}}"
            )
        elif len(strata) != len(rows[expected_hn].feasible_set):
            failures.append(
                f"label {format_label(label)}: only {len(strata)} of "
                f"{len(rows[expected_hn].feasible_set)} feasible values reach it"
            )
        else:
            verified.append(label)
    if (table.genus.g, table.degree) == (2, 0):
        spread, narrow = HodgeBundle((1, 1, 1), (2, 0, -2)), HodgeBundle((1, 1, 1), (1, 0, -1))
        if spread not in verified:
            failures.append("(2,0,-2) not verified at g=2, d=0")
        if narrow in verified:
            failures.append("(1,0,-1) wrongly in scope at g=2, d=0")
        if narrow not in labels:
            failures.append("(1,0,-1) missing from the g=2, d=0 table")
    return len(verified)


# Criterion 7's two anchored block-scaling computations: block pattern,
# then the limit's exponents and nonzero Higgs blocks, and their shape.
_ANCHORED_LIMITS = (
    # Weights (0,1), everything nonzero.
    ("two-piece",
     BlockPattern((0, 1), {(1, 1), (1, 2), (2, 1), (2, 2)}, {(1, 2)}),
     ((1, 2), (0, 1)), {(2, 1)}, "the single subdiagonal block"),
    # Weights (0,1,2), bottom-left block zero.
    ("three-piece",
     BlockPattern(
         (0, 1, 2),
         {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)},
         {(1, 2), (1, 3), (2, 3)},
     ),
     ((1, 2, 3), (0, 1, 2), (-1, 0, 1)), {(2, 1), (3, 2)}, "the subdiagonal chain"),
)


def _check_rank3(table: incidence.IncidenceTable, failures: dict[int, list[str]]) -> tuple:
    """Criteria 2, 3, 4, 5 and 8 on one rank-3 table; returns the counts
    their passing texts report: values classified, gap values excluded,
    coprime values and labels verified.  Per table: gcd(3, d).  Per row:
    no balanced stratum at a coprime degree, and runs that hold each value
    of _feasible_reference once, in order.  Per run: the limit's end point
    and dominance, the polystable check and the audit.  Per value: the
    case match and the audit's datum check, whose degree moves with it."""
    d = table.degree
    coprime = gcd(3, d) == 1
    classified = gap_checked = 0
    for row in table.rows:
        stratum = row.stratum
        if stratum.is_semistable:
            continue
        if coprime and stratum.case_family is CaseFamily.CASE3_FLAG:
            failures[4].append(f"balanced stratum {stratum.hn} at coprime d={d}")
        inequalities = _case_inequalities(stratum)
        reference = _feasible_reference(stratum, inequalities)
        if row.feasible_set != reference:
            failures[2].append(f"runs of {stratum.hn} at g={table.genus.g} miss or repeat a value")
        end = (stratum.hn.total_rank, stratum.hn.total_degree)
        for values, outcome in row.runs:
            n, tag, limit = len(values), outcome.case_tag, outcome.hnt_limit
            classified += n
            limit_end = (limit.total_rank, limit.total_degree)
            if limit_end != end:
                failures[3] += [f"{stratum.hn} -> {limit} ends at {limit_end}, not {end}"] * n
            elif not dominates(limit, stratum.hn):
                failures[3] += [f"{stratum.hn} -> {limit} fails to rise"] * n
            if coprime and outcome.strictly_polystable:
                failures[4] += [f"polystable limit for {stratum.hn} at d={d}"] * n
            # Audited at the run's first value.  Only a case-x.1 run has a
            # datum check; its degree moves with the value.
            checks = limit_classifier.stability_audit(
                outcome, limit_classifier.ClassifierInput(stratum, values[0])
            )
            fixed_hold, fixed_equalities, moving = True, 0, None
            for c in checks:
                if c.datum:
                    moving = c
                else:
                    fixed_hold = fixed_hold and c.holds
                    fixed_equalities += c.is_equality
            for value in values:
                if inequalities is None:
                    if tag is not (CaseTag.C3_1 if value else CaseTag.C3_2):
                        failures[2].append(f"{stratum.hn} flag={value}: {tag}")
                else:
                    matches = _case_matches(inequalities, value)
                    if len(matches) != 1 or matches[0] is not tag:
                        failures[2].append(
                            f"{stratum.hn} v={value}: classifier says "
                            f"{tag.value}, inequalities match {matches}"
                        )
                holds, equalities = fixed_hold, fixed_equalities
                if moving is not None:  # a strict check, at this value's degree
                    excess = (moving.degree + value - values[0]) * moving.r
                    excess -= moving.d * moving.rank
                    holds, equalities = holds and excess < 0, equalities + (excess == 0)
                if not holds:
                    failures[8].append(f"audit fails for {tag.value} of {stratum.hn}")
                if equalities != (1 if outcome.strictly_polystable else 0):
                    failures[8].append(f"{stratum.hn} case {tag.value}: {equalities} equalities")
        for v in _gap_values(inequalities):
            gap_checked += 1
            _check_refused(stratum, "gap value", v, InfeasibleBySpecialization, failures[2])
        _check_edges(stratum, inequalities, reference, failures[2])
    return classified, gap_checked, classified if coprime else 0, _check_hn_bb(table, failures[5])


def _rank3_grid_pass(sweep: Sweep) -> tuple[CriterionResult, ...]:
    """Criteria 2, 3, 4, 5, 7 and 8 from one pass over the rank-3 grid:
    each table is built, checked and dropped before the next.  A table
    that could not be built fails criterion 7 (the oracle rejected an
    outcome) or 2 (a classifier error on a feasible value)."""
    failures: dict[int, list[str]] = {n: [] for n in (2, 3, 4, 5, 7, 8)}
    counts = [_check_rank3(t, failures) for t in _tables(3, sweep, failures[7], failures[2])]
    classified, gap_checked, coprime_count, verified_total = map(sum, zip((0, 0, 0, 0), *counts))
    for name, pattern, exponents, higgs, shape in _ANCHORED_LIMITS:
        lim = matrix_oracle.take_limit(pattern)
        if lim.exponents != exponents:
            failures[7].append(f"{name} exponents {lim.exponents}")
        if not lim.converges or lim.limit_higgs != higgs:
            failures[7].append(f"{name} limit is not {shape}")
        if lim.limit_dbar:
            failures[7].append(f"{name} limit dbar did not diagonalize")
    return (
        _result(2, "exhaustive-classification", failures[2],
                f"{classified} classifications unique, {gap_checked} gap values excluded"),
        _result(3, "specialization-monotonicity", failures[3], f"{classified} outcomes dominate"),
        _result(4, "coprime-degrees", failures[4], f"{coprime_count} coprime outcomes all stable"),
        _result(5, "hn-bb-coincidence", failures[5], f"{verified_total} labels verified"),
        _result(7, "oracle-equivalence", failures[7], f"{classified} outcomes confirmed"),
        _result(8, "stability-audit", failures[8], f"{classified} audits with exact strictness"),
    )


def criterion_exhaustive_classification(sweep: Sweep | None = None) -> CriterionResult:
    """Every feasible invariant fires exactly one case (checked against
    an independent inequality evaluation); every integer in the excluded
    gaps raises InfeasibleBySpecialization; and each row's edges hold:
    one below its first and one above its last feasible value raise
    InfeasibleBySpecialization inside a gap and SlopeOutOfBounds
    elsewhere, and the flag False of a balanced row that admits only
    True raises AlignmentImpossible."""
    return (sweep or Sweep()).rank3_result(2)


def criterion_specialization_monotonicity(sweep: Sweep | None = None) -> CriterionResult:
    """The HN polygon of the limit ends where the input polygon does and
    dominates it."""
    return (sweep or Sweep()).rank3_result(3)


def criterion_coprime_degrees(sweep: Sweep | None = None) -> CriterionResult:
    """gcd(3, d) = 1 forbids strictly polystable limits and balanced strata."""
    return (sweep or Sweep()).rank3_result(4)


def criterion_hn_bb_theorem(sweep: Sweep | None = None) -> CriterionResult:
    """Sufficiently spread type-(1,1,1) labels have singleton preimage;
    the (g=2, d=0) instance verifies (2,0,-2) and excludes (1,0,-1); and
    each table reaches exactly the type-(1,2)/(2,1) components listed."""
    return (sweep or Sweep()).rank3_result(5)


def criterion_fixed_point_enumeration(sweep: Sweep | None = None) -> CriterionResult:
    """(g=2, d=0) has exactly the two expected type-(1,1,1) components,
    and the two invariant dictionaries round-trip on everything
    enumerated."""
    failures = []
    round_trips = 0
    expected = [HodgeBundle((1, 1, 1), (1, 0, -1)), HodgeBundle((1, 1, 1), (2, 0, -2))]
    got = fixed_points.enumerate_fixed_111(0, Genus(2))
    if got != expected:
        failures.append(f"g=2, d=0 components {got} != {expected}")
    for genus, d in (sweep or Sweep()).points():
        for m in fixed_points.enumerate_m_invariants(d, genus):
            if fixed_points.l_to_m(fixed_points.m_to_l(m), genus) != m:
                failures.append(f"m-round-trip fails for {m}")
            round_trips += 1
        for label in fixed_points.enumerate_fixed_111(d, genus):
            if fixed_points.m_to_l(fixed_points.l_to_m(label, genus)) != label:
                failures.append(f"l-round-trip fails for {label}")
            round_trips += 1
    return _result(6, "fixed-point-enumeration", failures, f"{round_trips} round-trips exact")


def criterion_oracle_equivalence(sweep: Sweep | None = None) -> CriterionResult:
    """The gauge-scaling engine confirms 100% of sweep outcomes and
    reproduces the two anchored block-scaling computations exactly."""
    return (sweep or Sweep()).rank3_result(7)


def criterion_stability_audit(sweep: Sweep | None = None) -> CriterionResult:
    """Every audited inequality holds, strictly except for exactly one
    equality in each strictly polystable case."""
    return (sweep or Sweep()).rank3_result(8)


def criterion_determinism(sweep: Sweep | None = None) -> CriterionResult:
    """Identical incidence queries serialize to byte-identical JSON.  The
    three queries are fixed, so the sweep is not read."""
    from . import cli  # local import: cli drives this module's run_all

    failures = []
    for rank, degree, genus in ((3, 0, 2), (3, 1, 3), (2, 1, 2)):
        config = cli.RunConfig(
            command="incidence", genus=genus, rank=rank, degree=degree, format="json"
        )
        try:
            code1, out1 = cli.run(config)
            code2, out2 = cli.run(config)
        except (AssertionError, StrataError) as exc:
            kind = type(exc).__name__
            failures.append(f"incidence run failed for rank {rank}, d={degree}: {kind}: {exc}")
            continue
        if code1 != 0 or code2 != 0:
            failures.append(f"incidence run failed for rank {rank}, d={degree}")
        elif out1.encode() != out2.encode():
            failures.append(f"output differs for rank {rank}, d={degree}")
    return _result(9, "determinism", failures, "3 queries byte-identical")


ALL_CRITERIA = (
    criterion_rank2_coincidence,
    criterion_exhaustive_classification,
    criterion_specialization_monotonicity,
    criterion_coprime_degrees,
    criterion_hn_bb_theorem,
    criterion_fixed_point_enumeration,
    criterion_oracle_equivalence,
    criterion_stability_audit,
    criterion_determinism,
)


def run_all(genera=GENERA, degrees=DEGREES) -> list[CriterionResult]:
    """Every criterion's result over one new sweep: no pass is reused."""
    sweep = Sweep(genera, degrees)
    return [criterion(sweep) for criterion in ALL_CRITERIA]
