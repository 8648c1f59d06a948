"""The acceptance suite's own machinery: the rank-3 checker of one table,
the one pass over the rank-3 grid that a sweep shares, criterion 2's
integer case inequalities against a Fraction reference, mutations the
pass must catch, and grids beyond the default."""

import bisect
import inspect
import math
import textwrap
from fractions import Fraction

import pytest

from higgsstrata import (
    admissibility, cli, fixed_points, incidence, limit_classifier, matrix_oracle, verification
)
from higgsstrata.admissibility import CaseFamily, enumerate_strata
from higgsstrata.core import CaseTag, Genus, LimitOutcome

GRID_CRITERIA = (
    verification.criterion_exhaustive_classification,
    verification.criterion_specialization_monotonicity,
    verification.criterion_coprime_degrees,
    verification.criterion_hn_bb_theorem,
    verification.criterion_oracle_equivalence,
    verification.criterion_stability_audit,
)


@pytest.fixture
def classify_rank3_calls(monkeypatch):
    """Count classify_rank3 calls."""
    calls = []
    classify_rank3 = limit_classifier.classify_rank3

    def counting(inp):
        calls.append(inp)
        return classify_rank3(inp)

    monkeypatch.setattr(limit_classifier, "classify_rank3", counting)
    return calls


def test_run_all_classifies_each_grid_entry_once(classify_rank3_calls):
    # The tables' 2188 feasible entries go through the row routine, not
    # classify_rank3, and so do criterion 9's incidence runs: it decides
    # only what the rows leave out, once each.  That is the 668 gap values,
    # the 1532 values just outside the 766 slope rows, and the flag False
    # of the 50 balanced rows that admit True alone.
    results = verification.run_all()
    assert all(r.passed for r in results)
    assert len(classify_rank3_calls) == 668 + 1532 + 50
    flags = [inp.invariant for inp in classify_rank3_calls if isinstance(inp.invariant, bool)]
    assert flags == [False] * 50


def test_grid_criteria_share_one_pass(classify_rank3_calls):
    # The six grid criteria given one sweep classify once; a new sweep over
    # the same grid classifies again.
    sweep = verification.Sweep([2, 3], range(-2, 3))
    first = GRID_CRITERIA[-1](sweep)
    calls = len(classify_rank3_calls)
    assert calls > 0
    results = [criterion(sweep) for criterion in GRID_CRITERIA]
    assert len(classify_rank3_calls) == calls
    assert results[-1] is first
    assert [r.number for r in results] == [2, 3, 4, 5, 7, 8]
    assert all(r.passed for r in results)
    again = GRID_CRITERIA[0](verification.Sweep([2, 3], range(-2, 3)))
    assert len(classify_rank3_calls) == 2 * calls
    assert again == results[0]


def test_rank2_component_count_at_large_canonical_degree():
    # 2g-2 = 14 reaches past the old fixed window range(d - 10, d + 10).
    result = verification.criterion_rank2_coincidence(verification.Sweep((8,), (-6,)))
    assert result.passed, result.details


def test_rank2_coincidence_over_a_wider_grid():
    result = verification.criterion_rank2_coincidence(
        verification.Sweep(range(2, 13), range(-12, 13))
    )
    assert result.passed, result.details
    assert result.details == "275 tables bijective"


def test_check_rank3_on_one_table_outside_the_grid():
    # g=7, d=1 is outside the default grid.  The checker fails nothing and
    # counts each feasible value of the unstable rows once, all of them
    # coprime.  A wrong case tag on one run of a rebuilt table then fails
    # criterion 2 once per value of the run, and nothing else.
    table = incidence.build_table(3, 1, Genus(7))
    failures = {n: [] for n in (2, 3, 4, 5, 8)}
    classified, gaps, coprime, labels = verification._check_rank3(table, failures)
    assert failures == {n: [] for n in (2, 3, 4, 5, 8)}
    unstable = [row for row in table.rows if not row.stratum.is_semistable]
    feasible = sum(len(limit_classifier.feasible_inputs(row.stratum)) for row in unstable)
    assert classified == coprime == feasible > 0
    assert gaps > 0 and labels > 0

    at = next(i for i, row in enumerate(table.rows) if row.runs[0][1].case_tag is CaseTag.C1_1)
    row = table.rows[at]
    (values, outcome), *rest = row.runs
    wrong = LimitOutcome(CaseTag.C1_3, outcome.component, outcome.hnt_limit)
    rows = list(table.rows)
    rows[at] = incidence.IncidenceRow(row.stratum, ((values, wrong), *rest))
    rebuilt = incidence.IncidenceTable(3, 1, Genus(7), tuple(rows))
    failures = {n: [] for n in (2, 3, 4, 5, 8)}
    assert verification._check_rank3(rebuilt, failures) == (classified, gaps, coprime, labels)
    assert {n: len(f) for n, f in failures.items()} == {2: len(values), 3: 0, 4: 0, 5: 0, 8: 0}
    assert failures[2][0].startswith(f"{row.stratum.hn} v={values[0]}: classifier says 1.3")


def test_oracle_rejection_fails_criterion_7_without_raising(monkeypatch):
    # build_table raises AssertionError when the oracle rejects an
    # outcome; verify must report that as a failed criterion.
    monkeypatch.setattr(matrix_oracle, "oracle_check", lambda outcome: False)
    results = verification.run_all()
    oracle = next(r for r in results if r.number == 7)
    assert not oracle.passed
    assert oracle.details.startswith("g=2, d=-6: gauge-scaling check failed")


SLOPE_TAGS = (
    CaseTag.C1_1, CaseTag.C1_2, CaseTag.C1_3, CaseTag.C1_4,
    CaseTag.C2_1, CaseTag.C2_2, CaseTag.C2_3, CaseTag.C2_4,
)


def _fraction_case_matches(stratum, v):
    # Reference for criterion 2: the case inequalities read directly,
    # in Fraction arithmetic on the stratum's slopes.
    mu1, mu2, mu3 = stratum.hn.mu_vector
    mu = Fraction(stratum.hn.total_degree, stratum.hn.total_rank)
    k = stratum.genus.canonical_degree
    t = Fraction(-mu1 + 2 * mu2 + 2 * mu3, 3)
    family = stratum.case_family
    matches = []
    if family is CaseFamily.CASE1_I:
        if mu1 - k <= v < t:
            matches.append(CaseTag.C1_1)
        if v == t:
            matches.append(CaseTag.C1_2)
        if t < v <= mu3:
            matches.append(CaseTag.C1_3)
        if v == mu2 and mu2 > mu3:
            matches.append(CaseTag.C1_4)
    elif family is CaseFamily.CASE2_N:
        if mu1 + mu2 - mu3 - k <= v < mu:
            matches.append(CaseTag.C2_1)
        if v == mu:
            matches.append(CaseTag.C2_2)
        if mu < v <= mu2:
            matches.append(CaseTag.C2_3)
        if v == mu1 and mu1 > mu2:
            matches.append(CaseTag.C2_4)
    return matches


def test_integer_case_inequalities_match_the_fraction_reference():
    # Every integer from 3 below the low end to 3 above gap_high, so each
    # of the eight cases, the empty gap matches and the values out of
    # bounds all occur.
    tags, sizes = set(), set()
    for g in range(2, 9):
        genus = Genus(g)
        k = genus.canonical_degree
        for d in range(-8, 9):
            for stratum in enumerate_strata(3, d, genus):
                inequalities = verification._case_inequalities(stratum)
                family = stratum.case_family
                if family not in (CaseFamily.CASE1_I, CaseFamily.CASE2_N):
                    assert inequalities is None
                    continue
                mu1, mu2, mu3 = stratum.hn.mu_vector
                if family is CaseFamily.CASE1_I:
                    low, gap_high = mu1 - k, mu2
                else:
                    low, gap_high = mu1 + mu2 - mu3 - k, mu1
                for v in range(math.floor(low) - 3, math.ceil(gap_high) + 4):
                    expected = _fraction_case_matches(stratum, v)
                    assert verification._case_matches(inequalities, v) == expected, (
                        stratum.hn, v,
                    )
                    tags.update(expected)
                    sizes.add(len(expected))
    assert tags == set(SLOPE_TAGS)
    assert sizes == {0, 1}


def test_relabelled_isolated_point_fails_criterion_2(monkeypatch):
    # Case 1.4 relabelled as 1.3 keeps its type-(1,1,1) component, which
    # the oracle and the audit accept; only criterion 2 tells them apart.
    classify_stratum = limit_classifier.classify_stratum

    def relabelled(stratum, outcomes):
        return tuple(
            (values, LimitOutcome(CaseTag.C1_3, outcome.component, outcome.hnt_limit)
             if outcome.case_tag is CaseTag.C1_4 else outcome)
            for values, outcome in classify_stratum(stratum, outcomes)
        )

    monkeypatch.setattr(limit_classifier, "classify_stratum", relabelled)
    results = verification.run_all()
    failed = {r.number: r.details for r in results if not r.passed}
    assert list(failed) == [2]
    assert "classifier says 1.3" in failed[2]


def test_polygon_that_fails_to_rise_fails_criterion_3(monkeypatch):
    monkeypatch.setattr(verification, "dominates", lambda p, q: False)
    result = verification.criterion_specialization_monotonicity()
    assert not result.passed
    assert "fails to rise" in result.details
    assert result.details.endswith("(2188 failures)")


def test_every_degree_taken_as_coprime_fails_criterion_4(monkeypatch):
    # With gcd(3, d) = 1 everywhere, criterion 4 lists each balanced stratum
    # once and each polystable limit once per value, in table order.
    monkeypatch.setattr(verification, "gcd", lambda a, b: 1)
    result = verification.criterion_coprime_degrees()
    assert not result.passed
    assert result.details == (
        "polystable limit for 2:-3,1:-3 at d=-6; polystable limit for 1:-1,2:-5 at d=-6; "
        "balanced stratum 1:-1,1:-2,1:-3 at coprime d=-6; "
        "polystable limit for 1:-1,1:-2,1:-3 at d=-6; "
        "balanced stratum 1:0,1:-2,1:-4 at coprime d=-6; ... (280 failures)"
    )


def test_wide_grid_passes():
    # g 2..12 and |d| <= 12: 275 rank-3 tables, 97 273 entries.
    results = verification.run_all(genera=range(2, 13), degrees=range(-12, 13))
    assert [r for r in results if not r.passed] == []
    details = {r.number: r.details for r in results}
    assert details[2] == "96998 classifications unique, 80092 gap values excluded"


def test_pair_label_missing_from_the_closed_form_fails_criterion_5(monkeypatch):
    # Drop the last type-(2,1) label at g=3, d=1: the table still reaches it.
    listed = fixed_points._reachable_pair_labels

    def dropped(degree, genus):
        labels = listed(degree, genus)
        return labels[:-1] if (genus.g, degree) == (3, 1) else labels

    monkeypatch.setattr(fixed_points, "_reachable_pair_labels", dropped)
    results = verification.run_all()
    failed = {r.number: r.details for r in results if not r.passed}
    assert failed == {5: "g=3, d=1: type-(1,2)/(2,1) labels differ from the fixed components"}


def test_run_all_audits_each_run_once(monkeypatch):
    # 1534 runs hold the default grid's 2188 classified values; criterion 8
    # still reports one audit per value.
    audited = []
    stability_audit = limit_classifier.stability_audit

    def counting(outcome, inp):
        audited.append(inp)
        return stability_audit(outcome, inp)

    monkeypatch.setattr(limit_classifier, "stability_audit", counting)
    results = verification.run_all()
    assert [r for r in results if not r.passed] == []
    assert len(audited) == 1534
    assert results[7].details == "2188 audits with exact strictness"


def test_repeated_run_fails_criterion_2(monkeypatch):
    # The first rank-3 row of more than one run lists its last run twice.
    # Each repeated value keeps its outcome, so the case inequalities, the
    # dominance and the audit all still agree; only the check that a row
    # holds each feasible value once tells.
    classify_stratum = limit_classifier.classify_stratum
    repeated = []

    def repeating(stratum, interned):
        runs = classify_stratum(stratum, interned)
        if repeated or stratum.hn.total_rank != 3 or len(runs) < 2:
            return runs
        repeated.append((str(stratum), stratum.genus.g, stratum.hn.total_degree))
        return (*runs, runs[-1])

    monkeypatch.setattr(limit_classifier, "classify_stratum", repeating)
    results = verification.run_all()
    assert repeated == [("1:-1,1:-2,1:-3", 2, -6)]
    failed = {r.number: r.details for r in results if not r.passed}
    assert list(failed) == [2]
    assert "runs of 1:-1,1:-2,1:-3 at g=2 miss or repeat a value" in failed[2]


def test_value_past_a_case_x1_run_fails_criteria_2_and_8(monkeypatch):
    # The first case-1.1 run of more than one value that ends just below
    # an integer threshold t gets t as one more value.  At t the datum
    # check, E1 + I < mu, is an equality, so the audit fails at the run's
    # last value only, not at its first.
    classify_stratum = limit_classifier.classify_stratum
    widened = []

    def widening(stratum, interned):
        runs = classify_stratum(stratum, interned)
        if widened or not runs or not isinstance(runs[0][0], range) or len(runs[0][0]) < 2:
            return runs
        (values, outcome), threshold6 = runs[0], stratum.window6[3]
        if stratum.case_family is not CaseFamily.CASE1_I or threshold6 != 6 * values.stop:
            return runs
        widened.append((str(stratum), stratum.genus.g, range(values.start, values.stop + 1)))
        return ((widened[0][2], outcome), *runs[1:])

    monkeypatch.setattr(limit_classifier, "classify_stratum", widening)
    results = verification.run_all()
    assert widened == [("1:-1,2:-5", 3, range(-5, -2))]
    failed = {r.number: r.details for r in results if not r.passed}
    assert list(failed) == [2, 8]
    assert failed[8] == (
        "audit fails for 1.1 of 1:-1,2:-5; 1:-1,2:-5 case 1.1: 1 equalities"
    )


def test_classifier_error_in_a_table_fails_criterion_2(monkeypatch, capsys):
    # The mutant "mu1 - mu3 >= k" of case 3.2's bound refuses a balanced
    # stratum with mu1 - mu3 = 2g-2, which is feasible.  Every table that
    # holds one then fails to build with AlignmentImpossible: verify names
    # the grid point and the error kind, and still reports all nine
    # criteria.
    classify_case3 = limit_classifier._classify_case3

    def mutant(stratum, aligned):
        mu1, _, mu3 = (m // 6 for m in stratum.mu6_vector)
        k = stratum.genus.canonical_degree
        if not aligned and mu1 - mu3 == k:
            raise limit_classifier.AlignmentImpossible(
                f"mu1 - mu3 = {mu1 - mu3} > 2g-2 = {k} forces N = E1"
            )
        return classify_case3(stratum, aligned)

    monkeypatch.setattr(limit_classifier, "_classify_case3", mutant)
    results = verification.run_all()
    failed = {r.number: r.details for r in results if not r.passed}
    assert list(failed) == [2, 9]
    assert failed[2].startswith(
        "g=2, d=-6: AlignmentImpossible: mu1 - mu3 = 2 > 2g-2 = 2 forces N = E1; "
    )
    assert "incidence run failed for rank 3, d=0: AlignmentImpossible" in failed[9]

    assert cli.main(["verify"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 10 and lines[-1] == "7/9 criteria passed"
    assert lines[1].startswith("FAIL 2. exhaustive-classification: g=2, d=-6: AlignmentImpossible")
    assert err == ""


# Mutants of the row routine, each one exact-text replacement in its
# source, with the criteria it must fail: the value and the rest swapped
# in the weight order (A), and the case x.2 line taken from the other end
# of the graded degrees (B), which the oracle and the case inequalities
# accept and the audit refuses; a limit of one degree too many (C), whose
# polygon ends where the stratum's does not (3) and whose steps, at some
# grid points, are out of slope order, so the table cannot be built (2
# and 9); and the x.1 run split off past the threshold's ceiling (D), so
# the value at an integer threshold, and the first one above a proper
# fraction, are classified as case x.1.  In rows with no value truly below
# the threshold that gives a type-(1,2) or (2,1) label outside the closed
# form, which check_outcome refuses: no table builds (7 and 9).  With that
# check loosened, D fails criteria 2, 5 and 8 instead.
ROW_ROUTINE_MUTANTS = {
    "A": ("graded = before + (v, rest) + after", "graded = before + (rest, v) + after", [8]),
    "B": (
        "split = fam.refined, _LINE_NAMES[stratum.case_family][1]",
        "split = fam.refined, 2 - _LINE_NAMES[stratum.case_family][1]", [8],
    ),
    "C": ("_hn_lines(*before, rest, v, *after)", "_hn_lines(*before, rest, v + 1, *after)", [2, 3, 9]),
    "D": ("below = bisect_left(values,", "below = bisect_right(values,", [7, 9]),
}


def _mutant_slope_runs(old, new):
    source = inspect.getsource(limit_classifier._slope_runs)
    assert source.count(old) == 1
    namespace = {**vars(limit_classifier), "bisect_right": bisect.bisect_right}
    exec(source.replace(old, new), namespace)
    return namespace["_slope_runs"]


@pytest.mark.parametrize("mutant", sorted(ROW_ROUTINE_MUTANTS))
def test_row_routine_mutant_fails_its_criteria(monkeypatch, mutant):
    old, new, failing = ROW_ROUTINE_MUTANTS[mutant]
    monkeypatch.setattr(limit_classifier, "_slope_runs", _mutant_slope_runs(old, new))
    results = verification.run_all()
    assert len(results) == 9
    assert [r.number for r in results if not r.passed] == failing


# Mutants of the feasible sets, each an exact-text patch of one function,
# that only criterion 2's reference from hn.steps tells apart: the flag
# False dropped when mu1 - mu3 = 2g-2, and the isolated point added when
# the gap is empty, so that gap_low comes twice in a row.
FEASIBLE_SET_MUTANTS = {
    "feasible_inputs": (
        limit_classifier, "feasible_inputs", "m1 - m3 <= 6", "m1 - m3 < 6"
    ),
    "AdmissibleStratum.__init__": (
        admissibility.AdmissibleStratum, "__init__",
        "gap_high6 > gap_low6", "gap_high6 >= gap_low6",
    ),
}


@pytest.mark.parametrize("mutant", sorted(FEASIBLE_SET_MUTANTS))
def test_feasible_set_mutant_fails_criterion_2(monkeypatch, mutant):
    owner, name, old, new = FEASIBLE_SET_MUTANTS[mutant]
    function = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    namespace = dict(vars(inspect.getmodule(function)))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(owner, name, namespace[name])
    results = verification.run_all()
    assert len(results) == 9
    failed = {r.number: r.details for r in results if not r.passed}
    assert list(failed) == [2]
    assert " miss or repeat a value" in failed[2]


# Mutants of the refusals, each an exact-text patch of one function, that
# only criterion 2's checks just outside each row catch: a window one value
# wider below, and case 3.2's bound moved by 2.  Moved by 1 it would change
# nothing, since a balanced stratum has mu1 - mu3 even.
EDGE_MUTANTS = {
    "_check_window": ("if v6 < low6:", "if v6 < low6 - 6:", "edge value"),
    "_classify_case3": ("if mu1 - mu3 > k:", "if mu1 - mu3 > k + 2:", "flag False did not raise"),
}


@pytest.mark.parametrize("mutant", sorted(EDGE_MUTANTS))
def test_edge_mutant_fails_criterion_2(monkeypatch, mutant):
    old, new, detail = EDGE_MUTANTS[mutant]
    source = inspect.getsource(getattr(limit_classifier, mutant))
    assert source.count(old) == 1
    namespace = dict(vars(limit_classifier))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(limit_classifier, mutant, namespace[mutant])
    results = verification.run_all()
    assert len(results) == 9
    failed = {r.number: r.details for r in results if not r.passed}
    assert list(failed) == [2]
    assert detail in failed[2]


def test_limit_of_the_wrong_degree_fails_criterion_3_in_verify(monkeypatch, capsys):
    # Mutant C: verify names the stratum whose limit ends elsewhere,
    # instead of raising from dominates.
    old, new, _ = ROW_ROUTINE_MUTANTS["C"]
    monkeypatch.setattr(limit_classifier, "_slope_runs", _mutant_slope_runs(old, new))
    assert cli.main(["verify"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[-1] == "6/9 criteria passed" and err == ""
    assert lines[2].startswith(
        "FAIL 3. specialization-monotonicity: 2:-3,1:-3 -> 2:-2,1:-3 ends at (3, -5), not (3, -6); "
    )


def test_run_all_makes_a_new_pass_after_the_code_changes(monkeypatch, capsys):
    # A second run_all in one process, after the row routine changed, must
    # not report the first one's pass: that one passed 9/9.
    assert all(r.passed for r in verification.run_all())
    routine = _mutant_slope_runs(*ROW_ROUTINE_MUTANTS["A"][:2])
    monkeypatch.setattr(limit_classifier, "_slope_runs", routine)
    assert [r.number for r in verification.run_all() if not r.passed] == [8]
    assert cli.main(["verify"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "8/9 criteria passed"


def test_single_criterion_makes_a_new_pass_after_the_code_changes(monkeypatch):
    # Each call without a sweep makes a new default one: the second call,
    # after mutant A, must not read the first call's pass.
    assert verification.criterion_stability_audit().passed
    routine = _mutant_slope_runs(*ROW_ROUTINE_MUTANTS["A"][:2])
    monkeypatch.setattr(limit_classifier, "_slope_runs", routine)
    assert not verification.criterion_stability_audit().passed
