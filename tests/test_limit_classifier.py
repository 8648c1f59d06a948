"""The limit decision procedure: all case routes, errors and the audit."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsstrata import (
    AdmissibleStratum,
    AlignmentImpossible,
    CaseFamilyMismatch,
    ClassificationError,
    ClassifierInput,
    Genus,
    InfeasibleBySpecialization,
    HodgeBundle,
    InvalidInvariant,
    LimitOutcome,
    PolystableSum,
    Rank2BoundViolated,
    SlopeOutOfBounds,
    StrataError,
    build_table,
    classify,
    classify_rank3,
    classify_stratum,
    enumerate_strata,
    feasible_inputs,
    parse_hn_type,
    stability_audit,
)
from higgsstrata import limit_classifier, verification
from higgsstrata.core import CaseTag

X1_TAGS = (CaseTag.C1_1, CaseTag.C2_1)


def stratum(hn_text: str, g: int):
    return AdmissibleStratum(parse_hn_type(hn_text), Genus(g))


def rank3(hn_text: str, g: int, invariant):
    st = stratum(hn_text, g)
    return classify_rank3(ClassifierInput(st, invariant))


def poly(*summands):
    return PolystableSum(summands)


def no_invariant(hn_text: str, g: int):
    return classify(ClassifierInput(stratum(hn_text, g), None))


class TestSemistable:
    @pytest.mark.parametrize(
        "hn,g,degree", [("3:0", 2, 0), ("2:1", 2, 1), ("3:2", 3, 2)]
    )
    def test_flows_to_zero_higgs_field(self, hn, g, degree):
        out = no_invariant(hn, g)
        assert out.case_tag is CaseTag.SEMISTABLE
        assert out.component == HodgeBundle((out.hnt_limit.total_rank,), (degree,))
        assert out.graded_degrees == (degree,)
        assert out.hnt_limit == parse_hn_type(hn)
        assert not out.strictly_polystable


class TestRank2:
    def test_keeps_the_graded_bundle(self):
        out = no_invariant("1:1,1:0", 2)
        assert out.case_tag is CaseTag.RANK2
        assert out.component == HodgeBundle((1, 1), (1, 0))
        assert out.graded_degrees == (1, 0)
        assert out.hnt_limit == parse_hn_type("1:1,1:0")

    def test_higher_genus(self):
        out = no_invariant("1:2,1:0", 3)
        assert out.component == HodgeBundle((1, 1), (2, 0))
        assert out.graded_degrees == (2, 0)

    def test_bound_violation_caught_at_validation(self):
        with pytest.raises(Rank2BoundViolated):
            stratum("1:3,1:0", 2)


class TestRank3Cases:
    def test_case_1_1(self):
        out = rank3("1:1,2:0", 3, -1)
        assert out.case_tag is CaseTag.C1_1
        assert out.component == HodgeBundle((1, 2), (1, 0))
        assert out.graded_degrees == (1, 0)
        assert out.hnt_limit == parse_hn_type("1:1,2:0")

    def test_case_1_2(self):
        out = rank3("1:1,2:-1", 2, -1)
        assert out.case_tag is CaseTag.C1_2
        assert out.component == poly((1, -1), (0,))
        assert out.hnt_limit == parse_hn_type("1:1,1:0,1:-1")
        assert out.strictly_polystable

    def test_case_1_3(self):
        out = rank3("1:1,2:0", 3, 0)
        assert out.case_tag is CaseTag.C1_3
        assert out.component == HodgeBundle((1, 1, 1), (1, 0, 0))
        assert out.graded_degrees == (1, 0, 0)
        assert out.hnt_limit == parse_hn_type("1:1,2:0")

    def test_case_1_4(self):
        out = rank3("1:2,1:0,1:-1", 2, 0)
        assert out.case_tag is CaseTag.C1_4
        assert out.component == HodgeBundle((1, 1, 1), (2, 0, -1))
        assert out.hnt_limit == parse_hn_type("1:2,1:0,1:-1")

    def test_case_2_1(self):
        out = rank3("2:1,1:0", 2, -1)
        assert out.case_tag is CaseTag.C2_1
        assert out.component == HodgeBundle((2, 1), (1, 0))
        assert out.graded_degrees == (1, 0)
        assert out.hnt_limit == parse_hn_type("2:1,1:0")

    def test_case_2_2(self):
        out = rank3("2:1,1:-1", 2, 0)
        assert out.case_tag is CaseTag.C2_2
        assert out.component == poly((1, -1), (0,))
        assert out.hnt_limit == parse_hn_type("1:1,1:0,1:-1")
        assert out.strictly_polystable

    def test_case_2_3_including_tie_with_mu1(self):
        out = rank3("2:2,1:-1", 2, 1)
        assert out.case_tag is CaseTag.C2_3
        assert out.component == HodgeBundle((1, 1, 1), (1, 1, -1))
        assert out.graded_degrees == (1, 1, -1)
        assert out.hnt_limit == parse_hn_type("2:2,1:-1")  # merged back

    def test_case_2_4(self):
        out = rank3("1:1,1:0,1:-2", 2, 1)
        assert out.case_tag is CaseTag.C2_4
        assert out.component == HodgeBundle((1, 1, 1), (1, 0, -2))
        assert out.hnt_limit == parse_hn_type("1:1,1:0,1:-2")

    def test_case_3_1(self):
        out = rank3("1:2,1:0,1:-2", 2, True)
        assert out.case_tag is CaseTag.C3_1
        assert out.component == HodgeBundle((1, 1, 1), (2, 0, -2))
        assert out.hnt_limit == parse_hn_type("1:2,1:0,1:-2")

    def test_case_3_2(self):
        out = rank3("1:1,1:0,1:-1", 2, False)
        assert out.case_tag is CaseTag.C3_2
        assert out.component == poly((1, -1), (0,))
        assert out.graded_degrees == (1, -1, 0)
        assert out.hnt_limit == parse_hn_type("1:1,1:0,1:-1")
        assert out.strictly_polystable

    def test_alignment_impossible_when_spread_exceeds_bound(self):
        with pytest.raises(AlignmentImpossible):
            rank3("1:2,1:0,1:-2", 2, False)


class TestRank3Errors:
    def test_slope_above_upper_bound(self):
        with pytest.raises(SlopeOutOfBounds):
            rank3("1:1,2:0", 3, 1)

    def test_slope_below_lower_bound(self):
        with pytest.raises(SlopeOutOfBounds):
            rank3("1:1,2:0", 3, -4)

    def test_gap_value_infeasible_case1(self):
        # feasible interval is [mu1-(2g-2), mu3] = [1, 0]; the open gap
        # (mu3, mu2) = (0, 2) contains the integer 1
        with pytest.raises(InfeasibleBySpecialization):
            rank3("1:5,1:2,1:0", 3, 1)

    def test_gap_value_infeasible_case2(self):
        with pytest.raises(InfeasibleBySpecialization):
            rank3("1:0,1:-2,1:-5", 3, -1)

    def test_case_family_mismatch(self):
        with pytest.raises(CaseFamilyMismatch):
            rank3("1:1,1:0,1:-1", 2, 0)

    def test_classify_dispatcher_guards_invariants(self):
        with pytest.raises(CaseFamilyMismatch):
            classify(ClassifierInput(stratum("3:0", 2), 0))
        out = classify(ClassifierInput(stratum("3:0", 2), None))
        assert out.case_tag is CaseTag.SEMISTABLE
        out = classify(ClassifierInput(stratum("1:1,1:0", 2), None))
        assert out.case_tag is CaseTag.RANK2


class TestFeasibleInputs:
    def test_case1_sweep(self):
        assert feasible_inputs(stratum("1:1,2:0", 3)) == [-3, -2, -1, 0]

    def test_case3_flags_depend_on_spread(self):
        assert feasible_inputs(stratum("1:1,1:0,1:-1", 2)) == [True, False]
        assert feasible_inputs(stratum("1:2,1:0,1:-2", 2)) == [True]

    def test_gap_integers(self):
        # The excluded gap as verify derives it from the HN type, and the
        # values the classifier refuses as infeasible: the same integers.
        for hn, gap in (("1:5,1:2,1:0", [1]), ("1:0,1:-2,1:-5", [-1]), ("1:1,2:0", [])):
            s = stratum(hn, 3)
            assert list(verification._gap_values(verification._case_inequalities(s))) == gap
            refused = []
            for v in range(-20, 21):
                try:
                    classify_rank3(ClassifierInput(s, v))
                except InfeasibleBySpecialization:
                    refused.append(v)
                except SlopeOutOfBounds:
                    pass
            assert refused == gap, hn


class TestInvariantData:
    def test_slope_invariants_accept_only_integers(self):
        assert rank3("1:1,2:0", 3, Fraction(0)) == rank3("1:1,2:0", 3, 0)
        with pytest.raises(ValueError):
            rank3("1:1,2:0", 3, Fraction(1, 2))
        with pytest.raises(CaseFamilyMismatch):
            rank3("2:1,1:0", 2, True)

    def test_non_integer_invariant_is_a_named_error(self):
        for hn in ("1:1,2:0", "2:1,1:0"):
            with pytest.raises(InvalidInvariant, match="must be an integer") as info:
                rank3(hn, 3, Fraction(1, 2))
            assert isinstance(info.value, StrataError)


def test_graded_bundle_preserving_cases_keep_the_input_type():
    # Cases 1.1, 1.4, 2.1, 2.4, 3.1 and 3.2 leave the associated graded
    # bundle, hence the HN type, unchanged.
    preserving = {
        CaseTag.C1_1,
        CaseTag.C1_4,
        CaseTag.C2_1,
        CaseTag.C2_4,
        CaseTag.C3_1,
        CaseTag.C3_2,
    }
    from higgsstrata import Genus, enumerate_strata

    seen = set()
    for g in (2, 3):
        for d in range(-4, 5):
            for st in enumerate_strata(3, d, Genus(g)):
                if st.is_semistable:
                    continue
                for datum in feasible_inputs(st):
                    out = classify_rank3(ClassifierInput(st, datum))
                    seen.add(out.case_tag)
                    if out.case_tag in preserving:
                        assert out.hnt_limit == st.hn
    assert preserving <= seen


def test_wide_spread_strata_keep_their_graded_bundle():
    # mu1 - mu3 > 2g-2 leaves a single feasible datum whose outcome is
    # 1.4, 2.4 or 3.1, always with the input HN type.
    from higgsstrata import Genus, enumerate_strata

    pinned = {CaseTag.C1_4, CaseTag.C2_4, CaseTag.C3_1}
    seen = 0
    for g in (2, 3):
        for d in range(-4, 5):
            for st in enumerate_strata(3, d, Genus(g)):
                if st.is_semistable:
                    continue
                mu1, _, mu3 = st.hn.mu_vector
                if mu1 - mu3 <= 2 * g - 2:
                    continue
                inputs = feasible_inputs(st)
                assert len(inputs) == 1
                out = classify_rank3(ClassifierInput(st, inputs[0]))
                assert out.case_tag in pinned
                assert out.hnt_limit == st.hn
                seen += 1
    assert seen > 0


class TestStabilityAudit:
    def test_case_1_1_all_strict(self):
        inp = ClassifierInput(stratum("1:1,2:0", 3), -1)
        checks = stability_audit(classify_rank3(inp), inp)
        assert len(checks) == 3
        assert all(c.holds and not c.is_equality for c in checks)

    def test_checks_are_immutable_and_mark_the_datum_check(self):
        inp = ClassifierInput(stratum("1:1,2:0", 3), -1)
        checks = stability_audit(classify_rank3(inp), inp)
        assert [(c.subobject, c.datum) for c in checks] == [
            ("L", False), ("E1 + I", True), ("I + Q", False),
        ]
        with pytest.raises(AttributeError):
            checks[1].degree = 5

    def test_case_1_2_exactly_one_equality_at_the_split_summand(self):
        inp = ClassifierInput(stratum("1:1,2:-1", 2), -1)
        checks = stability_audit(classify_rank3(inp), inp)
        assert all(c.holds for c in checks)
        equalities = [c for c in checks if c.is_equality]
        assert len(equalities) == 1
        assert equalities[0].subobject == "Q"

    def test_case_2_1_all_strict(self):
        inp = ClassifierInput(stratum("2:1,1:0", 2), -1)
        checks = stability_audit(classify_rank3(inp), inp)
        assert len(checks) == 3
        assert all(c.holds and not c.is_equality for c in checks)

    def test_rank2_single_check(self):
        inp = ClassifierInput(stratum("1:1,1:0", 2), None)
        checks = stability_audit(classify(inp), inp)
        assert len(checks) == 1
        assert checks[0].holds and not checks[0].is_equality

    def test_semistable_has_nothing_to_audit(self):
        inp = ClassifierInput(stratum("3:0", 2), None)
        assert stability_audit(classify(inp), inp) == []

    def test_a_strict_check_fails_at_equality(self):
        check = limit_classifier.AuditCheck(("E1",), 1, 3, 1, 3)
        assert check.is_equality and not check.holds
        assert check.inequality == "1/3 < 1/3"
        loose = check._replace(allow_equal=True)
        assert loose.holds and loose.inequality == "1/3 <= 1/3"


# Each stratum's case family decides the kind of invariant classify takes:
# None for semistable and rank-2 strata, an integer for case families 1
# and 2, a bool for case family 3.  Expected: a case tag or an error class.
INVARIANT_RULES = [
    ("3:0", 2, None, CaseTag.SEMISTABLE),
    ("3:0", 2, 0, CaseFamilyMismatch),
    ("3:0", 2, False, CaseFamilyMismatch),
    ("1:1,1:0", 2, None, CaseTag.RANK2),
    ("1:1,1:0", 2, 1, CaseFamilyMismatch),
    ("1:1,1:0", 2, True, CaseFamilyMismatch),
    ("1:1,2:0", 3, -1, CaseTag.C1_1),
    ("1:1,2:0", 3, Fraction(0), CaseTag.C1_3),
    ("1:1,2:0", 3, None, CaseFamilyMismatch),
    ("1:1,2:0", 3, False, CaseFamilyMismatch),
    ("1:1,2:0", 3, Fraction(-1, 2), InvalidInvariant),
    ("1:1,2:0", 3, 2.0, InvalidInvariant),
    ("1:1,2:0", 3, "3", InvalidInvariant),
    ("1:2,1:1,1:-1", 3, 2, CaseTag.C2_4),
    ("1:2,1:1,1:-1", 3, Fraction(2), CaseTag.C2_4),
    ("1:2,1:1,1:-1", 3, True, CaseFamilyMismatch),
    ("1:2,1:1,1:-1", 3, None, CaseFamilyMismatch),
    ("1:2,1:1,1:-1", 3, 2.0, InvalidInvariant),
    ("1:2,1:1,1:-1", 3, "3", InvalidInvariant),
    ("1:1,1:0,1:-1", 2, True, CaseTag.C3_1),
    ("1:1,1:0,1:-1", 2, False, CaseTag.C3_2),
    ("1:1,1:0,1:-1", 2, 1, CaseFamilyMismatch),
    ("1:1,1:0,1:-1", 2, Fraction(1), CaseFamilyMismatch),
    ("1:1,1:0,1:-1", 2, None, CaseFamilyMismatch),
    ("1:1,1:0,1:-1", 2, "true", CaseFamilyMismatch),
]


@pytest.mark.parametrize(
    "hn,g,invariant,expected",
    INVARIANT_RULES,
    ids=[f"{hn}-g{g}-{invariant!r}" for hn, g, invariant, _ in INVARIANT_RULES],
)
def test_invariant_rules(hn, g, invariant, expected):
    inp = ClassifierInput(stratum(hn, g), invariant)
    if isinstance(expected, CaseTag):
        assert classify(inp).case_tag is expected
    else:
        with pytest.raises(expected):
            classify(inp)


def test_invariant_refusal_messages():
    with pytest.raises(CaseFamilyMismatch, match=r"^3:0 is semistable and takes no invariant$"):
        classify(ClassifierInput(stratum("3:0", 2), 0))
    with pytest.raises(
        CaseFamilyMismatch, match=r"^1:1,1:0 is a rank-2 type and takes no invariant$"
    ):
        classify(ClassifierInput(stratum("1:1,1:0", 2), False))
    with pytest.raises(InvalidInvariant, match=r"^slope invariant must be an integer, got 2\.0$"):
        classify(ClassifierInput(stratum("1:1,2:0", 3), 2.0))


def test_table_entries_round_trip_through_classify():
    # The small grid, then the g=30, d=0 table, in which most outcomes
    # are shared across rows.  A row's entries, derived from its runs,
    # are classify's outcome of each feasible value in turn.
    points = [(rank, d, g) for rank in (2, 3) for g in (2, 3, 4, 5) for d in range(-6, 7)]
    entries = 0
    for rank, d, g in [*points, (3, 0, 30)]:
        for row in build_table(rank, d, Genus(g)).rows:
            feasible = feasible_inputs(row.stratum)
            assert list(row.feasible_set) == feasible
            assert row.entries == tuple(
                (v, classify(ClassifierInput(row.stratum, v))) for v in feasible
            )
            assert sum(len(values) for values, _ in row.runs) == len(row.entries)
            entries += len(row.entries)
    assert entries > 2000 + 13402


class TestClassifyStratum:
    def test_row_equals_classify_per_feasible_value(self):
        # Rank 2 and 3, g 2..8, |d| <= 8: the row's runs, value by value,
        # are classify's outcome for each feasible value, and its x.1
        # values (its first values) are one run.
        shared_runs = 0
        for rank in (2, 3):
            for g in range(2, 9):
                for d in range(-8, 9):
                    for s in enumerate_strata(rank, d, Genus(g)):
                        runs = classify_stratum(s, {})
                        assert [(v, out) for values, out in runs for v in values] == [
                            (v, classify(ClassifierInput(s, v))) for v in feasible_inputs(s)
                        ]
                        x1 = [values for values, out in runs if out.case_tag in X1_TAGS]
                        assert x1 == [runs[0][0]] or x1 == []
                        shared_runs += bool(x1) and len(x1[0]) > 1
        assert shared_runs > 0

    def test_runs_are_maximal_and_consecutive(self):
        # Rank 2 and 3, g 2..8, |d| <= 8: neighbouring runs hold different
        # outcome objects, and a run's values are consecutive integers.
        # Every run but an x.1 run holds one value.
        long_runs = 0
        for rank in (2, 3):
            for g in range(2, 9):
                for d in range(-8, 9):
                    interned: dict = {}  # shared by the rows, as in a table
                    for s in enumerate_strata(rank, d, Genus(g)):
                        runs = classify_stratum(s, interned)
                        for (_, left), (_, right) in zip(runs, runs[1:]):
                            assert left is not right, s.hn
                        for values, outcome in runs:
                            assert len(values) > 0, s.hn
                            if len(values) > 1:
                                assert outcome.case_tag in X1_TAGS, s.hn
                                assert list(values) == list(range(values[0], values[-1] + 1))
                                long_runs += 1
        assert long_runs > 0

    def test_build_table_builds_no_outcome_twice(self, monkeypatch):
        # Each outcome object of the g=30, d=0 table is built once: the
        # table keeps every outcome it builds.  The row routine is never
        # called without values.
        built = []
        routine_values = []
        make, routine = limit_classifier._limit_outcome, limit_classifier._slope_runs

        def counting_make(*args):
            built.append(make(*args))
            return built[-1]

        def counting_routine(stratum, fam, values, *rest):
            routine_values.append(len(values))
            return routine(stratum, fam, values, *rest)

        monkeypatch.setattr(limit_classifier, "_limit_outcome", counting_make)
        monkeypatch.setattr(limit_classifier, "_slope_runs", counting_routine)
        table = build_table(3, 0, Genus(30))
        seen: set[int] = set()
        for row in table.rows:
            seen.update(id(outcome) for _, outcome in row.entries)
        assert len(built) == len(seen) == 2190
        assert 0 not in routine_values

    def test_build_table_classifies_the_semistable_row_only(self, monkeypatch):
        # classify decides the semistable row alone; classify_rank3 is
        # never called, as every slope row goes to the row routine and
        # every balanced row to _classify_case3.
        calls = {"classify": Counter(), "classify_rank3": Counter()}
        for name, counter in calls.items():
            def counting(inp, fn=getattr(limit_classifier, name), counter=counter):
                counter[id(inp.stratum)] += 1
                return fn(inp)

            monkeypatch.setattr(limit_classifier, name, counting)
        table = build_table(3, 0, Genus(10))
        assert sum(len(row.entries) for row in table.rows) > 2 * len(table.rows)
        semistable = [id(row.stratum) for row in table.rows if row.stratum.is_semistable]
        assert calls["classify"] == Counter(semistable) and len(semistable) == 1
        assert calls["classify_rank3"] == Counter()


def test_polystable_flag_follows_the_case_tag():
    polystable_tags = {CaseTag.C1_2, CaseTag.C2_2, CaseTag.C3_2}
    seen = set()
    for rank in (2, 3):
        for g in (2, 3, 4, 5):
            for d in range(-6, 7):
                for row in build_table(rank, d, Genus(g)).rows:
                    for _, outcome in row.entries:
                        assert outcome.strictly_polystable == (outcome.case_tag in polystable_tags)
                        seen.add(outcome.case_tag)
    assert seen == set(CaseTag)


@st.composite
def small_strata(draw):
    rank = draw(st.sampled_from((2, 3)))
    g = draw(st.integers(min_value=2, max_value=5))
    d = draw(st.integers(min_value=-6, max_value=6))
    return draw(st.sampled_from(enumerate_strata(rank, d, Genus(g))))


invariants = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-30, max_value=30, max_denominator=6),
    st.floats(),
    st.text(max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(small_strata(), invariants)
def test_classify_returns_an_outcome_or_a_classification_error(strat, invariant):
    try:
        out = classify(ClassifierInput(strat, invariant))
    except ClassificationError:
        return
    assert isinstance(out, LimitOutcome)
