"""Fixed-component labels: the (m1, m2) region, the degree dictionary
and the component enumerations."""

import sys
from fractions import Fraction

import pytest

from higgsstrata import (
    Genus,
    HodgeBundle,
    MInvariants,
    NoIntegerSolution,
    PolystableSum,
    enumerate_fixed_111,
    enumerate_fixed_components,
    enumerate_m_invariants,
    l_to_m,
    m_to_l,
    validate_fixed_111,
)
from higgsstrata import cli, limit_classifier
from higgsstrata.admissibility import RankUnsupported, enumerate_strata
from higgsstrata.core import CaseTag, StrataError
from higgsstrata.fixed_points import validate_component_label
from higgsstrata.incidence import build_table

PAIR_TYPES = ((1, 2), (2, 1))
#: The rank and a genus-3 call of each public entry that takes a degree.
DEGREE_ENTRIES = (
    (2, lambda degree: enumerate_fixed_components(2, degree, Genus(3))),
    (3, lambda degree: enumerate_fixed_components(3, degree, Genus(3))),
    (3, lambda degree: enumerate_fixed_111(degree, Genus(3))),
    (3, lambda degree: enumerate_m_invariants(degree, Genus(3))),
)


def int_fields(item):
    """The integer fields of a label or of an (m1, m2) pair."""
    if isinstance(item, MInvariants):
        return item.m1, item.m2, item.degree
    return item.degrees


def validate_m_invariants(m: MInvariants) -> bool:
    """Reference for the (m1, m2) constraint region: nonnegativity, the
    two strict stability bounds, and mod-3 solvability of the line
    degrees for the ambient degree (for degree divisible by 3 this is
    m1+2m2 = 0 mod 3)."""
    bound = 6 * m.genus.g - 6
    return (
        m.m1 >= 0
        and m.m2 >= 0
        and 2 * m.m1 + m.m2 < bound
        and m.m1 + 2 * m.m2 < bound
        and (2 * m.m1 + m.m2 - m.degree) % 3 == 0
    )


def naive_fixed_111(degree: int, g: int) -> set[tuple[int, int, int]]:
    """Brute-force oracle: scan a wide cube of line degrees and keep the
    triples satisfying the coupling and stability inequalities."""
    k = 2 * g - 2
    window = range(degree - 4 * k - 10, degree + 4 * k + 11)
    out = set()
    for l1 in window:
        for l2 in window:
            l3 = degree - l1 - l2
            if (
                l2 - l1 + k >= 0
                and l3 - l2 + k >= 0
                and l1 + l2 - 2 * l3 > 0
                and 2 * l1 - l2 - l3 > 0
            ):
                out.add((l1, l2, l3))
    return out


def reference_pair_labels(
    degree: int, genus: Genus
) -> tuple[list[HodgeBundle], list[HodgeBundle]]:
    """Every-value reference: the outcome of each feasible value of each
    stratum, from its incidence row, keeping the case-1.1 and 2.1 labels.
    TestClassifyStratum checks the rows against classify value by value."""
    t12, t21 = set(), set()
    for stratum in enumerate_strata(3, degree, genus):
        for _, outcome in limit_classifier.classify_stratum(stratum, {}):
            if outcome.case_tag is CaseTag.C1_1:
                t12.add(outcome.component)
            elif outcome.case_tag is CaseTag.C2_1:
                t21.add(outcome.component)
    return sorted(t12, key=lambda c: c.degrees[0]), sorted(t21, key=lambda c: c.degrees[0])


class TestMToL:
    def test_examples(self):
        assert m_to_l(MInvariants(1, 1, Genus(2), 0)).degrees == (1, 0, -1)
        assert m_to_l(MInvariants(0, 0, Genus(2), 0)).degrees == (2, 0, -2)

    def test_degenerate_equal_degrees_pass_the_solve_but_fail_stability(self):
        for g, d in ((2, 0), (3, 6), (4, -3)):
            k = 2 * g - 2
            l = m_to_l(MInvariants(k, k, Genus(g), d))
            assert l.degrees == (d // 3,) * 3
            assert not validate_fixed_111(l, d, Genus(g))

    def test_no_integer_solution(self):
        with pytest.raises(NoIntegerSolution):
            m_to_l(MInvariants(1, 1, Genus(2), 1))

    def test_round_trips(self):
        for g in (2, 3, 4, 5):
            genus = Genus(g)
            for d in range(-6, 7):
                for m in enumerate_m_invariants(d, genus):
                    assert l_to_m(m_to_l(m), genus) == m
                for label in enumerate_fixed_111(d, genus):
                    assert m_to_l(l_to_m(label, genus)) == label


class TestValidateFixed111:
    @pytest.mark.parametrize(
        "degrees,valid",
        # (1, -1, 0) and (0, 1, -1) meet one strict stability inequality
        # with equality.
        [((1, 0, -1), True), ((2, 0, -2), True), ((0, 0, 0), False),
         ((1, -1, 0), False), ((0, 1, -1), False)],
    )
    def test_examples_at_genus2_degree0(self, degrees, valid):
        assert validate_fixed_111(HodgeBundle((1, 1, 1), degrees), 0, Genus(2)) is valid

    def test_degree_mismatch_fails(self):
        assert not validate_fixed_111(HodgeBundle((1, 1, 1), (1, 0, -1)), 1, Genus(2))


class TestEnumeration:
    def test_m_region_at_genus2_degree0(self):
        got = [(m.m1, m.m2) for m in enumerate_m_invariants(0, Genus(2))]
        assert got == [(0, 0), (1, 1)]

    def test_m_region_matches_paper_condition_when_degree_divisible(self):
        # For 3 | d the solvability condition is m1 + 2*m2 = 0 (mod 3).
        for m in enumerate_m_invariants(6, Genus(3)):
            assert (m.m1 + 2 * m.m2) % 3 == 0

    def test_m_region_matches_the_filtered_grid(self):
        # The pair walk visits only the residue class and bounds that
        # validate_m_invariants accepts; its labels are m_to_l's, with
        # int degrees, in the order of their degrees.
        for g in range(2, 13):
            genus = Genus(g)
            grid = range(6 * g - 5)
            for d in range(-12, 13):
                want = [
                    m for m in (MInvariants(m1, m2, genus, d) for m1 in grid for m2 in grid)
                    if validate_m_invariants(m)
                ]
                assert enumerate_m_invariants(d, genus) == want, (g, d)
                labels = enumerate_fixed_111(d, genus)
                assert labels == sorted(map(m_to_l, want), key=lambda t: t.degrees)
                assert all(type(x) is int for t in labels for x in t.degrees)
                assert all(t.ranks is HodgeBundle((1, 1, 1), (0, 0, 0)).ranks for t in labels)

    def test_type111_labels_match_naive_oracle(self):
        for g in (2, 3):
            for d in (-4, -1, 0, 1, 3):
                got = {t.degrees for t in enumerate_fixed_111(d, Genus(g))}
                assert got == naive_fixed_111(d, g)

    @pytest.mark.parametrize(
        "degree,expected",
        [
            (1, [HodgeBundle((2,), (1,)), HodgeBundle((1, 1), (1, 0))]),
            (0, [HodgeBundle((2,), (0,)), HodgeBundle((1, 1), (1, -1))]),
        ],
    )
    def test_rank2_components_at_genus2(self, degree, expected):
        assert enumerate_fixed_components(2, degree, Genus(2)) == expected

    def test_rank2_component_count_is_genus(self):
        for g in (2, 3, 4, 5):
            for d in range(-6, 7):
                assert len(enumerate_fixed_components(2, d, Genus(g))) == g

    def test_rank3_degree0_genus2(self):
        got = enumerate_fixed_components(3, 0, Genus(2))
        assert got == [
            HodgeBundle((3,), (0,)),
            HodgeBundle((1, 1, 1), (1, 0, -1)),
            HodgeBundle((1, 1, 1), (2, 0, -2)),
        ]

    def test_rank3_degree1_genus2_includes_reachable_pairs(self):
        got = enumerate_fixed_components(3, 1, Genus(2))
        assert got == [
            HodgeBundle((3,), (1,)),
            HodgeBundle((1, 2), (1, 0)),
            HodgeBundle((2, 1), (1, 0)),
            HodgeBundle((1, 1, 1), (1, 0, 0)),
            HodgeBundle((1, 1, 1), (1, 1, -1)),
            HodgeBundle((1, 1, 1), (2, 0, -1)),
        ]

    def test_unsupported_rank(self):
        with pytest.raises(ValueError):
            enumerate_fixed_components(4, 0, Genus(2))

    def test_unsupported_rank_is_a_named_error(self):
        with pytest.raises(RankUnsupported, match="got 4") as exc:
            enumerate_fixed_components(4, 0, Genus(2))
        assert isinstance(exc.value, StrataError)

    def test_rank3_pair_labels_match_every_value_reference(self):
        for g in range(2, 21):
            genus = Genus(g)
            for d in range(-20, 21):
                t12, t21 = reference_pair_labels(d, genus)
                got = enumerate_fixed_components(3, d, genus)
                pairs = [label for label in got if label.ranks != (1, 1, 1)]
                assert pairs == [HodgeBundle((3,), (d,)), *t12, *t21], (g, d)

    def test_rank3_pair_labels_match_the_incidence_table_index(self):
        for g in range(2, 9):
            genus = Genus(g)
            for d in range(-8, 9):
                indexed = {
                    label for label, _ in build_table(3, d, genus).bb_index
                    if isinstance(label, HodgeBundle) and label.ranks in PAIR_TYPES
                }
                listed = [
                    label for label in enumerate_fixed_components(3, d, genus)
                    if label.ranks in PAIR_TYPES
                ]
                assert indexed == set(listed), (g, d)

    def test_rank3_fixed_builds_and_classifies_no_stratum(self):
        watched = (
            enumerate_strata,
            limit_classifier.feasible_inputs,
            limit_classifier.classify,
            limit_classifier.classify_rank3,
        )
        # Counted by code object, so every binding of a function counts.
        calls = {fn.__code__: 0 for fn in watched}

        def count(frame, event, arg):
            if event == "call" and frame.f_code in calls:
                calls[frame.f_code] += 1

        def run_counted(query):
            for code in calls:
                calls[code] = 0
            sys.setprofile(count)
            try:
                query()
            finally:
                sys.setprofile(None)
            return list(calls.values())

        # The positive control: a table and a limit query.  A table calls
        # classify only for its semistable row, and classify_rank3 not at
        # all; limit reaches both.
        limit = cli.RunConfig(command="limit", genus=3, hn="1:1,2:0", invariant=0)
        assert all(run_counted(lambda: (build_table(3, 1, Genus(3)), cli.run(limit))))
        assert run_counted(lambda: enumerate_fixed_components(3, 1, Genus(12))) == [0] * 4
        config = cli.RunConfig(command="fixed", genus=12, rank=3, degree=-2, format="json")
        assert run_counted(lambda: cli.run(config)) == [0] * 4

    @pytest.mark.parametrize("degree", [Fraction(1), True, 1.0])
    def test_rank3_integral_degree_gives_int_labels(self, degree):
        # Each public entry that takes a degree, rank 2 included.
        for rank, enumerate_ in DEGREE_ENTRIES:
            got = enumerate_(degree)
            assert got and got == enumerate_(int(degree)), (rank, enumerate_)
            numbers = [x for item in got for x in int_fields(item)]
            assert {type(x) for x in numbers} == {int}, (rank, enumerate_)

    @pytest.mark.parametrize("degree", [1.5, Fraction(1, 2), "3"])
    def test_rank3_non_integer_degree_is_refused(self, degree):
        # Each public entry that takes a degree, rank 2 included, refuses
        # it by name, as the checked constructor of its minimal component.
        for rank, enumerate_ in DEGREE_ENTRIES:
            message = f"a Hodge bundle of type ({rank},) needs 1 integer degrees, got ({degree!r},)"
            with pytest.raises(ValueError) as exc:
                enumerate_(degree)
            assert str(exc.value) == message, (rank, enumerate_)


class TestValidateComponentLabel:
    def test_bookkeeping(self):
        g = Genus(2)
        assert validate_component_label(HodgeBundle((3,), (0,)), 3, 0, g)
        assert not validate_component_label(HodgeBundle((3,), (1,)), 3, 0, g)
        assert validate_component_label(HodgeBundle((1, 1), (1, -1)), 2, 0, g)
        assert not validate_component_label(HodgeBundle((1, 1), (2, -2)), 2, 0, g)
        # t12:1|-1 is outside the closed form at g=2 and inside it at g=3.
        assert not validate_component_label(HodgeBundle((1, 2), (1, -1)), 3, 0, g)
        assert validate_component_label(HodgeBundle((1, 2), (1, -1)), 3, 0, Genus(3))
        assert not validate_component_label(HodgeBundle((1, 2), (1, 0)), 3, 0, g)
        assert validate_component_label(HodgeBundle((1, 1, 1), (1, 0, -1)), 3, 0, g)
        assert not validate_component_label(HodgeBundle((1, 1, 1), (0, 0, 0)), 3, 0, g)


def test_m_validation_outside_region():
    g = Genus(2)
    assert validate_m_invariants(MInvariants(1, 1, g, 0))
    assert not validate_m_invariants(MInvariants(-1, 1, g, 0))
    assert not validate_m_invariants(MInvariants(2, 2, g, 0))  # stability bound
    assert not validate_m_invariants(MInvariants(1, 1, g, 1))  # mod-3 solvability


class TestValidateComponentLabelVerdicts:
    """Every label kind at its right rank and degree, at a wrong rank and
    at a wrong degree; both ends of the rank-2 bound d < 2*d1 <= d + 2g-2;
    type-(1,2)/(2,1) labels inside and outside their closed form; and
    polystable sums at ranks 2 and 3."""

    @pytest.mark.parametrize(
        "ranks,degrees,rank,degree,g,verdict",
        [
            ((2,), (1,), 2, 1, 2, True),
            ((3,), (0,), 3, 0, 2, True),
            ((3,), (0,), 2, 0, 2, False),
            ((3,), (0,), 3, 1, 2, False),
            ((1, 1), (1, -1), 2, 0, 2, True),
            ((1, 1), (1, -1), 3, 0, 2, False),
            ((1, 1), (1, -1), 2, 2, 2, False),
            # The degrees sum to 0, not 1, although d1 = 1 meets the bound.
            ((1, 1), (1, -1), 2, 1, 2, False),
            ((1, 1), (0, 0), 2, 0, 3, False),
            ((1, 1), (1, -1), 2, 0, 3, True),
            ((1, 1), (2, -2), 2, 0, 3, True),
            ((1, 1), (3, -3), 2, 0, 3, False),
            ((1, 1), (0, 1), 2, 1, 2, False),
            ((1, 1), (1, 0), 2, 1, 2, True),
            ((1, 1), (2, -1), 2, 1, 2, False),
            ((1, 2), (1, -1), 3, 0, 3, True),
            ((1, 2), (1, -1), 2, 0, 2, False),
            ((1, 2), (1, -1), 3, 1, 2, False),
            ((2, 1), (1, -1), 3, 0, 3, True),
            ((2, 1), (1, -1), 2, 0, 2, False),
            ((2, 1), (1, -1), 3, 1, 2, False),
            ((1, 1, 1), (1, 0, -1), 3, 0, 2, True),
            ((1, 1, 1), (1, 0, -1), 2, 0, 2, False),
            ((1, 1, 1), (1, 0, -1), 3, 1, 2, False),
            ((1, 1, 1), (0, 0, 0), 3, 0, 2, False),
            ((1, 1, 1), (3, 0, -3), 3, 0, 2, False),
            # Outside the type-(1,2)/(2,1) closed form, which lists no
            # label at g=2, d=0.
            ((1, 2), (1, -1), 3, 0, 2, False),
            ((2, 1), (1, -1), 3, 0, 2, False),
        ],
    )
    def test_hodge_bundle(self, ranks, degrees, rank, degree, g, verdict):
        label = HodgeBundle(ranks, degrees)
        assert validate_component_label(label, rank, degree, Genus(g)) is verdict

    def test_pair_labels_outside_the_closed_form(self):
        # At g=2, d=0 the closed form lists no type-(1,2) label, so each
        # t12:a|-a is refused although its degrees sum to d.  At g=3 it
        # lists a = 1 alone.
        for g, listed in ((2, []), (3, [1])):
            accepted = [
                a for a in range(-5, 6)
                if validate_component_label(HodgeBundle((1, 2), (a, -a)), 3, 0, Genus(g))
            ]
            assert accepted == listed

    @pytest.mark.parametrize(
        "summands,rank,degree,verdict",
        [
            (((0,), (0,)), 2, 0, True),
            (((1,), (0,)), 2, 1, True),
            (((0,), (0,)), 2, 1, False),
            (((0,), (0,)), 3, 0, False),
            (((1, -1), (0,)), 3, 0, True),
            (((0,), (0,), (0,)), 3, 0, True),
            (((1, -1), (0,)), 3, 1, False),
            (((1, -1), (0,)), 2, 0, False),
        ],
    )
    def test_polystable_sum(self, summands, rank, degree, verdict):
        label = PolystableSum(summands)
        assert validate_component_label(label, rank, degree, Genus(2)) is verdict

    @pytest.mark.parametrize("label", ["min", (1, 0, -1), None])
    def test_non_label_raises_type_error(self, label):
        with pytest.raises(TypeError, match="not a fixed-component label"):
            validate_component_label(label, 3, 0, Genus(2))
