"""Exact arithmetic, HN types, their polygons and dominance, and label encodings."""

from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from higgsstrata import (
    Genus,
    HNType,
    InvalidGenus,
    InvalidHNType,
    HodgeBundle,
    LimitOutcome,
    PolystableSum,
    StrataError,
    dominates,
    enumerate_strata,
    format_hn_type,
    format_label,
    parse_hn_type,
    polygon_of,
)
from higgsstrata.admissibility import AdmissibleStratum
from higgsstrata.core import CaseTag, Frozen
from higgsstrata.incidence import IncidenceRow, IncidenceTable, build_table
from higgsstrata.matrix_oracle import BlockPattern

fractions = st.fractions(min_value=-100, max_value=100)


@given(fractions, fractions)
def test_rational_arithmetic_closed_and_reduced(a, b):
    for value in (a + b, a - b, a * b):
        assert value.denominator > 0
        assert gcd(abs(value.numerator), value.denominator) == 1


@given(fractions, fractions, fractions)
def test_rational_order_transitive(a, b, c):
    x, y, z = sorted((a, b, c))
    assert x <= y <= z and x <= z


def test_genus():
    assert Genus(2).canonical_degree == 2
    assert Genus(5).canonical_degree == 8
    with pytest.raises(ValueError):
        Genus(1)


def test_genus_below_two_is_a_named_error():
    with pytest.raises(InvalidGenus, match="genus must be >= 2, got 1") as info:
        Genus(1)
    assert isinstance(info.value, StrataError)


@pytest.mark.parametrize("g", [2.5, Fraction(5, 2), "3", None, float("nan"), float("inf")])
def test_non_integer_genus_is_refused(g):
    with pytest.raises(InvalidGenus, match="genus must be an integer") as info:
        Genus(g)
    assert isinstance(info.value, StrataError)


def test_integral_genus_normalises_to_int():
    genus = Genus(Fraction(3))
    assert type(genus.g) is int and genus == Genus(3)
    assert enumerate_strata(3, 0, genus) == enumerate_strata(3, 0, Genus(3))


class TestHNType:
    @pytest.mark.parametrize(
        "steps",
        [
            ((1, 0.5), (2, -1)),
            ((1.5, 1), (2, -1)),
            ((1, Fraction(1, 2)), (2, -1)),
            ((1, "1"), (2, -1)),
            ((1, None),),
            ((1, float("inf")),),
            ((1, 2, 3),),
        ],
    )
    def test_rejects_non_integer_steps(self, steps):
        with pytest.raises(InvalidHNType, match="steps must be pairs of integers"):
            HNType(steps)

    def test_integral_steps_normalise_to_int(self):
        hn = HNType(((1, Fraction(2)), (Fraction(2), -1)))
        assert hn == HNType(((1, 2), (2, -1)))
        assert all(type(x) is int for step in hn.steps for x in step)
        assert HNType([[1, 1], [2, -1]]).steps == ((1, 1), (2, -1))

    def test_merges_equal_consecutive_slopes(self):
        assert HNType(((1, 1), (1, 0), (1, 0))).steps == ((1, 1), (2, 0))
        assert HNType(((1, 2), (1, 2))).steps == ((2, 4),)

    def test_rejects_increasing_slopes(self):
        with pytest.raises(ValueError):
            HNType(((1, 0), (1, 1)))

    def test_rejects_bad_ranks(self):
        with pytest.raises(ValueError):
            HNType(((0, 1),))
        with pytest.raises(ValueError):
            HNType(())

    def test_mu_vector_repeats_with_multiplicity(self):
        assert HNType(((1, 1), (2, -1))).mu_vector == (
            Fraction(1),
            Fraction(-1, 2),
            Fraction(-1, 2),
        )
        assert HNType(((3, 2),)).mu_vector == (Fraction(2, 3),) * 3

    def test_semistable_flag_and_totals(self):
        hn = HNType(((2, 1), (1, -1)))
        assert not hn.is_semistable
        assert (hn.total_rank, hn.total_degree) == (3, 0)
        assert HNType(((3, 0),)).is_semistable

    def test_text_encoding_round_trip(self):
        for text in ("1:1,2:-1", "3:0", "1:1,1:0,1:-1", "2:5,1:-2"):
            assert format_hn_type(parse_hn_type(text)) == text
        with pytest.raises(ValueError):
            parse_hn_type("1,2")


@pytest.mark.parametrize(
    "steps,vertices",
    [
        (((1, 1), (1, 0), (1, -1)), ((0, 0), (1, 1), (2, 1), (3, 0))),
        (((2, 1), (1, -1)), ((0, 0), (2, 1), (3, 0))),
        (((3, 0),), ((0, 0), (3, 0))),
    ],
)
def test_polygon_of_partial_sums(steps, vertices):
    assert polygon_of(HNType(steps)) == vertices


class TestDominates:
    def test_spec_examples(self):
        p = HNType(((1, 2), (1, 0), (1, -2)))
        q = HNType(((1, 1), (1, 0), (1, -1)))
        assert dominates(p, q)       # heights (2,2) >= (1,1)
        assert dominates(p, p)       # reflexive
        assert not dominates(q, p)   # height 1 < 2 at rank 1

    def test_rejects_mismatched_endpoints(self):
        with pytest.raises(ValueError) as info:
            dominates(HNType(((3, 0),)), HNType(((3, 1),)))
        assert str(info.value) == "polygons have different endpoints: (3, 0) vs (3, 1)"

    def test_partial_order_on_admissible_types(self):
        from higgsstrata import enumerate_strata

        for rank, degree, g in ((3, 0, 2), (3, 1, 3), (2, 1, 2)):
            types = [s.hn for s in enumerate_strata(rank, degree, Genus(g))]
            for p in types:
                assert dominates(p, p)
                for q in types:
                    if dominates(p, q) and dominates(q, p):
                        assert p == q
                    for r in types:
                        if dominates(p, q) and dominates(q, r):
                            assert dominates(p, r)


def fraction_height(vertices, x):
    """Reference: the height at rank x by Fraction slopes."""
    for (r0, d0), (r1, d1) in zip(vertices, vertices[1:]):
        if r0 <= x <= r1:
            return d0 + Fraction(d1 - d0, r1 - r0) * (x - r0)
    raise AssertionError(f"rank {x} outside the polygon")


def reference_dominates(p, q):
    """Reference: p's polygon on or above q's at ranks 1..r-1, by Fraction heights."""
    vertices_p, vertices_q = polygon_of(p), polygon_of(q)
    return all(
        fraction_height(vertices_p, x) >= fraction_height(vertices_q, x)
        for x in range(1, p.total_rank)
    )


_STEP = st.tuples(st.integers(1, 3), st.integers(-9, 9))


def _steepest_first(steps):
    """The HN type of the steps sorted steepest first; equal slopes merge."""
    return HNType(tuple(sorted(steps, key=lambda s: Fraction(s[1], s[0]), reverse=True)))


@st.composite
def hn_pairs(draw):
    """Two HN types of equal total rank and degree, from steps of rank 1-3."""
    steps = draw(st.lists(_STEP, min_size=1, max_size=4))
    rank, degree = sum(r for r, _ in steps), sum(d for _, d in steps)
    other = []
    while rank > 0:
        r = draw(st.integers(1, min(3, rank)))
        d = draw(st.integers(-9, 9)) if rank > r else degree
        other.append((r, d))
        rank, degree = rank - r, degree - d
    return _steepest_first(steps), _steepest_first(other)


class TestIntegerPolygonArithmetic:
    """Dominance by integer heights agrees with a Fraction reference."""

    @given(hn_pairs())
    def test_dominance_matches_fraction_heights(self, pair):
        p, q = pair
        assert (p.total_rank, p.total_degree) == (q.total_rank, q.total_degree)
        assert dominates(p, q) == reference_dominates(p, q)
        assert dominates(q, p) == reference_dominates(q, p)

    def test_dominance_on_admissible_types(self):
        from higgsstrata import enumerate_strata

        for rank, degree, g in ((3, 0, 4), (3, 1, 3), (3, -2, 3), (2, 1, 4)):
            types = [s.hn for s in enumerate_strata(rank, degree, Genus(g))]
            for p in types:
                for q in types:
                    assert dominates(p, q) == reference_dominates(p, q)


class TestLabels:
    @pytest.mark.parametrize(
        "label,text",
        [
            (HodgeBundle((1, 1), (1, -1)), "r2:1"),
            (HodgeBundle((1, 2), (1, 0)), "t12:1|0"),
            (HodgeBundle((2, 1), (2, -1)), "t21:2|-1"),
            (HodgeBundle((1, 1, 1), (1, 0, -1)), "t111:1,0,-1"),
            (PolystableSum(((1, -1), (0,))), "poly:[1,-1]+[0]"),
            (PolystableSum(((3,), (-1, -2))), "poly:[-1,-2]+[3]"),
        ],
    )
    def test_encoding_round_trip(self, label, text):
        assert format_label(label) == text

    def test_min_needs_context(self):
        # "min" shows neither rank nor degree: the ambient ones fix both.
        assert format_label(HodgeBundle((3,), (0,))) == "min"

    def test_r2_needs_the_ambient_degree(self):
        # "r2:d1" shows d1 only; d2 = d - d1 comes from the ambient degree.
        assert format_label(HodgeBundle((1, 1), (1, 0))) == "r2:1"
        assert format_label(HodgeBundle((1, 1), (1, -3))) == "r2:1"

    def test_format_label_refuses_a_non_label(self):
        with pytest.raises(TypeError, match="not a fixed-component label"):
            format_label((1, 0, -1))

    @pytest.mark.parametrize(
        "ranks", [(1,), (4,), (2, 2), (1, 1, 2), (1, 1, 1, 1), (0, 2), (3, 0), "11", None]
    )
    def test_hodge_bundle_refuses_unsupported_types(self, ranks):
        with pytest.raises(ValueError, match="not a supported Hodge type"):
            HodgeBundle(ranks, (0,) * 2)

    @pytest.mark.parametrize(
        "ranks,degrees",
        [
            # Accepted, the first three would format as t111:1.5,0,-1.5,
            # t12:0.5|-0.5 and r2:1, and pass validate_component_label.
            ((1, 1, 1), (1.5, 0, -1.5)),
            ((1, 2), (0.5, -0.5)),
            ((1, 1), ("1", -1)),
            ((1, 1), (Fraction(1, 2), Fraction(-1, 2))),
            ((3,), (None,)),
            ((1, 2), (1, 0, -1)),
            ((1, 1, 1), (1, -1)),
            ((2,), 0),
        ],
    )
    def test_hodge_bundle_refuses_non_integer_or_miscounted_degrees(self, ranks, degrees):
        with pytest.raises(ValueError, match="integer degrees"):
            HodgeBundle(ranks, degrees)

    def test_hodge_bundle_normalises_integral_values(self):
        label = HodgeBundle([Fraction(1), 2.0], [Fraction(2), -2])
        assert label == HodgeBundle((1, 2), (2, -2))
        assert all(type(x) is int for x in label.ranks + label.degrees)
        assert format_label(label) == "t12:2|-2"

    def test_polystable_sum_refuses_an_empty_summand(self):
        # Its label "poly:[1,-1]+[]" would not parse back, and the empty
        # piece would vanish from the graded degrees.
        with pytest.raises(ValueError, match="polystable summands must be nonempty"):
            PolystableSum(((1, -1), ()))

    def test_polystable_sum_degrees_follow_the_canonical_order(self):
        assert PolystableSum(((0,), (1, -1))).degrees == (1, -1, 0)
        assert PolystableSum(((3,), (-1, -2))).degrees == (-1, -2, 3)

    def test_polystable_sum_is_unordered(self):
        a = PolystableSum(((0,), (1, -1)))
        b = PolystableSum(((1, -1), (0,)))
        assert a == b
        assert a.summands == ((1, -1), (0,))

    @pytest.mark.parametrize(
        "summands",
        [((1, 0.5), (0,)), ((1, -1), (Fraction(1, 2),)), ((1, "-1"), (0,)), ((1, None),), (1, 0)],
    )
    def test_polystable_sum_refuses_non_integer_degrees(self, summands):
        with pytest.raises(ValueError, match="summand degrees must be integers"):
            PolystableSum(summands)

    def test_polystable_sum_normalises_integral_degrees(self):
        label = PolystableSum([[Fraction(1), -1], (Fraction(0),)])
        assert label == PolystableSum(((1, -1), (0,)))
        assert all(type(x) is int for s in label.summands for x in s)


class TestLimitOutcome:
    def test_graded_degrees_must_conserve_degree(self):
        with pytest.raises(ValueError):
            LimitOutcome(
                case_tag=CaseTag.RANK2,
                component=HodgeBundle((1, 1), (1, 1)),
                hnt_limit=HNType(((1, 1), (1, 0))),
            )

    @pytest.mark.parametrize(
        "graded", [(1.5, -0.5), (Fraction(3, 2), Fraction(-1, 2)), ("1", 0), (1, None), 1]
    )
    def test_graded_degrees_must_be_integers(self, graded):
        # Both label classes refuse such degrees themselves; the outcome
        # checks whatever component it is given.
        component = SimpleNamespace(degrees=graded)
        with pytest.raises(ValueError, match="graded degrees must be integers"):
            LimitOutcome(CaseTag.RANK2, component, HNType(((1, 1), (1, 0))))

    def test_integral_graded_degrees_normalise_to_int(self):
        component = HodgeBundle((1, 1), [Fraction(1), 0.0])
        out = LimitOutcome(CaseTag.RANK2, component, HNType(((1, 1), (1, 0))))
        assert out.graded_degrees == (1, 0)
        assert all(type(x) is int for x in out.graded_degrees)

    @pytest.mark.parametrize(
        "component,polystable",
        [
            (PolystableSum(((1, -1), (0,))), True),
            (HodgeBundle((1, 1, 1), (1, 0, -1)), False),
            (HodgeBundle((3,), (0,)), False),
        ],
    )
    def test_polystable_flag_is_read_from_the_component(self, component, polystable):
        out = LimitOutcome(CaseTag.C1_3, component, HNType(((1, 1), (1, 0), (1, -1))))
        assert out.strictly_polystable is polystable


# One instance of each Frozen type, and its repr: Name(field=value, ...),
# the text a frozen dataclass prints.
_HN = HNType(((1, 1), (1, 0), (1, -1)))
_POLY = PolystableSum(((0,), (1, -1)))
FROZEN_VALUES = {
    Genus: (lambda: Genus(3), "Genus(g=3)"),
    HNType: (lambda: HNType(((1, 1), (2, 0))), "HNType(steps=((1, 1), (2, 0)))"),
    HodgeBundle: (
        lambda: HodgeBundle((1, 2), (1, -1)), "HodgeBundle(ranks=(1, 2), degrees=(1, -1))"
    ),
    PolystableSum: (
        lambda: PolystableSum(((0,), (1, -1))), "PolystableSum(summands=((1, -1), (0,)))"
    ),
    LimitOutcome: (
        lambda: LimitOutcome(CaseTag.C1_2, _POLY, _HN),
        "LimitOutcome(case_tag=<CaseTag.C1_2: '1.2'>, "
        "component=PolystableSum(summands=((1, -1), (0,))), "
        "hnt_limit=HNType(steps=((1, 1), (1, 0), (1, -1))))",
    ),
    AdmissibleStratum: (
        lambda: AdmissibleStratum(HNType(((1, 1), (2, 0))), Genus(3)),
        "AdmissibleStratum(hn=HNType(steps=((1, 1), (2, 0))), genus=Genus(g=3))",
    ),
    BlockPattern: (
        lambda: BlockPattern((0, 1), {(2, 1)}, {(1, 2)}),
        "BlockPattern(weights=(0, 1), higgs_blocks=frozenset({(2, 1)}), "
        "dbar_blocks=frozenset({(1, 2)}))",
    ),
    IncidenceRow: (
        lambda: IncidenceRow(AdmissibleStratum(HNType(((2, 1),)), Genus(2)), ()),
        "IncidenceRow(stratum=AdmissibleStratum(hn=HNType(steps=((2, 1),)), "
        "genus=Genus(g=2)), runs=())",
    ),
    IncidenceTable: (
        lambda: IncidenceTable(2, 1, Genus(2), ()),
        "IncidenceTable(rank=2, degree=1, genus=Genus(g=2), rows=())",
    ),
}


class TestFrozenValues:
    """Each Frozen type compares, hashes and prints by its fields alone,
    as a frozen dataclass does, and refuses assignment."""

    def test_every_frozen_type_is_listed(self):
        assert set(Frozen.__subclasses__()) == set(FROZEN_VALUES)

    @pytest.mark.parametrize("cls", FROZEN_VALUES, ids=lambda cls: cls.__name__)
    def test_fields_decide_equality_hash_and_repr(self, cls):
        make, text = FROZEN_VALUES[cls]
        value, twin = make(), make()
        fields = tuple(getattr(value, name) for name in cls._fields)
        assert value is not twin and value == twin and not value != twin
        assert hash(value) == hash(twin) == hash(fields)
        assert value != fields and fields != value
        assert repr(value) == text

    @pytest.mark.parametrize("cls", FROZEN_VALUES, ids=lambda cls: cls.__name__)
    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        value = FROZEN_VALUES[cls][0]()
        before = repr(value)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == before

    def test_a_built_table_is_its_fields(self):
        table = build_table(3, 0, Genus(2))
        assert vars(table).keys() == set(IncidenceTable._fields)
