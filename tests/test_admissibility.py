"""Slope bounds, stratum enumeration and invariant ranges."""

from fractions import Fraction
from itertools import accumulate
from math import ceil, floor

import pytest

from higgsstrata import (
    AdmissibleStratum,
    CaseFamily,
    Genus,
    HNType,
    Rank2BoundViolated,
    Rank3BoundViolated,
    RankUnsupported,
    enumerate_strata,
    invariant_range,
    parse_hn_type,
)


def naive_strata(rank: int, degree: int, g: int) -> set[HNType]:
    """Brute-force oracle: scan a wide degree window and keep the step
    vectors whose slope gaps pass the bounds, written straight from the
    inequalities rather than from the library's tight loops."""
    k = 2 * g - 2
    window = range(degree - 6 * k - 12, degree + 6 * k + 13)
    out = {HNType(((rank, degree),))}
    if rank == 2:
        for d1 in window:
            d2 = degree - d1
            if d1 > d2 and Fraction(d1) - Fraction(d2) <= k:
                out.add(HNType(((1, d1), (1, d2))))
    else:
        for a in window:
            b2 = degree - a  # shape (1, 2)
            if Fraction(a) > Fraction(b2, 2) and Fraction(a) - Fraction(b2, 2) <= k:
                out.add(HNType(((1, a), (2, b2))))
            e2 = degree - a  # shape (2, 1): a is the line degree below
            if Fraction(e2, 2) > Fraction(a) and Fraction(e2, 2) - Fraction(a) <= k:
                out.add(HNType(((2, e2), (1, a))))
            for b in window:
                c = degree - a - b
                if a > b > c and a - b <= k and b - c <= k:
                    out.add(HNType(((1, a), (1, b), (1, c))))
    return out


class TestValidate:
    def test_rank3_gap_violation_names_the_gap(self):
        with pytest.raises(Rank3BoundViolated, match="mu1 - mu2 = 3"):
            AdmissibleStratum(parse_hn_type("1:3,2:0"), Genus(2))

    def test_rank3_second_gap(self):
        with pytest.raises(Rank3BoundViolated, match="mu2 - mu3"):
            AdmissibleStratum(parse_hn_type("1:1,1:0,1:-9"), Genus(2))

    def test_valid_triple(self):
        stratum = AdmissibleStratum(parse_hn_type("1:1,1:0,1:-1"), Genus(2))
        assert stratum.hn.mu_vector == (Fraction(1), Fraction(0), Fraction(-1))

    def test_semistable_always_valid(self):
        assert AdmissibleStratum(parse_hn_type("3:0"), Genus(2)).is_semistable

    def test_rank2_bound(self):
        AdmissibleStratum(parse_hn_type("1:1,1:0"), Genus(2))
        with pytest.raises(Rank2BoundViolated):
            AdmissibleStratum(parse_hn_type("1:3,1:0"), Genus(2))

    def test_unsupported_rank(self):
        with pytest.raises(RankUnsupported):
            AdmissibleStratum(HNType(((4, 0),)), Genus(2))

    @pytest.mark.parametrize("hn_text, error, text", [
        ("1:10,2:-10", Rank3BoundViolated, "mu1 - mu2 = 15 > 2g-2 = 2 for 1:10,2:-10"),
        ("1:3,1:0,1:-3", Rank3BoundViolated, "mu1 - mu2 = 3 > 2g-2 = 2 for 1:3,1:0,1:-3"),
        ("1:5,1:-5", Rank2BoundViolated, "2*d1 - d = 10 exceeds 2g-2 = 2 for 1:5,1:-5"),
    ])
    def test_no_stratum_is_built_outside_the_bounds(self, hn_text, error, text):
        # The constructor is the one way to build a stratum, so none that
        # breaks the bounds reaches classify_stratum or check_outcome.
        with pytest.raises(error) as caught:
            AdmissibleStratum(parse_hn_type(hn_text), Genus(2))
        assert str(caught.value) == text


class TestEnumerateStrata:
    def test_rank2_example(self):
        got = {s.hn for s in enumerate_strata(2, 1, Genus(2))}
        assert got == {parse_hn_type("2:1"), parse_hn_type("1:1,1:0")}

    def test_rank3_degree0_genus2_is_the_five_strata(self):
        got = [str(s.hn) for s in enumerate_strata(3, 0, Genus(2))]
        assert len(got) == 5
        assert set(got) == {"3:0", "1:1,1:0,1:-1", "1:2,1:0,1:-2", "1:1,2:-1", "2:1,1:-1"}

    def test_rank3_degree1_contains_merged_type(self):
        got = {s.hn for s in enumerate_strata(3, 1, Genus(2))}
        assert parse_hn_type("1:1,2:0") in got

    @pytest.mark.parametrize("rank", (2, 3))
    @pytest.mark.parametrize("degree", range(-4, 5))
    @pytest.mark.parametrize("g", (2, 3))
    def test_matches_naive_oracle(self, rank, degree, g):
        got = {s.hn for s in enumerate_strata(rank, degree, Genus(g))}
        assert got == naive_strata(rank, degree, g)

    def test_exactly_one_semistable_and_gaps_in_bounds(self):
        for g in (2, 3, 4, 5):
            for d in range(-6, 7):
                strata = enumerate_strata(3, d, Genus(g))
                assert sum(1 for s in strata if s.is_semistable) == 1
                for s in strata:
                    mu1, mu2, mu3 = s.hn.mu_vector
                    assert 0 <= mu1 - mu2 <= 2 * g - 2
                    assert 0 <= mu2 - mu3 <= 2 * g - 2

    def test_deterministic_order_semistable_first(self):
        first = enumerate_strata(3, 2, Genus(3))
        second = enumerate_strata(3, 2, Genus(3))
        assert first == second
        assert first[0].is_semistable

    def test_unsupported_rank(self):
        with pytest.raises(RankUnsupported):
            enumerate_strata(4, 0, Genus(2))

    @pytest.mark.parametrize("rank", (2, 3))
    def test_order_is_the_polygon_height_order(self, rank):
        # The heights of the HN polygon above ranks 1 .. rank-1, from the
        # HN type's Fraction slopes, with the step tuples as tie-break.
        def heights(stratum):
            return tuple(accumulate(stratum.hn.mu_vector[:-1])), stratum.hn.steps

        for g in range(2, 13):
            for d in range(-9, 10):
                strata = enumerate_strata(rank, d, Genus(g))
                assert strata == sorted(strata, key=heights), (g, d)
                assert len({heights(s)[0] for s in strata}) == len(strata), (g, d)


class TestInvariantRange:
    def test_case1_interval(self):
        stratum = AdmissibleStratum(parse_hn_type("1:1,2:0"), Genus(3))
        rng = invariant_range(stratum)
        assert rng.case_family is CaseFamily.CASE1_I
        assert (rng.interval_low, rng.interval_high) == (Fraction(-3), Fraction(0))
        assert rng.isolated_point is None  # mu2 = mu3
        assert rng.feasible_integers == (-3, -2, -1, 0)

    def test_case2_interval(self):
        stratum = AdmissibleStratum(parse_hn_type("2:1,1:-1"), Genus(2))
        rng = invariant_range(stratum)
        assert rng.case_family is CaseFamily.CASE2_N
        assert (rng.interval_low, rng.interval_high) == (Fraction(0), Fraction(1, 2))
        assert rng.isolated_point is None  # mu1 = mu2
        assert rng.feasible_integers == (0,)

    def test_case3_flag(self):
        stratum = AdmissibleStratum(parse_hn_type("1:2,1:0,1:-2"), Genus(2))
        rng = invariant_range(stratum)
        assert rng.case_family is CaseFamily.CASE3_FLAG
        assert rng.feasible_integers == ()

    def test_semistable_has_no_range(self):
        rng = invariant_range(AdmissibleStratum(parse_hn_type("3:0"), Genus(2)))
        assert rng.case_family is CaseFamily.NONE

    def test_isolated_point_present_when_slopes_split(self):
        stratum = AdmissibleStratum(parse_hn_type("1:2,1:0,1:-1"), Genus(2))
        rng = invariant_range(stratum)
        assert rng.case_family is CaseFamily.CASE1_I
        assert rng.isolated_point == Fraction(0)
        # interval [2-2, -1] is empty; the isolated point is the sole member
        assert rng.feasible_integers == (0,)

    def test_rank2_rejected(self):
        with pytest.raises(RankUnsupported):
            invariant_range(AdmissibleStratum(parse_hn_type("1:1,1:0"), Genus(2)))


class TestFeasibleIntegers:
    def test_matches_invariant_range(self):
        for g in (2, 3, 4, 5):
            for d in range(-6, 7):
                for stratum in enumerate_strata(3, d, Genus(g)):
                    integers = stratum.feasible_integers
                    assert integers == invariant_range(stratum).feasible_integers
                    assert all(type(v) is int for v in integers)

    def test_cached_and_shared_with_invariant_range(self):
        stratum = AdmissibleStratum(parse_hn_type("1:1,2:0"), Genus(3))
        assert stratum.feasible_integers is stratum.feasible_integers
        assert invariant_range(stratum).feasible_integers is stratum.feasible_integers

    def test_feasible_inputs_build_no_fraction(self, monkeypatch):
        from higgsstrata import admissibility, feasible_inputs

        def refuse(*args):
            raise AssertionError("a Fraction was built")

        strata = enumerate_strata(3, 1, Genus(4))
        monkeypatch.setattr(admissibility, "Fraction", refuse)
        for stratum in strata:
            data = feasible_inputs(stratum)
            if stratum.window6 is not None:
                assert data == list(stratum.feasible_integers)


def test_threshold_below_mu3_iff_case1():
    # mu2 < mu is equivalent to mu3 > t, in both directions, across all
    # admissible unstable strata of the desk-scale grid.
    for g in (2, 3, 4, 5):
        for d in range(-6, 7):
            for stratum in enumerate_strata(3, d, Genus(g)):
                if stratum.is_semistable:
                    continue
                mu1, mu2, mu3 = stratum.hn.mu_vector
                mu = Fraction(stratum.hn.total_degree, stratum.hn.total_rank)
                t = (-mu1 + 2 * mu2 + 2 * mu3) / 3  # the case-1 threshold
                if stratum.case_family is CaseFamily.CASE1_I:
                    assert stratum.window6[3] == 6 * t
                assert (mu2 < mu) == (mu3 > t)
                assert (mu2 >= mu) == (mu3 <= t)


def test_wide_spread_forces_singleton_feasible_set():
    # When mu1 - mu3 > 2g-2 the interval part is empty and the isolated
    # point is the only feasible value.
    seen = 0
    for g in (2, 3, 4, 5):
        for d in range(-6, 7):
            for stratum in enumerate_strata(3, d, Genus(g)):
                if stratum.is_semistable:
                    continue
                mu1, mu2, mu3 = stratum.hn.mu_vector
                if mu1 - mu3 <= 2 * g - 2:
                    continue
                seen += 1
                rng = invariant_range(stratum)
                if rng.case_family is CaseFamily.CASE1_I:
                    assert rng.interval_low > rng.interval_high
                    assert rng.feasible_integers == (int(mu2),)
                elif rng.case_family is CaseFamily.CASE2_N:
                    assert rng.feasible_integers == (int(mu1),)
    assert seen > 0


RANK3_DATA = ("case_family", "window6", "feasible_integers")


def reference_rank3_data(stratum) -> dict:
    """The rank-3 integer data from Fraction slopes, as the definitions
    state them."""
    mu1, mu2, mu3 = stratum.hn.mu_vector
    mu = Fraction(stratum.hn.total_degree, stratum.hn.total_rank)
    k = stratum.genus.canonical_degree
    t = (-mu1 + 2 * mu2 + 2 * mu3) / 3
    window = None
    if stratum.is_semistable:
        family = CaseFamily.NONE
    elif mu2 < mu:
        family, window = CaseFamily.CASE1_I, (mu1 - k, mu3, mu2, t)
    elif mu2 > mu:
        family, window = CaseFamily.CASE2_N, (mu1 + mu2 - mu3 - k, mu2, mu1, mu)
    else:
        family = CaseFamily.CASE3_FLAG
    feasible = ()
    if window is not None:
        low, gap_low, gap_high, _ = window
        feasible = tuple(
            v for v in range(floor(low) - 1, ceil(gap_high) + 2)
            if low <= v <= gap_low or (v == gap_high and gap_high > gap_low)
        )
    return {
        "case_family": family,
        "window6": None if window is None else tuple(6 * w for w in window),
        "feasible_integers": feasible,
    }


class TestEagerIntegerData:
    def test_integer_data_match_fraction_references(self):
        for rank in (2, 3):
            for g in range(2, 9):
                for d in range(-8, 9):
                    for stratum in enumerate_strata(rank, d, Genus(g)):
                        # Set at construction, before any read, for both ranks.
                        assert {"mu6_vector", *RANK3_DATA} <= vars(stratum).keys()
                        assert {"total_rank", "total_degree"} <= vars(stratum.hn).keys()
                        assert (stratum.hn.total_rank, stratum.hn.total_degree) == (rank, d)
                        assert stratum.mu6_vector == tuple(6 * m for m in stratum.hn.mu_vector)
                        if rank == 3:
                            got = {name: getattr(stratum, name) for name in RANK3_DATA}
                            assert got == reference_rank3_data(stratum), stratum.hn
                        integers = list(stratum.mu6_vector)
                        integers += stratum.window6 or ()
                        integers += stratum.feasible_integers
                        assert all(type(v) is int for v in integers)

    @pytest.mark.parametrize("name", RANK3_DATA)
    @pytest.mark.parametrize("hn_text", ["1:1,1:0", "1:2,1:-1", "2:1"])
    def test_rank3_data_of_a_rank2_stratum_is_empty(self, hn_text, name):
        # One shape for both ranks: a rank-2 stratum has no case family,
        # no window and no feasible integers, set at construction.
        stratum = AdmissibleStratum(parse_hn_type(hn_text), Genus(3))
        assert name in vars(stratum)
        assert getattr(stratum, name) == {
            "case_family": None, "window6": None, "feasible_integers": (),
        }[name]
        with pytest.raises(AttributeError):
            stratum.no_such_attribute

    def test_equality_hash_and_repr_see_only_the_fields(self):
        assert AdmissibleStratum._fields == ("hn", "genus")
        assert HNType._fields == ("steps",)
        hn = HNType(((1, 1), (1, 0), (1, 0)))
        assert repr(hn) == "HNType(steps=((1, 1), (2, 0)))"
        assert hn == HNType(((1, 1), (2, 0)))
        assert hash(hn) == hash((((1, 1), (2, 0)),))
        stratum = AdmissibleStratum(hn, Genus(3))
        assert repr(stratum) == (
            "AdmissibleStratum(hn=HNType(steps=((1, 1), (2, 0))), genus=Genus(g=3))"
        )
        assert hash(stratum) == hash((hn, Genus(3)))
        assert stratum == AdmissibleStratum(parse_hn_type("1:1,2:0"), Genus(3))
        assert stratum != AdmissibleStratum(hn, Genus(4))
