"""Gauge-scaling engine: exponents, limits and the per-case checks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from higgsstrata import (
    AdmissibleStratum,
    BlockPattern,
    CaseTag,
    ClassifierInput,
    Genus,
    LimitOutcome,
    classify,
    classify_rank3,
    nonzero_set,
    oracle_check,
    parse_hn_type,
    scale_exponents,
    take_limit,
)

weight_vectors = st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4)


def full_pattern(weights):
    n = len(weights)
    higgs = tuple(tuple(True for _ in range(n)) for _ in range(n))
    dbar = tuple(tuple(j > i for j in range(n)) for i in range(n))
    return BlockPattern(tuple(weights), higgs, dbar)


def chain_pattern(weights):
    n = len(weights)
    higgs = tuple(tuple(i == j + 1 for j in range(n)) for i in range(n))
    dbar = tuple(tuple(False for _ in range(n)) for _ in range(n))
    return BlockPattern(tuple(weights), higgs, dbar)


class TestScaleExponents:
    def test_two_piece_weights(self):
        higgs, dbar = scale_exponents(full_pattern((0, 1)))
        assert higgs == ((1, 2), (0, 1))
        assert dbar == ((0, 1), (-1, 0))

    def test_three_piece_weights(self):
        higgs, _ = scale_exponents(full_pattern((0, 1, 2)))
        assert higgs[0][2] == 3
        assert higgs[2][0] == -1

    def test_constant_weights_kill_the_higgs_field(self):
        higgs, _ = scale_exponents(full_pattern((0, 0)))
        assert higgs == ((1, 1), (1, 1))
        limit = take_limit(full_pattern((0, 0)))
        assert limit.converges
        assert nonzero_set(limit.limit_higgs) == set()

    @given(weight_vectors)
    def test_higgs_exponents_antisymmetric_around_two(self, weights):
        higgs, dbar = scale_exponents(full_pattern(weights))
        n = len(weights)
        for i in range(n):
            for j in range(n):
                assert higgs[i][j] + higgs[j][i] == 2
                assert dbar[i][j] == -dbar[j][i]


class TestTakeLimit:
    def test_two_piece_full_pattern(self):
        limit = take_limit(full_pattern((0, 1)))
        assert limit.converges
        assert nonzero_set(limit.limit_higgs) == {(2, 1)}
        assert nonzero_set(limit.limit_dbar) == set()

    def test_three_piece_pattern_without_corner(self):
        pattern = BlockPattern(
            (0, 1, 2),
            ((True, True, True), (True, True, True), (False, True, True)),
            ((False, True, True), (False, False, True), (False, False, False)),
        )
        limit = take_limit(pattern)
        assert limit.converges
        assert nonzero_set(limit.limit_higgs) == {(2, 1), (3, 2)}
        assert nonzero_set(limit.limit_dbar) == set()

    def test_nonzero_corner_diverges(self):
        limit = take_limit(full_pattern((0, 1, 2)))
        assert not limit.converges
        assert ("higgs", 3, 1) in limit.divergent_blocks

    @given(weight_vectors, st.integers(min_value=-7, max_value=7))
    def test_weight_shift_invariance(self, weights, shift):
        base = take_limit(full_pattern(weights))
        shifted = take_limit(full_pattern([w + shift for w in weights]))
        assert base.exponents == shifted.exponents
        assert base.limit_higgs == shifted.limit_higgs
        assert base.limit_dbar == shifted.limit_dbar
        assert base.converges == shifted.converges

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_subdiagonal_chain_is_fixed(self, n):
        pattern = chain_pattern(tuple(range(n)))
        limit = take_limit(pattern)
        assert limit.converges
        assert limit.limit_higgs == pattern.higgs_blocks


class TestOracleCheck:
    def test_type111_case(self):
        stratum = AdmissibleStratum(parse_hn_type("1:1,2:0"), Genus(3))
        out = classify_rank3(ClassifierInput(stratum, 0))
        assert oracle_check(out)

    def test_rank2_case(self):
        out = classify(ClassifierInput(AdmissibleStratum(parse_hn_type("1:1,1:0"), Genus(2)), None))
        assert oracle_check(out)

    def test_semistable_case(self):
        out = classify(ClassifierInput(AdmissibleStratum(parse_hn_type("3:0"), Genus(2)), None))
        assert oracle_check(out)

    def test_polystable_case12(self):
        stratum = AdmissibleStratum(parse_hn_type("1:1,2:-1"), Genus(2))
        out = classify_rank3(ClassifierInput(stratum, -1))
        assert out.strictly_polystable and oracle_check(out)

    def test_polystable_case22(self):
        stratum = AdmissibleStratum(parse_hn_type("2:1,1:-1"), Genus(2))
        out = classify_rank3(ClassifierInput(stratum, 0))
        assert out.strictly_polystable and oracle_check(out)

    def test_polystable_case32(self):
        stratum = AdmissibleStratum(parse_hn_type("1:1,1:0,1:-1"), Genus(2))
        out = classify_rank3(ClassifierInput(stratum, False))
        assert out.strictly_polystable and oracle_check(out)

    def test_rejects_a_case_tag_that_disagrees_with_the_component(self):
        # A case-1.3 outcome with a polystable component, and a case-1.2
        # outcome with a type-(1,1,1) one: the oracle reads whether the
        # limit is polystable from the component, so neither passes.
        def outcome(hn_text, g, invariant):
            stratum = AdmissibleStratum(parse_hn_type(hn_text), Genus(g))
            return classify_rank3(ClassifierInput(stratum, invariant))

        case12, case13 = outcome("1:1,2:-1", 2, -1), outcome("1:1,2:0", 3, 0)
        assert oracle_check(case12) and oracle_check(case13)
        for tag, out in ((CaseTag.C1_3, case12), (CaseTag.C1_2, case13)):
            swapped = LimitOutcome(tag, out.component, out.hnt_limit)
            assert not oracle_check(swapped)
        assert case13.component.ranks == (1, 1, 1)


class TestBlockPatternValidation:
    def test_dbar_must_be_strictly_upper(self):
        with pytest.raises(ValueError):
            BlockPattern((0, 1), ((True, True), (True, True)), ((True, False), (False, False)))

    def test_grid_shape_checked(self):
        with pytest.raises(ValueError):
            BlockPattern((0, 1), ((True,),), ((False, False), (False, False)))

