"""Gauge-scaling engine: exponents, limits and the per-case checks."""

from itertools import product

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
    oracle_check,
    parse_hn_type,
    scale_exponents,
    take_limit,
)

weight_vectors = st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4)


def full_pattern(weights):
    pieces = range(1, len(weights) + 1)
    upper = {(i, j) for i, j in product(pieces, repeat=2) if i < j}
    return BlockPattern(tuple(weights), set(product(pieces, repeat=2)), upper)


def chain_pattern(weights):
    return BlockPattern(tuple(weights), {(i + 1, i) for i in range(1, len(weights))}, set())


@st.composite
def block_patterns(draw):
    """Any pattern of 1 to 4 pieces: weights in -3..3, a random set of
    Higgs blocks and a random set of strictly upper dbar blocks."""
    n = draw(st.integers(min_value=1, max_value=4))
    weights = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n))
    grid = sorted(product(range(1, n + 1), repeat=2))
    upper = [(i, j) for i, j in grid if i < j]
    higgs = draw(st.sets(st.sampled_from(grid)))
    dbar = draw(st.sets(st.sampled_from(upper))) if upper else set()
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
        assert limit.limit_higgs == set()

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
        assert limit.limit_higgs == {(2, 1)}
        assert limit.limit_dbar == set()

    def test_three_piece_pattern_without_corner(self):
        higgs = set(product((1, 2, 3), repeat=2)) - {(3, 1)}
        limit = take_limit(BlockPattern((0, 1, 2), higgs, {(1, 2), (1, 3), (2, 3)}))
        assert limit.converges
        assert limit.limit_higgs == {(2, 1), (3, 2)}
        assert limit.limit_dbar == set()

    def test_nonzero_corner_diverges(self):
        limit = take_limit(full_pattern((0, 1, 2)))
        assert not limit.converges
        assert limit.divergent_blocks == (("higgs", 3, 1),)

    def test_divergent_blocks_list_the_higgs_blocks_first(self):
        # Decreasing weights: every dbar block and the Higgs corner (1,3)
        # scale with a negative exponent.
        limit = take_limit(full_pattern((2, 1, 0)))
        assert limit.divergent_blocks == (
            ("higgs", 1, 3), ("dbar", 1, 2), ("dbar", 1, 3), ("dbar", 2, 3),
        )

    @given(block_patterns())
    def test_limit_keeps_exactly_the_blocks_of_exponent_zero(self, pattern):
        # Exponents from the weights, as the gauge scales each block.
        w = pattern.weights
        exponent = {
            "higgs": lambda i, j: 1 + w[j - 1] - w[i - 1],
            "dbar": lambda i, j: w[j - 1] - w[i - 1],
        }
        blocks = {"higgs": pattern.higgs_blocks, "dbar": pattern.dbar_blocks}
        limit = take_limit(pattern)
        assert limit.limit_higgs == {b for b in blocks["higgs"] if exponent["higgs"](*b) == 0}
        assert limit.limit_dbar == {b for b in blocks["dbar"] if exponent["dbar"](*b) == 0}
        divergent = [
            (kind, i, j) for kind in blocks for i, j in blocks[kind] if exponent[kind](i, j) < 0
        ]
        assert sorted(limit.divergent_blocks) == sorted(divergent)
        assert limit.converges == (not divergent)
        n = len(w)
        assert limit.exponents == tuple(
            tuple(exponent["higgs"](i, j) for j in range(1, n + 1)) for i in range(1, n + 1)
        )

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
        for i, j in ((1, 1), (2, 1)):
            with pytest.raises(ValueError) as raised:
                BlockPattern((0, 1), set(), {(1, 2), (i, j)})
            assert str(raised.value) == f"dbar block ({i},{j}) on or below the diagonal"

    def test_grid_shape_checked(self):
        # A position outside the n x n grid, in either set.
        with pytest.raises(ValueError) as raised:
            BlockPattern((0, 1), {(2, 1), (3, 1)}, set())
        assert str(raised.value) == "higgs block (3,1) outside the 2x2 grid"
        with pytest.raises(ValueError) as raised:
            BlockPattern((0, 1), set(), {(0, 1)})
        assert str(raised.value) == "dbar block (0,1) outside the 2x2 grid"

    def test_blocks_are_held_as_frozensets(self):
        pattern = BlockPattern((0, 1), [(2, 1), (2, 1)], ((1, 2),))
        assert pattern.higgs_blocks == frozenset({(2, 1)})
        assert pattern.dbar_blocks == frozenset({(1, 2)})
        assert type(pattern.higgs_blocks) is type(pattern.dbar_blocks) is frozenset
