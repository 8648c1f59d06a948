"""Duality and twist: two symmetries of the classification, checked exactly.

Duality E -> E* reverses and negates the HN steps and sends case family 2
onto case family 1; twisting by a degree-1 line bundle adds r to the
degree of every rank-r piece.  Both maps must carry classifier outcomes,
refusals and feasible sets onto each other.  Neither side is computed
through the other, so these are independent checks of the classifier.
"""

from higgsstrata import (
    AdmissibleStratum,
    ClassificationError,
    ClassifierInput,
    Genus,
    HNType,
    HodgeBundle,
    LimitOutcome,
    PolystableSum,
    build_table,
    classify,
    enumerate_strata,
    feasible_inputs,
)
from higgsstrata.admissibility import CaseFamily
from higgsstrata.core import CaseTag

# ---------------------------------------------------------------------------
# Duality

_DUAL_TAG = {
    CaseTag.C1_1: CaseTag.C2_1,
    CaseTag.C1_2: CaseTag.C2_2,
    CaseTag.C1_3: CaseTag.C2_3,
    CaseTag.C1_4: CaseTag.C2_4,
}


def dual_hn(hn: HNType) -> HNType:
    return HNType(tuple((r, -d) for r, d in reversed(hn.steps)))


def _dual_degrees(degrees):
    # Dualising reverses the Hodge weights and negates each degree.
    return tuple(-x for x in reversed(degrees))


def dual_label(label):
    if isinstance(label, PolystableSum):
        return PolystableSum(tuple(map(_dual_degrees, label.summands)))
    return HodgeBundle(label.ranks[::-1], _dual_degrees(label.degrees))


def dual_outcome(outcome: LimitOutcome) -> LimitOutcome:
    """The family-2 outcome that duality predicts from a family-1 one."""
    return LimitOutcome(
        _DUAL_TAG[outcome.case_tag],
        dual_label(outcome.component),
        dual_hn(outcome.hnt_limit),
    )


def _classify(stratum, datum):
    try:
        return classify(ClassifierInput(stratum, datum)), None
    except ClassificationError as exc:
        return None, type(exc)


def test_duality_maps_case_family_2_onto_case_family_1():
    pairs = 0
    for g in range(2, 8):
        genus = Genus(g)
        for d in range(-9, 10):
            for stratum in enumerate_strata(3, d, genus):
                if stratum.is_semistable or stratum.case_family is not CaseFamily.CASE2_N:
                    continue
                dual = AdmissibleStratum(dual_hn(stratum.hn), genus)
                assert dual.case_family is CaseFamily.CASE1_I, stratum.hn
                e2 = d - stratum.hn.steps[-1][1]  # deg E2
                feasible = feasible_inputs(stratum)
                assert feasible == [x + e2 for x in feasible_inputs(dual)]
                for w in range(feasible[0] - 3, feasible[-1] + 4):
                    got, got_exc = _classify(stratum, w)
                    want, want_exc = _classify(dual, w - e2)
                    where = f"{stratum.hn} at g={g}, mu(N) = {w}"
                    assert got_exc is want_exc, where
                    if want is not None:
                        assert got == dual_outcome(want), where
                    pairs += 1
    assert pairs > 10_000


# ---------------------------------------------------------------------------
# Twist by a degree-1 line bundle


def twist_hn(hn: HNType) -> HNType:
    return HNType(tuple((r, d + r) for r, d in hn.steps))


def twist_label(label):
    # Each piece's degree grows by its rank; a polystable sum's pieces
    # are lines.
    if isinstance(label, PolystableSum):
        return PolystableSum(tuple(tuple(x + 1 for x in s) for s in label.summands))
    return HodgeBundle(label.ranks, tuple(x + r for r, x in zip(label.ranks, label.degrees)))


def twist_outcome(outcome: LimitOutcome) -> LimitOutcome:
    return LimitOutcome(
        outcome.case_tag,
        twist_label(outcome.component),
        twist_hn(outcome.hnt_limit),
    )


def twist_key(key):
    # Slope invariants shift by +1; alignment flags and None do not move.
    return key + 1 if type(key) is int else key


def test_twist_maps_each_table_onto_the_table_of_degree_plus_three():
    for g in range(2, 7):
        genus = Genus(g)
        for d in range(-6, 7):
            table = build_table(3, d, genus)
            twisted = build_table(3, d + 3, genus)
            where = f"g={g}, d={d}"
            assert len(table.rows) == len(twisted.rows), where
            for row, image in zip(table.rows, twisted.rows):
                assert image.stratum.hn == twist_hn(row.stratum.hn), where
                assert image.entries == tuple(
                    (twist_key(key), twist_outcome(outcome))
                    for key, outcome in row.entries
                ), f"{where}: {row.stratum.hn}"
            assert twisted.bb_map() == {
                twist_label(label): tuple(twist_hn(hn) for hn in hns)
                for label, hns in table.bb_index
            }, where
