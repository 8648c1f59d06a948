"""Duality and twist: two symmetries of the classification, checked exactly.

Duality E -> E* reverses and negates the HN steps and sends case family 2
onto case family 1; twisting by a degree-1 line bundle adds r to the
degree of every rank-r piece.  Both maps must carry classifier outcomes,
refusals and feasible sets onto each other.  Neither side is computed
through the other, so these are independent checks of the classifier.
"""

from higgsstrata import (
    ClassificationError,
    ClassifierInput,
    Genus,
    HNType,
    LimitOutcome,
    Min,
    PolystableSum,
    Type12,
    Type21,
    Type111,
    build_table,
    classify,
    enumerate_strata,
    feasible_inputs,
    validate,
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


def dual_label(label):
    if isinstance(label, Type12):
        return Type21(-label.deg_quot_pair, -label.deg_sub)
    if isinstance(label, Type111):
        return Type111(-label.l3, -label.l2, -label.l1)
    if isinstance(label, PolystableSum):
        return PolystableSum(tuple(tuple(-x for x in reversed(s)) for s in label.summands))
    raise AssertionError(f"no family-1 label {label!r}")


def dual_outcome(outcome: LimitOutcome) -> LimitOutcome:
    """The family-2 outcome that duality predicts from a family-1 one."""
    component = dual_label(outcome.component)
    if isinstance(component, PolystableSum):
        graded = tuple(x for s in component.summands for x in s)
    else:
        graded = tuple(-x for x in reversed(outcome.graded_degrees))
    return LimitOutcome(
        _DUAL_TAG[outcome.case_tag],
        component,
        graded,
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
                dual = validate(dual_hn(stratum.hn), genus)
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
    if isinstance(label, Min):
        return Min(label.rank, label.degree + label.rank)
    if isinstance(label, Type12):
        return Type12(label.deg_sub + 1, label.deg_quot_pair + 2)
    if isinstance(label, Type21):
        return Type21(label.deg_sub_pair + 2, label.deg_quot + 1)
    if isinstance(label, Type111):
        return Type111(label.l1 + 1, label.l2 + 1, label.l3 + 1)
    if isinstance(label, PolystableSum):
        return PolystableSum(tuple(tuple(x + 1 for x in s) for s in label.summands))
    raise AssertionError(f"no rank-3 label {label!r}")


def _piece_ranks(outcome: LimitOutcome) -> tuple[int, ...]:
    # Rank of each graded piece, in graded_degrees order.
    if isinstance(outcome.component, Min):
        return (3,)
    if isinstance(outcome.component, Type12):
        return (1, 2)
    if isinstance(outcome.component, Type21):
        return (2, 1)
    return (1, 1, 1)


def twist_outcome(outcome: LimitOutcome) -> LimitOutcome:
    ranks = _piece_ranks(outcome)
    assert len(ranks) == len(outcome.graded_degrees)
    return LimitOutcome(
        outcome.case_tag,
        twist_label(outcome.component),
        tuple(x + r for x, r in zip(ranks, outcome.graded_degrees)),
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
