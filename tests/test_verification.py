"""The acceptance suite's own machinery: the one shared pass over the
rank-3 grid, and the rank-2 component count beyond the default grid."""

import pytest

from higgsstrata import limit_classifier, matrix_oracle, verification

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
    """Count classify_rank3 calls, starting from an empty memo."""
    calls = []
    classify_rank3 = limit_classifier.classify_rank3

    def counting(inp):
        calls.append(inp)
        return classify_rank3(inp)

    monkeypatch.setattr(limit_classifier, "classify_rank3", counting)
    verification._rank3_grid_pass.cache_clear()
    return calls


def test_run_all_classifies_each_grid_entry_once(classify_rank3_calls):
    # 2188 feasible entries and 668 gap values once each, plus 56
    # classifications in criterion 9's six incidence runs.
    results = verification.run_all()
    assert all(r.passed for r in results)
    assert len(classify_rank3_calls) <= 2912


def test_grid_criteria_share_one_pass(classify_rank3_calls):
    genera, degrees = [2, 3], range(-2, 3)
    first = GRID_CRITERIA[-1](genera, degrees)
    calls = len(classify_rank3_calls)
    assert calls > 0
    results = [criterion(genera, degrees) for criterion in GRID_CRITERIA]
    assert len(classify_rank3_calls) == calls
    assert results[-1] is first
    assert [r.number for r in results] == [2, 3, 4, 5, 7, 8]
    assert all(r.passed for r in results)


def test_rank2_component_count_at_large_canonical_degree():
    # 2g-2 = 14 reaches past the old fixed window range(d - 10, d + 10).
    result = verification.criterion_rank2_coincidence(genera=(8,), degrees=(-6,))
    assert result.passed, result.details


def test_rank2_coincidence_over_a_wider_grid():
    result = verification.criterion_rank2_coincidence(
        genera=tuple(range(2, 13)), degrees=tuple(range(-12, 13))
    )
    assert result.passed, result.details
    assert result.details == "275 tables bijective"


def test_oracle_rejection_fails_criterion_7_without_raising(monkeypatch):
    # build_table raises AssertionError when the oracle rejects an
    # outcome; verify must report that as a failed criterion.
    monkeypatch.setattr(matrix_oracle, "oracle_check", lambda outcome: False)
    verification._rank3_grid_pass.cache_clear()
    try:
        results = verification.run_all()
    finally:
        verification._rank3_grid_pass.cache_clear()
    oracle = next(r for r in results if r.number == 7)
    assert not oracle.passed
    assert oracle.details.startswith("g=2, d=-6: gauge-scaling check failed")
