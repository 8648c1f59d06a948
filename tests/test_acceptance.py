"""Acceptance suite: one test per criterion, each exact (zero tolerance).

Every test prints a PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failure) and asserts the criterion's result.  The
nine tests share one default sweep, so the rank-3 grid pass is made once.
"""

import pytest

from higgsstrata import verification


@pytest.fixture(scope="module")
def sweep():
    return verification.Sweep()


@pytest.mark.parametrize(
    "criterion",
    verification.ALL_CRITERIA,
    ids=[c.__name__.removeprefix("criterion_") for c in verification.ALL_CRITERIA],
)
def test_acceptance_criterion(criterion, sweep):
    result = criterion(sweep)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {result.number} ({result.name}): {result.details}")
    assert result.passed, f"criterion {result.number} ({result.name}): {result.details}"
