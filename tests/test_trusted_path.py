"""The classifier's trusted constructors against the checked ones.

The limit classifier builds its HN types, labels and outcomes with
core's _hn_lines, _hodge_bundle and _limit_outcome, and enumerate_strata
its HN types with _hn_type; all skip the constructors' re-checks.  Each
must build an object equal to the checked construction, and an
incidence table must run no constructor check at all.
"""

import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from higgsstrata import (
    Genus,
    HNType,
    HodgeBundle,
    InvalidHNType,
    LimitOutcome,
    PolystableSum,
    build_table,
    enumerate_strata,
)
from higgsstrata.admissibility import AdmissibleStratum, RankUnsupported
from higgsstrata.core import CaseTag, _hn_lines, _hodge_bundle, _limit_outcome


def _checked(make, *args):
    try:
        return make(*args), None
    except InvalidHNType as exc:
        return None, exc


def test_hn_lines_equals_checked_construction():
    # Ties merge; increasing degrees are refused with the checked text.
    for high, middle, low in product(range(-3, 4), repeat=3):
        where = (high, middle, low)
        want, want_exc = _checked(HNType, ((1, high), (1, middle), (1, low)))
        got, got_exc = _checked(_hn_lines, high, middle, low)
        if want_exc is not None:
            assert type(got_exc) is type(want_exc), where
            assert str(got_exc) == str(want_exc), where
            continue
        assert got_exc is None, where
        assert got == want, where
        assert got.steps == want.steps, where
        assert (got.total_rank, got.total_degree) == (want.total_rank, want.total_degree)
        assert got.mu_vector == want.mu_vector, where
        assert hash(got) == hash(want) and repr(got) == repr(want), where


def test_hodge_bundle_shares_the_ranks_tuple():
    for ranks in ((2,), (3,), (1, 1), (1, 2), (2, 1), (1, 1, 1)):
        degrees = tuple(range(len(ranks)))
        # An equal ranks tuple that is not the shared one goes in.
        trusted = _hodge_bundle(tuple(list(ranks)), degrees)
        assert trusted == HodgeBundle(ranks, degrees)
        assert trusted.ranks is HodgeBundle(ranks, degrees).ranks


def test_classify_keeps_the_refusal_of_an_unsupported_rank():
    # The stratum's constructor refuses a rank other than 2 or 3, so
    # none holds slopes scaled by 6 that the division floored (6 * 1/4
    # would read 1) and classify never sees such a rank.
    for steps, rank in (((4, 0),), 4), (((4, 1),), 4), (((1, 0),), 1), (((1, 1), (3, 0)), 4):
        with pytest.raises(RankUnsupported, match=f"only ranks 2 and 3 are supported, got {rank}$"):
            AdmissibleStratum(HNType(steps), Genus(2))


def _retained_bytes(make, n: int = 2000) -> int:
    """Bytes that n objects from make() hold, the less of two counts."""
    counts = []
    for _ in range(2):
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        kept = [make() for _ in range(n)]
        counts.append(tracemalloc.get_traced_memory()[0] - before)
        tracemalloc.stop()
        del kept
    return min(counts)


def test_trusted_objects_take_no_more_memory_than_checked_ones():
    # The fields are set with object.__setattr__, as the checked
    # constructors set them.  Filling vars() instead would give every
    # object a dict of its own: over 100 bytes each on Python 3.11.
    hn, degrees = HNType(((1, 1), (1, 0), (1, -1))), (1, 0, -1)
    bundle = HodgeBundle((1, 1, 1), degrees)
    pairs = [
        (lambda: _hodge_bundle((1, 1, 1), degrees), lambda: HodgeBundle((1, 1, 1), degrees)),
        (lambda: _limit_outcome(CaseTag.C1_3, bundle, hn), lambda: LimitOutcome(CaseTag.C1_3, bundle, hn)),
        (lambda: _hn_lines(1, 0, -1), lambda: HNType(((1, 1), (1, 0), (1, -1)))),
    ]
    for trusted, checked in pairs:
        assert trusted() == checked()
        assert _retained_bytes(trusted) <= _retained_bytes(checked) + 16 * 2000


def _rebuild(outcome: LimitOutcome) -> LimitOutcome:
    """The same outcome through the checked constructors."""
    component = outcome.component
    if isinstance(component, PolystableSum):
        component = PolystableSum(component.summands)
    else:
        component = HodgeBundle(component.ranks, component.degrees)
    return LimitOutcome(outcome.case_tag, component, HNType(outcome.hnt_limit.steps))


def test_every_table_outcome_equals_its_checked_rebuild():
    checked = 0
    for g in range(2, 9):
        for d in range(-8, 9):
            for rank in (2, 3):
                for row in build_table(rank, d, Genus(g)).rows:
                    for invariant, outcome in row.entries:
                        where = f"{row.stratum.hn} at g={g}, {invariant}"
                        want = _rebuild(outcome)
                        assert outcome.case_tag is want.case_tag, where
                        assert outcome.component == want.component, where
                        assert outcome.hnt_limit == want.hnt_limit, where
                        assert outcome.hnt_limit.steps == want.hnt_limit.steps, where
                        assert outcome.hnt_limit.total_rank == want.hnt_limit.total_rank
                        assert outcome.hnt_limit.total_degree == want.hnt_limit.total_degree
                        assert outcome.graded_degrees == want.graded_degrees, where
                        assert outcome == want, where
                        assert hash(outcome) == hash(want), where
                        assert repr(outcome) == repr(want), where
                        hn = outcome.hnt_limit
                        degrees = [*outcome.graded_degrees, hn.total_rank, hn.total_degree]
                        degrees += [x for step in hn.steps for x in step]
                        if isinstance(outcome.component, HodgeBundle):
                            degrees += outcome.component.ranks
                        assert all(type(x) is int for x in degrees), where
                        checked += 1
    assert checked > 10_000


def test_enumerated_types_equal_checked_construction():
    # enumerate_strata builds its types with the trusted constructor.
    checked = 0
    for g in range(2, 13):
        for d in range(-12, 13):
            for rank in (2, 3):
                for stratum in enumerate_strata(rank, d, Genus(g)):
                    hn = stratum.hn
                    want = HNType(hn.steps)
                    where = f"{hn} at g={g}"
                    assert hn == want and hn.steps == want.steps, where
                    assert (hn.total_rank, hn.total_degree) == (want.total_rank, want.total_degree)
                    assert hash(hn) == hash(want) and repr(hn) == repr(want), where
                    values = [hn.total_rank, hn.total_degree, *(x for step in hn.steps for x in step)]
                    assert all(type(x) is int for x in values), where
                    checked += 1
    assert checked > 20_000


def test_enumerated_types_keep_the_degree_checks():
    # An integral degree of another type gives int steps, as the checked
    # constructor made them; any other degree is refused by name.
    for rank in (2, 3):
        strata = enumerate_strata(rank, Fraction(3), Genus(2))
        assert [s.hn for s in strata] == [s.hn for s in enumerate_strata(rank, 3, Genus(2))]
        assert all(type(x) is int for s in strata for step in s.hn.steps for x in step)
        for degree in (1.5, Fraction(3, 2), "3"):
            with pytest.raises(InvalidHNType, match="steps must be pairs of integers"):
                enumerate_strata(rank, degree, Genus(2))


def test_table_runs_no_constructor_check(monkeypatch):
    calls = {HNType: 0, HodgeBundle: 0, LimitOutcome: 0}
    for cls in calls:
        checks = cls.__init__

        def counting(self, *args, cls=cls, checks=checks):
            calls[cls] += 1
            checks(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    table = build_table(3, 0, Genus(10))
    assert sum(len(row.entries) for row in table.rows) > len(table.rows)
    # enumerate_strata and the classifier build everything from integers
    # that their own loops and the checked strata give.
    assert calls == {HNType: 0, HodgeBundle: 0, LimitOutcome: 0}
    assert len(table.rows) == len(enumerate_strata(3, 0, Genus(10)))
