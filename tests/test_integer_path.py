"""The integer hot path against Fraction references.

The classifier compares 6*v with slopes scaled by 6, HNType merges and
orders steps by cross-multiplying, and the stability audit compares
each subobject's degree and rank with (d, r).  The references below keep
the original Fraction formulation of the same rules, branch for branch;
every outcome and every refusal (class and message) must agree.  The
last tests keep floating point out of the package source, and the name
Fraction inside the few scopes of its API boundary.
"""

import ast
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from higgsstrata import (
    AdmissibleStratum,
    AlignmentImpossible,
    ClassifierInput,
    Genus,
    HNType,
    IncidenceRow,
    InfeasibleBySpecialization,
    InvalidHNType,
    SlopeOutOfBounds,
    build_table,
    classify,
    classify_stratum,
    enumerate_strata,
    matrix_oracle,
    stability_audit,
)
from higgsstrata.admissibility import CaseFamily
from higgsstrata.core import (
    CaseTag,
    HodgeBundle,
    LimitOutcome,
    PolystableSum,
    _ratio,
)

# ---------------------------------------------------------------------------
# Fraction reference of the case branches


def _outcome(tag, component, graded, hnt_limit, polystable=False):
    # The graded degrees and the flag are derived from the component;
    # the reference states them.
    outcome = LimitOutcome(tag, component, hnt_limit)
    assert outcome.graded_degrees == graded
    assert outcome.strictly_polystable == polystable
    return outcome


def reference_case1(stratum, v: int) -> LimitOutcome:
    mu1, mu2, mu3 = stratum.hn.mu_vector
    k = stratum.genus.canonical_degree
    d = stratum.hn.total_degree
    d1 = stratum.hn.steps[0][1]
    if v > mu2:
        raise SlopeOutOfBounds(f"mu(I) = {v} > mu2 = {mu2}")
    if mu3 < v < mu2:
        raise InfeasibleBySpecialization(
            f"mu(I) = {v} lies strictly between mu3 = {mu3} and mu2 = {mu2}"
        )
    if v == mu2 and mu2 > mu3:
        degrees = tuple(int(m) for m in (mu1, mu2, mu3))
        return _outcome(CaseTag.C1_4, HodgeBundle((1, 1, 1), degrees), degrees, stratum.hn)
    if v < mu1 - k:
        raise SlopeOutOfBounds(f"mu(I) = {v} < mu1 - (2g-2) = {mu1 - k}")
    t = Fraction(-mu1 + 2 * mu2 + 2 * mu3, 3)
    if v < t:
        return _outcome(CaseTag.C1_1, HodgeBundle((1, 2), (d1, d - d1)), (d1, d - d1), stratum.hn)
    qdeg = d - d1 - v
    limit = HNType(((1, d1), (1, qdeg), (1, v)))
    if v == t:
        component = PolystableSum(((d1, v), (qdeg,)))
        return _outcome(CaseTag.C1_2, component, (d1, v, qdeg), limit, True)
    return _outcome(CaseTag.C1_3, HodgeBundle((1, 1, 1), (d1, v, qdeg)), (d1, v, qdeg), limit)


def reference_case2(stratum, v: int) -> LimitOutcome:
    mu1, mu2, mu3 = stratum.hn.mu_vector
    mu = Fraction(stratum.hn.total_degree, stratum.hn.total_rank)
    k = stratum.genus.canonical_degree
    d = stratum.hn.total_degree
    d3 = stratum.hn.steps[-1][1]
    e2 = d - d3
    if v > mu1:
        raise SlopeOutOfBounds(f"mu(N) = {v} > mu1 = {mu1}")
    if mu2 < v < mu1:
        raise InfeasibleBySpecialization(
            f"mu(N) = {v} lies strictly between mu2 = {mu2} and mu1 = {mu1}"
        )
    if v == mu1 and mu1 > mu2:
        degrees = tuple(int(m) for m in (mu1, mu2, mu3))
        return _outcome(CaseTag.C2_4, HodgeBundle((1, 1, 1), degrees), degrees, stratum.hn)
    if v < mu1 + mu2 - mu3 - k:
        raise SlopeOutOfBounds(
            f"mu(N) = {v} < mu1 + mu2 - mu3 - (2g-2) = {mu1 + mu2 - mu3 - k}"
        )
    if v < mu:
        return _outcome(CaseTag.C2_1, HodgeBundle((2, 1), (e2, d3)), (e2, d3), stratum.hn)
    rdeg = e2 - v
    limit = HNType(((1, rdeg), (1, v), (1, d3)))
    if v == mu:
        component = PolystableSum(((v,), (rdeg, d3)))
        return _outcome(CaseTag.C2_2, component, (rdeg, d3, v), limit, True)
    return _outcome(CaseTag.C2_3, HodgeBundle((1, 1, 1), (v, rdeg, d3)), (v, rdeg, d3), limit)


def reference_case3(stratum, aligned: bool) -> LimitOutcome:
    mu1, mu2, mu3 = (int(m) for m in stratum.hn.mu_vector)
    k = stratum.genus.canonical_degree
    if aligned:
        component = HodgeBundle((1, 1, 1), (mu1, mu2, mu3))
        return _outcome(CaseTag.C3_1, component, (mu1, mu2, mu3), stratum.hn)
    if mu1 - mu3 > k:
        raise AlignmentImpossible(f"mu1 - mu3 = {mu1 - mu3} > 2g-2 = {k} forces N = E1")
    component = PolystableSum(((mu1, mu3), (mu2,)))
    return _outcome(CaseTag.C3_2, component, (mu1, mu3, mu2), stratum.hn, True)


def _run(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # compared by class and message below
        return None, exc


def _assert_agree(stratum, invariant, reference, *args):
    got, got_exc = _run(classify, ClassifierInput(stratum, invariant))
    want, want_exc = _run(reference, stratum, *args)
    where = f"{stratum.hn} at g={stratum.genus.g}, {invariant}"
    if want_exc is not None:
        assert got_exc is not None, f"{where}: expected {want_exc!r}, got {got}"
        assert type(got_exc) is type(want_exc), where
        assert str(got_exc) == str(want_exc), where
        return
    assert got_exc is None, f"{where}: unexpected {got_exc!r}"
    assert got.case_tag is want.case_tag, where
    assert got.component == want.component, where
    assert got.graded_degrees == want.graded_degrees, where
    assert got.hnt_limit == want.hnt_limit, where
    assert got.strictly_polystable == want.strictly_polystable, where


def check_stratum(stratum) -> None:
    """Every invariant from 3 below the lower bound to 3 above the upper
    bound (gap and both out-of-bounds sides included), or both flags."""
    mu1, mu2, mu3 = stratum.hn.mu_vector
    assert stratum.mu6_vector == tuple(6 * m for m in stratum.hn.mu_vector)
    k = stratum.genus.canonical_degree
    family = stratum.case_family
    if stratum.window6 is not None:
        # The threshold: t = (-mu1 + 2*mu2 + 2*mu3)/3 in family 1, mu in 2.
        mu = Fraction(stratum.hn.total_degree, stratum.hn.total_rank)
        t = (-mu1 + 2 * mu2 + 2 * mu3) / 3 if family is CaseFamily.CASE1_I else mu
        assert stratum.window6[3] == 6 * t
    if family is CaseFamily.CASE3_FLAG:
        for flag in (True, False):
            _assert_agree(stratum, flag, reference_case3, flag)
        return
    if family is CaseFamily.CASE1_I:
        low, high, reference = mu1 - k, mu2, reference_case1
    else:
        low, high, reference = mu1 + mu2 - mu3 - k, mu1, reference_case2
    for v in range(int(low) - 4, int(high) + 5):
        _assert_agree(stratum, v, reference, v)


@st.composite
def rank3_strata(draw):
    """An unstable admissible rank-3 stratum with g in 2..40, |d| <= 20.

    Draws the HN type directly (cheaper than enumerating the strata);
    AdmissibleStratum then checks it is admissible.
    """
    g = draw(st.integers(min_value=2, max_value=40))
    d = draw(st.integers(min_value=-20, max_value=20))
    k = 2 * g - 2
    shape = draw(st.sampled_from(("1,2", "2,1", "1,1,1")))
    if shape == "1,2":  # 0 < mu1 - mu2 = (3a - d)/2 <= 2g-2
        a = draw(st.integers(d // 3 + 1, (d + 2 * k) // 3))
        steps = ((1, a), (2, d - a))
    elif shape == "2,1":  # 0 < mu2 - mu3 = (3e - 2d)/2 <= 2g-2
        e = draw(st.integers((2 * d) // 3 + 1, (2 * d + 2 * k) // 3))
        steps = ((2, e), (1, d - e))
    else:  # a > b > c with both gaps at most 2g-2
        b = draw(st.integers((d - k) // 3, (d + k) // 3 + 1))
        a = draw(st.integers(b + 1, b + k))
        c = d - a - b
        assume(c < b and b - c <= k)
        steps = ((1, a), (1, b), (1, c))
    return AdmissibleStratum(HNType(steps), Genus(g))


@settings(max_examples=300, deadline=None)
@given(stratum=rank3_strata())
def test_classify_matches_fraction_reference(stratum):
    check_stratum(stratum)


def unstable_rank3(g: int, d: int):
    return [s for s in enumerate_strata(3, d, Genus(g)) if not s.is_semistable]


def test_sixths_writes_what_fraction_writes():
    # The refusal messages, strata's slope texts (q = 6) and the audit's
    # inequalities are written with _ratio.
    for q in range(1, 13):
        for n in range(-600, 601):
            assert _ratio(n, q) == str(Fraction(n, q)), (n, q)


def test_classify_matches_fraction_reference_on_every_small_stratum():
    for g in range(2, 7):
        for d in range(-6, 7):
            for stratum in unstable_rank3(g, d):
                check_stratum(stratum)


# ---------------------------------------------------------------------------
# HNType construction


def reference_hn_steps(steps) -> tuple[tuple[int, int], ...]:
    raw = tuple((int(r), int(d)) for r, d in steps)
    if not raw:
        raise ValueError("HN type needs at least one step")
    if any(r < 1 for r, _ in raw):
        raise ValueError(f"step ranks must be positive: {raw}")
    merged: list[tuple[int, int]] = []
    for r, d in raw:
        if merged and Fraction(d, r) == Fraction(merged[-1][1], merged[-1][0]):
            pr, pd = merged.pop()
            merged.append((pr + r, pd + d))
        else:
            merged.append((r, d))
    slopes = [Fraction(d, r) for r, d in merged]
    if any(nxt >= prev for prev, nxt in zip(slopes, slopes[1:])):
        raise ValueError(f"subquotient slopes must be strictly decreasing: {raw}")
    return tuple(merged)


step_lists = st.lists(
    st.tuples(st.integers(1, 4), st.integers(-30, 30)), min_size=0, max_size=5
)


@settings(max_examples=500)
@given(steps=step_lists, by_slope=st.booleans())
def test_hn_type_matches_fraction_reference(steps, by_slope):
    if by_slope:  # mostly valid types, with equal slopes to merge
        steps = sorted(steps, key=lambda s: Fraction(s[1], s[0]), reverse=True)
    want, want_exc = _run(reference_hn_steps, steps)
    got, got_exc = _run(HNType, tuple(steps))
    if want_exc is not None:
        assert isinstance(got_exc, InvalidHNType)
        assert str(got_exc) == str(want_exc)
        return
    assert got_exc is None
    assert got.steps == want
    assert got.mu_vector == tuple(
        Fraction(d, r) for r, d in want for _ in range(r)
    )
    assert got.total_rank == sum(r for r, _ in want)
    assert got.total_degree == sum(d for _, d in want)


# ---------------------------------------------------------------------------
# The oracle replays gauge scaling per case, not per outcome


def test_build_table_never_takes_a_limit(monkeypatch):
    calls = []
    take_limit = matrix_oracle.take_limit

    def counting(pattern):
        calls.append(pattern)
        return take_limit(pattern)

    monkeypatch.setattr(matrix_oracle, "take_limit", counting)
    table = build_table(3, 0, Genus(10))
    assert sum(len(row.entries) for row in table.rows) > 0
    assert calls == []


# ---------------------------------------------------------------------------
# The stability audit against its case-by-case Fraction formulation


def _reference_check(subobject, lhs, rhs, allow_equal):
    rel = "<=" if allow_equal else "<"
    holds = lhs <= rhs if allow_equal else lhs < rhs
    return subobject, f"{Fraction(lhs)} {rel} {Fraction(rhs)}", holds, lhs == rhs


def reference_audit(outcome, inp) -> list[tuple[str, str, bool, bool]]:
    """(subobject, inequality, holds, is_equality) of each check, one
    branch per case tag, from the stratum and the invariant alone."""
    stratum = inp.stratum
    mu = Fraction(stratum.hn.total_degree, stratum.hn.total_rank)
    tag = outcome.case_tag
    check = _reference_check
    if tag is CaseTag.SEMISTABLE:
        return []
    if tag is CaseTag.RANK2:
        return [check("E/E1", Fraction(stratum.hn.steps[1][1]), mu, False)]
    mu1, mu2, mu3 = stratum.hn.mu_vector
    d = stratum.hn.total_degree
    v = inp.invariant
    if tag is CaseTag.C1_1:
        d1 = stratum.hn.steps[0][1]
        return [
            check("E1 + I", Fraction(d1 + v, 2), mu, False),
            check("E/E1", Fraction(d - d1, 2), mu, False),
            check("line L in E/E1 (max slope mu2)", mu2, mu, False),
        ]
    if tag in (CaseTag.C1_2, CaseTag.C1_3, CaseTag.C1_4):
        vi = Fraction(int(mu2) if tag is CaseTag.C1_4 else v)
        qslope = mu2 + mu3 - vi
        return [
            check("I + Q", Fraction(vi + qslope, 2), mu, False),
            check("Q", qslope, mu, tag is CaseTag.C1_2),
        ]
    if tag is CaseTag.C2_1:
        return [
            check("N", Fraction(v), mu, False),
            check("E/E2", mu3, mu, False),
            check("L + E/E2 (max line slope mu1)", Fraction(mu1 + mu3, 2), mu, False),
        ]
    if tag in (CaseTag.C2_2, CaseTag.C2_3, CaseTag.C2_4, CaseTag.C3_1):
        vn = Fraction(int(mu1) if tag in (CaseTag.C2_4, CaseTag.C3_1) else v)
        return [
            check("E/E2", mu3, mu, False),
            check("R + E/E2", Fraction(d - vn, 2), mu, tag is CaseTag.C2_2),
        ]
    assert tag is CaseTag.C3_2
    return [
        check("E/E2 inside the coupled summand", mu3, mu, False),
        check("split summand E2/E1", mu2, mu, True),
    ]


def test_stability_audit_matches_fraction_reference():
    audited = 0
    for g in range(2, 9):
        for d in range(-8, 9):
            for rank in (2, 3):
                for stratum in enumerate_strata(rank, d, Genus(g)):
                    for invariant, outcome in IncidenceRow(
                        stratum, classify_stratum(stratum, {})
                    ).entries:
                        inp = ClassifierInput(stratum, invariant)
                        got = stability_audit(outcome, inp)
                        want = reference_audit(outcome, inp)
                        where = f"{stratum.hn} at g={g}, {invariant}"
                        assert len(got) == len(want), where
                        assert [c.holds for c in got] == [True] * len(got), where
                        assert [w[2] for w in want] == [True] * len(want), where
                        assert sum(c.is_equality for c in got) == sum(w[3] for w in want)
                        texts = sorted(c.inequality for c in got)
                        want_texts = sorted(w[1] for w in want)
                        if outcome.case_tag is CaseTag.C1_2:
                            # Q has slope exactly mu, so "I + Q" < mu says
                            # what "I" < mu says; the texts differ.
                            (i_check,) = (c for c in got if c.subobject == "I")
                            (iq,) = (w for w in want if w[0] == "I + Q")
                            texts.remove(i_check.inequality)
                            want_texts.remove(iq[1])
                        assert texts == want_texts, where
                        audited += 1
    assert audited > 10_000


def test_stability_audit_reads_the_component():
    # A 1.4 outcome whose component is not the stratum's HN filtration:
    # the tail E2/E1 + E/E2 of degree 0 is steeper than mu = -2/3.
    stratum = AdmissibleStratum(HNType(((1, 1), (1, -1), (1, -2))), Genus(2))
    outcome = LimitOutcome(CaseTag.C1_4, HodgeBundle((1, 1, 1), (-2, -1, 1)), stratum.hn)
    checks = stability_audit(outcome, ClassifierInput(stratum, -1))
    assert not all(c.holds for c in checks)


# ---------------------------------------------------------------------------
# Exactness of the package source

SOURCES = sorted((Path(__file__).parent.parent / "src" / "higgsstrata").glob("*.py"))


def inexact_nodes(tree: ast.AST) -> list[str]:
    """What in a module's syntax tree could bring floating point in: true
    division, float literals, the name float, and math beyond gcd."""
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{where}: true division")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{where}: float")
        elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
            found.append(f"{where}: import math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{where}: math.{a.name}" for a in node.names if a.name != "gcd"]
    return found


def test_inexact_nodes_finds_each_kind():
    source = "import math\nfrom math import gcd, sqrt\nx = 1 / 2\nx /= 2\ny = 0.5\nz = float(x)\n"
    assert len(inexact_nodes(ast.parse(source))) == 6


def test_package_source_has_no_floating_point():
    assert len(SOURCES) >= 9
    for path in SOURCES:
        assert inexact_nodes(ast.parse(path.read_text(), str(path))) == [], path.name


#: The scopes that may name Fraction: the slope API the benchmark still
#: reads (HNType.mu_vector, invariant_range and its InvariantRange).
FRACTION_SCOPES = (
    "HNType.mu_vector",
    "InvariantRange",
    "invariant_range",
)


def fraction_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, scope) of each use of the name Fraction outside imports,
    annotations included; the scope is the dotted class and function
    path, "" at module level."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Name) and child.id == "Fraction" or (
                isinstance(child, ast.Attribute) and child.attr == "Fraction"
            ):
                found.append((child.lineno, scope))
            visit(child, scope)

    visit(tree, "")
    return found


def test_fraction_uses_names_each_scope():
    source = (
        "from fractions import Fraction\n"
        "import fractions\n"
        "x: Fraction = fractions.Fraction(1)\n"
        "class A:\n"
        "    def f(self) -> tuple[Fraction, ...]:\n"
        "        return ()\n"
    )
    assert fraction_uses(ast.parse(source)) == [(3, ""), (3, ""), (5, "A.f")]


def test_package_names_fraction_only_at_its_api_boundary():
    for path in SOURCES:
        for line, scope in fraction_uses(ast.parse(path.read_text(), str(path))):
            assert any(
                scope == allowed or scope.startswith(f"{allowed}.") for allowed in FRACTION_SCOPES
            ), f"{path.name} line {line}: Fraction in {scope or 'module scope'}"
