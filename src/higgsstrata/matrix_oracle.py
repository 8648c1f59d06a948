"""Independent verification engine: gauge scaling of block patterns.

Conjugating z*Phi by the constant diagonal gauge g(z) = diag(z^w_i)
scales the Higgs block (i, j) by z^(1 + w_j - w_i) and the upper
triangular dbar block by z^(w_j - w_i).  The engine works at
zero/nonzero granularity: the limit computations depend only on these
exponents and on which blocks vanish, never on the entries themselves.
"""

from __future__ import annotations

from collections import namedtuple

from .core import CaseTag, Frozen, LimitOutcome, _set

Grid = tuple[tuple[bool, ...], ...]
IntGrid = tuple[tuple[int, ...], ...]


class BlockPattern(Frozen):
    """Zero/nonzero block flags for a Higgs field and a dbar operator,
    with one Hodge weight per graded piece.

    The dbar grid must be strictly upper triangular: the holomorphic
    structure is an iterated extension along the filtration.  Weights
    need not be sorted; the engine is general even though the limit
    computations only ever use (0,1), (0,1,2) and (0,0,1).
    """

    _fields = ("weights", "higgs_blocks", "dbar_blocks")

    def __init__(self, weights: tuple[int, ...], higgs_blocks: Grid, dbar_blocks: Grid) -> None:
        n = len(weights)
        for name, grid in (("higgs", higgs_blocks), ("dbar", dbar_blocks)):
            if len(grid) != n or any(len(row) != n for row in grid):
                raise ValueError(f"{name} grid must be {n}x{n}")
        for i in range(n):
            for j in range(i + 1):
                if dbar_blocks[i][j]:
                    raise ValueError(
                        f"dbar block ({i + 1},{j + 1}) on or below the diagonal"
                    )
        _set(self, "weights", weights)
        _set(self, "higgs_blocks", higgs_blocks)
        _set(self, "dbar_blocks", dbar_blocks)

    @property
    def n(self) -> int:
        return len(self.weights)


class LimitPattern(namedtuple(
    "LimitPattern", "converges limit_higgs limit_dbar exponents divergent_blocks"
)):
    """Result of letting z -> 0 on a scaled block pattern.

    Converges iff every nonzero block scales with nonnegative exponent;
    the limit keeps a block nonzero exactly when its exponent is zero.
    ``exponents`` is the Higgs exponent grid.
    """

    __slots__ = ()


def scale_exponents(p: BlockPattern) -> tuple[IntGrid, IntGrid]:
    """Per-block z-exponents: 1 + w_j - w_i for Higgs, w_j - w_i for dbar."""
    w = p.weights
    n = p.n
    higgs = tuple(tuple(1 + w[j] - w[i] for j in range(n)) for i in range(n))
    dbar = tuple(tuple(w[j] - w[i] for j in range(n)) for i in range(n))
    return higgs, dbar


def take_limit(p: BlockPattern) -> LimitPattern:
    """Apply the scaling and read off the limiting pattern.

    Divergence (a nonzero block with negative exponent) is a value, not
    an error; the offending blocks are listed 1-indexed.
    """
    higgs_exp, dbar_exp = scale_exponents(p)
    n = p.n
    divergent = []
    for i in range(n):
        for j in range(n):
            if p.higgs_blocks[i][j] and higgs_exp[i][j] < 0:
                divergent.append(("higgs", i + 1, j + 1))
            if p.dbar_blocks[i][j] and dbar_exp[i][j] < 0:
                divergent.append(("dbar", i + 1, j + 1))
    limit_higgs = tuple(
        tuple(p.higgs_blocks[i][j] and higgs_exp[i][j] == 0 for j in range(n))
        for i in range(n)
    )
    limit_dbar = tuple(
        tuple(p.dbar_blocks[i][j] and dbar_exp[i][j] == 0 for j in range(n))
        for i in range(n)
    )
    return LimitPattern(
        converges=not divergent,
        limit_higgs=limit_higgs,
        limit_dbar=limit_dbar,
        exponents=higgs_exp,
        divergent_blocks=tuple(divergent),
    )


def nonzero_set(grid: Grid) -> frozenset[tuple[int, int]]:
    """1-indexed positions of the nonzero blocks."""
    return frozenset(
        (i + 1, j + 1)
        for i, row in enumerate(grid)
        for j, flag in enumerate(row)
        if flag
    )


def _grid(n: int, nonzero: set[tuple[int, int]]) -> Grid:
    return tuple(
        tuple((i + 1, j + 1) in nonzero for j in range(n)) for i in range(n)
    )


def _upper_dbar(n: int) -> Grid:
    return _grid(n, {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)})


def _full_higgs(n: int, zero: set[tuple[int, int]] = frozenset()) -> Grid:
    all_blocks = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
    return _grid(n, all_blocks - set(zero))


# For each case: the nonzero set of the limiting Higgs field computed
# from the block pattern the limit computation uses (None when that
# pattern diverges), the nonzero set of the limiting Higgs field as stated for that
# case, and (in the strictly polystable cases) the coupling that
# S-equivalence zeroes out of the configuration-space limit.  The
# gauge-scaling computation depends only on the case, so it runs once
# per case, here, instead of once per outcome.
_CASE_TABLE: dict[CaseTag, tuple[frozenset | None, frozenset, frozenset]] = {}


def _register(tag, weights, higgs_zero, stated, zeroed=frozenset()):
    n = len(weights)
    pattern = BlockPattern(weights, _full_higgs(n, higgs_zero), _upper_dbar(n))
    limit = take_limit(pattern)
    computed = nonzero_set(limit.limit_higgs) if limit.converges else None
    _CASE_TABLE[tag] = (computed, frozenset(stated), frozenset(zeroed))


_register(CaseTag.SEMISTABLE, (0,), set(), set())
for _tag in (CaseTag.RANK2, CaseTag.C1_1, CaseTag.C2_1):
    _register(_tag, (0, 1), set(), {(2, 1)})
for _tag in (CaseTag.C1_3, CaseTag.C1_4, CaseTag.C2_3, CaseTag.C2_4, CaseTag.C3_1):
    # The middle piece saturates the first coupling (case 1) or is killed
    # by the second (case 2), so the (3,1) block vanishes identically.
    _register(_tag, (0, 1, 2), {(3, 1)}, {(2, 1), (3, 2)})
_register(CaseTag.C1_2, (0, 1, 2), {(3, 1)}, {(2, 1)}, zeroed={(3, 2)})
_register(CaseTag.C2_2, (0, 1, 2), {(3, 1)}, {(3, 2)}, zeroed={(2, 1)})
# Case 3.2 refines the two-block computation on (E2, E/E2) to the pieces
# (E1, E2/E1, E/E2), where the S-equivalence step is visible: the limit
# keeps both bottom-row couplings and the polystable representative
# drops the one out of E2/E1.
_register(CaseTag.C3_2, (0, 0, 1), set(), {(3, 1)}, zeroed={(3, 2)})


def oracle_check(outcome: LimitOutcome) -> bool:
    """Compare the outcome's stated limiting Higgs pattern with the
    gauge-scaling limit computed for its case.

    For stable limits the patterns must match exactly.  For strictly
    polystable limits the stated pattern must be contained in the
    computed one, with the difference being exactly the single
    exponent-zero coupling that S-equivalence removes.
    """
    try:
        computed, stated, zeroed = _CASE_TABLE[outcome.case_tag]
    except KeyError:
        raise ValueError(f"unknown case tag {outcome.case_tag!r}") from None
    if computed is None:
        return False
    if not outcome.strictly_polystable:
        return computed == stated
    return stated < computed and computed - stated == zeroed and len(zeroed) == 1

