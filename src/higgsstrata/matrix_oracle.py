"""Independent verification engine: gauge scaling of block patterns.

Conjugating z*Phi by the constant diagonal gauge g(z) = diag(z^w_i)
scales the Higgs block (i, j) by z^(1 + w_j - w_i) and the upper
triangular dbar block by z^(w_j - w_i).  The engine works at
zero/nonzero granularity: the limit computations depend only on these
exponents and on which blocks vanish, never on the entries themselves.
A pattern and a limit are therefore sets of nonzero blocks, each a
1-indexed (row, column) position.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .core import CaseTag, Frozen, LimitOutcome, _set

Blocks = frozenset[tuple[int, int]]
IntGrid = tuple[tuple[int, ...], ...]


def _upper(n: int) -> Blocks:
    """The strictly upper triangular positions of an n x n grid."""
    return frozenset((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


class BlockPattern(Frozen):
    """The nonzero blocks of a Higgs field and of a dbar operator, with
    one Hodge weight per graded piece.

    The dbar blocks must be strictly upper triangular: the holomorphic
    structure is an iterated extension along the filtration.  Weights
    need not be sorted; the engine is general even though the limit
    computations only ever use (0,1), (0,1,2) and (0,0,1).
    """

    _fields = ("weights", "higgs_blocks", "dbar_blocks")

    def __init__(
        self, weights: tuple[int, ...], higgs_blocks: Blocks, dbar_blocks: Blocks
    ) -> None:
        n = len(weights)
        higgs, dbar = frozenset(higgs_blocks), frozenset(dbar_blocks)
        grid = frozenset(product(range(1, n + 1), repeat=2))
        for name, blocks in (("higgs", higgs), ("dbar", dbar)):
            if outside := blocks - grid:
                i, j = min(outside)
                raise ValueError(f"{name} block ({i},{j}) outside the {n}x{n} grid")
        if below := dbar - _upper(n):
            i, j = min(below)
            raise ValueError(f"dbar block ({i},{j}) on or below the diagonal")
        _set(self, "weights", weights)
        _set(self, "higgs_blocks", higgs)
        _set(self, "dbar_blocks", dbar)


class LimitPattern(namedtuple(
    "LimitPattern", "converges limit_higgs limit_dbar exponents divergent_blocks"
)):
    """Result of letting z -> 0 on a scaled block pattern.

    Converges iff every nonzero block scales with nonnegative exponent;
    the limit keeps a block nonzero exactly when its exponent is zero.
    ``limit_higgs`` and ``limit_dbar`` are those blocks' positions;
    ``exponents`` is the Higgs exponent grid.
    """

    __slots__ = ()


def scale_exponents(p: BlockPattern) -> tuple[IntGrid, IntGrid]:
    """Per-block z-exponents: 1 + w_j - w_i for Higgs, w_j - w_i for dbar."""
    w = p.weights
    higgs = tuple(tuple(1 + wj - wi for wj in w) for wi in w)
    dbar = tuple(tuple(wj - wi for wj in w) for wi in w)
    return higgs, dbar


def take_limit(p: BlockPattern) -> LimitPattern:
    """Apply the scaling and read off the limiting pattern.

    Divergence (a nonzero block with negative exponent) is a value, not
    an error; the offending blocks are listed 1-indexed, the Higgs
    blocks first, each kind in row-major order.
    """
    higgs_exp, dbar_exp = scale_exponents(p)
    divergent, limits = [], []
    kinds = ("higgs", p.higgs_blocks, higgs_exp), ("dbar", p.dbar_blocks, dbar_exp)
    for kind, blocks, exp in kinds:
        scaled = {(i, j): exp[i - 1][j - 1] for i, j in sorted(blocks)}
        divergent += [(kind, i, j) for (i, j), e in scaled.items() if e < 0]
        limits.append(frozenset(block for block, e in scaled.items() if e == 0))
    return LimitPattern(not divergent, *limits, higgs_exp, tuple(divergent))


# For each case: the nonzero set of the limiting Higgs field computed
# from the block pattern the limit computation uses (None when that
# pattern diverges), the nonzero set of the limiting Higgs field as stated for that
# case, and (in the strictly polystable cases) the coupling that
# S-equivalence zeroes out of the configuration-space limit.  The
# gauge-scaling computation depends only on the case, so it runs once
# per case, here, instead of once per outcome.
_CASE_TABLE: dict[CaseTag, tuple[frozenset | None, frozenset, frozenset]] = {}


def _register(tag, weights, higgs_zero, stated, zeroed=frozenset()):
    # Every Higgs block but higgs_zero is nonzero, and so is every upper
    # dbar block.
    n = len(weights)
    higgs = set(product(range(1, n + 1), repeat=2)) - higgs_zero
    limit = take_limit(BlockPattern(weights, higgs, _upper(n)))
    _CASE_TABLE[tag] = (
        limit.limit_higgs if limit.converges else None, frozenset(stated), frozenset(zeroed)
    )


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

