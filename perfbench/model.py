"""Independent exact model of the rules the benchmark checks outputs against.

Written from the slope inequalities alone and sharing no code with the
`higgsstrata` package, so a change to the package cannot move the
program and its expected answers together.  Strata are step tuples
``((rank, degree), ...)``, steepest first; all slopes are `Fraction`s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

Steps = tuple[tuple[int, int], ...]

IN_GAP = "InfeasibleBySpecialization"
OUT_OF_BOUNDS = "SlopeOutOfBounds"
ALIGNMENT_IMPOSSIBLE = "AlignmentImpossible"


def hn_text(steps: Steps) -> str:
    return ",".join(f"{r}:{d}" for r, d in steps)


def parse_hn(text: str) -> Steps:
    return tuple(
        (int(r), int(d)) for r, d in (part.split(":") for part in text.split(","))
    )


@lru_cache(maxsize=None)
def strata(rank: int, degree: int, genus: int) -> tuple[Steps, ...]:
    """Every HN type of the given rank and degree whose consecutive slope
    gaps lie in (0, 2g-2], semistable type first (unordered otherwise)."""
    k = 2 * genus - 2
    d = degree
    found: list[Steps] = [((rank, d),)]
    if rank == 2:
        for d1 in range(d // 2 - 1, (d + k) // 2 + 2):
            if d < 2 * d1 <= d + k:
                found.append(((1, d1), (1, d - d1)))
        return tuple(found)
    if rank != 3:
        raise ValueError(f"rank {rank} is not modelled")
    for a in range(d // 3 - 1, (d + 2 * k) // 3 + 2):
        # line of slope a over a rank-2 quotient of slope (d-a)/2
        if 0 < 3 * a - d <= 2 * k:
            found.append(((1, a), (2, d - a)))
    for e in range((2 * d) // 3 - 1, (2 * d + 2 * k) // 3 + 2):
        # rank-2 sub of slope e/2 over a line of degree d-e
        if 0 < 3 * e - 2 * d <= 2 * k:
            found.append(((2, e), (1, d - e)))
    for b in range(d // 3 - k - 1, d // 3 + k + 2):
        for a in range(b + 1, b + k + 1):
            c = d - a - b
            if c < b and b - c <= k:
                found.append(((1, a), (1, b), (1, c)))
    return tuple(found)


def mu_vector(steps: Steps) -> tuple[Fraction, ...]:
    return tuple(Fraction(d, r) for r, d in steps for _ in range(r))


def family(steps: Steps) -> str:
    """'ss', 'rk2', or for unstable rank 3 the case family '1', '2', '3'
    (mu2 below, above or equal to the total slope)."""
    if len(steps) == 1:
        return "ss"
    if sum(r for r, _ in steps) == 2:
        return "rk2"
    mu2 = mu_vector(steps)[1]
    mu = Fraction(sum(d for _, d in steps), 3)
    return "1" if mu2 < mu else "2" if mu2 > mu else "3"


def slope_window(steps: Steps, genus: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(low, high, gap_low, gap_high) for family 1 or 2: the a-priori
    interval [low, high] and the excluded open gap (gap_low, gap_high),
    whose upper end is the isolated feasible point when it is distinct."""
    k = 2 * genus - 2
    mu1, mu2, mu3 = mu_vector(steps)
    if family(steps) == "1":
        return mu1 - k, mu3, mu3, mu2
    return mu1 + mu2 - mu3 - k, mu2, mu2, mu1


def feasible(steps: Steps, genus: int) -> list:
    """Every invariant the stratum admits: None, integer slopes, or flags."""
    fam = family(steps)
    if fam in ("ss", "rk2"):
        return [None]
    if fam == "3":
        mu1, _, mu3 = mu_vector(steps)
        return [True] + ([False] if mu1 - mu3 <= 2 * genus - 2 else [])
    low, high, gap_low, gap_high = slope_window(steps, genus)
    values = set(range(math.ceil(low), math.floor(high) + 1))
    if gap_high > gap_low and gap_high.denominator == 1:
        values.add(int(gap_high))
    return sorted(values)


def gap_integers(steps: Steps, genus: int) -> list[int]:
    if family(steps) not in ("1", "2"):
        return []
    _, _, gap_low, gap_high = slope_window(steps, genus)
    return list(range(math.floor(gap_low) + 1, math.ceil(gap_high)))


def predict_limit(steps: Steps, genus: int, invariant) -> tuple[bool, str]:
    """(True, case tag) when the limit classifies, else (False, error kind).

    Case tags come from the inequalities of each case, not from a branch
    order: family 1 splits at t = (-mu1 + 2*mu2 + 2*mu3)/3, family 2 at
    mu = d/3.  A value strictly inside the excluded gap is refused as
    infeasible even when it also lies below the a-priori interval; any
    other value outside the interval and its isolated point is out of
    bounds.
    """
    fam = family(steps)
    if fam in ("ss", "rk2"):
        return True, fam
    k = 2 * genus - 2
    mu1, mu2, mu3 = mu_vector(steps)
    if fam == "3":
        if invariant:
            return True, "3.1"
        return (True, "3.2") if mu1 - mu3 <= k else (False, ALIGNMENT_IMPOSSIBLE)
    v = Fraction(invariant)
    low, high, gap_low, gap_high = slope_window(steps, genus)
    if gap_low < v < gap_high:
        return False, IN_GAP
    if not (low <= v <= high or (v == gap_high and gap_high > gap_low)):
        return False, OUT_OF_BOUNDS
    if fam == "1":
        t = (-mu1 + 2 * mu2 + 2 * mu3) / 3
        cases = {
            "1.1": low <= v < t,
            "1.2": v == t,
            "1.3": t < v <= mu3,
            "1.4": v == mu2 and mu2 > mu3,
        }
    else:
        mu = Fraction(sum(d for _, d in steps), 3)
        cases = {
            "2.1": low <= v < mu,
            "2.2": v == mu,
            "2.3": mu < v <= mu2,
            "2.4": v == mu1 and mu1 > mu2,
        }
    fired = [tag for tag, holds in cases.items() if holds]
    if len(fired) != 1:
        raise AssertionError(f"{hn_text(steps)} v={v}: cases {fired} fire")
    return True, fired[0]


def entries(rank: int, degree: int, genus: int) -> int:
    """Classified (stratum, invariant) entries of one incidence table."""
    return sum(len(feasible(s, genus)) for s in strata(rank, degree, genus))


@lru_cache(maxsize=None)
def fixed_labels(degree: int, genus: int) -> tuple[str, ...]:
    """Rank-3 fixed-component labels in output order: min, the type-(1,2)
    labels reached below the family-1 threshold, the type-(2,1) labels
    reached below mu, then the stable type-(1,1,1) degree triples."""
    k = 2 * genus - 2
    d = degree
    t12: set[int] = set()
    t21: set[int] = set()
    for steps in strata(3, d, genus):
        fam = family(steps)
        if fam not in ("1", "2"):
            continue
        tags = {predict_limit(steps, genus, v)[1] for v in feasible(steps, genus)}
        if "1.1" in tags:
            t12.add(steps[0][1])
        if "2.1" in tags:
            t21.add(d - steps[-1][1])
    triples = []
    for l1 in range(d // 3 - 2 * k - 2, d // 3 + 2 * k + 3):
        for l2 in range(l1 - k, l1 + k + 1):
            l3 = d - l1 - l2
            if l3 - l2 + k >= 0 and l1 + l2 - 2 * l3 > 0 and 2 * l1 - l2 - l3 > 0:
                triples.append((l1, l2, l3))
    return (
        ("min",)
        + tuple(f"t12:{a}|{d - a}" for a in sorted(t12))
        + tuple(f"t21:{e}|{d - e}" for e in sorted(t21))
        + tuple(f"t111:{a},{b},{c}" for a, b, c in sorted(triples))
    )
