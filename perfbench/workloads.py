"""The benchmark's three workloads: their queries and their output checks.

A workload turns a seed into a fixed list of CLI argv lists (the program
sees nothing else) and checks each query's (exit code, stdout, stderr)
against `model` and against digests recorded in ``expected.json``.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import model

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# cli-mix composition per pass.  The counts are fixed and the genera of
# the costly strata/fixed queries are balanced, so a seed changes which
# queries run, not how much work a pass is.
LIMIT_FEASIBLE, LIMIT_GAP, LIMIT_OUT_OF_BOUNDS = 696, 104, 69
LIMIT_GENERA = range(2, 31)
SMALL_GENERA = range(2, 13)  # strata and fixed
STRATA_PER_GENUS = 16  # 8 of rank 2 and 8 of rank 3
# A fixed query's cost depends on its degree only through d mod 3 (the
# twist by a line bundle), so each genus gets the same residues.
FIXED_RESIDUES = (0, 1, 1, 2, 2)
DEGREES = range(-6, 7)
MIX_DIGEST_SEED = 0  # the seed whose cli-mix outputs have recorded digests


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def incidence_queries() -> list[list[str]]:
    """Six rank-3 incidence tables at g = 30 and 20.  The order is fixed:
    the process's peak memory depends on it."""
    points = [(0, 30, "json"), (1, 30, "dot"), (2, 30, "csv"), (0, 20, "dot"), (1, 20, "csv"), (2, 20, "json")]
    return [
        ["incidence", "--rank", "3", "--degree", str(d), "--genus", str(g), "--format", fmt]
        for d, g, fmt in points
    ]


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _limit_argv(rng, genus, degree, steps, invariant) -> list[str]:
    argv = ["limit", "--genus", str(genus), "--degree", str(degree), "--hn", model.hn_text(steps)]
    if isinstance(invariant, bool):
        argv += ["--aligned", "true" if invariant else "false"]
    elif invariant is not None:
        argv += ["--inv", str(invariant)]
    return argv + ["--format", rng.choice(("table", "json"))]


def _limit_query(rng: random.Random, kind: str) -> list[str]:
    while True:
        genus, degree = rng.choice(LIMIT_GENERA), rng.choice(DEGREES)
        if kind == "feasible":
            steps = rng.choice(model.strata(rng.choice((2, 3)), degree, genus))
            return _limit_argv(rng, genus, degree, steps, rng.choice(model.feasible(steps, genus)))
        candidates = [s for s in model.strata(3, degree, genus) if model.family(s) in ("1", "2")]
        for _ in range(64):
            steps = rng.choice(candidates)
            low, _, gap_low, gap_high = model.slope_window(steps, genus)
            if kind == "gap":
                # Only gap values inside the a-priori interval, where no
                # other refusal could also apply.
                values = [v for v in model.gap_integers(steps, genus) if v >= low]
            elif rng.random() < 0.5:
                values = [math.floor(gap_high) + rng.randint(1, 3)]
            else:
                values = [min(math.ceil(low) - 1, math.floor(gap_low)) - rng.randint(0, 2)]
            if values:
                return _limit_argv(rng, genus, degree, steps, rng.choice(values))


def mix_queries(seed: int) -> list[list[str]]:
    """The cli-mix pass: about 79% limit (80% feasible, 12% in the excluded
    gap, 8% out of bounds), 16% strata and 5% fixed --rank 3, shuffled."""
    rng = random.Random(seed)
    queries = []
    for kind, count in (("feasible", LIMIT_FEASIBLE), ("gap", LIMIT_GAP), ("oob", LIMIT_OUT_OF_BOUNDS)):
        queries += [_limit_query(rng, kind) for _ in range(count)]
    for genus in SMALL_GENERA:
        for i in range(STRATA_PER_GENUS):
            rank = 2 + i % 2
            queries.append(["strata", "--genus", str(genus), "--rank", str(rank), "--degree", str(rng.choice(DEGREES)), "--format", rng.choice(("table", "json"))])
        for residue in FIXED_RESIDUES:
            degree = rng.choice([d for d in DEGREES if d % 3 == residue])
            queries.append(["fixed", "--genus", str(genus), "--rank", "3", "--degree", str(degree), "--format", rng.choice(("table", "json"))])
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# Output checks.  Each returns None for a correct output, else the reason.


def _records(argv: list[str], out: str) -> list[dict] | None:
    """The results of JSON output; None for table output."""
    if _flag(argv, "--format") == "json":
        return json.loads(out)["results"]
    return None


def _predict_limit(argv: list[str]) -> tuple[bool, str]:
    aligned, inv = _flag(argv, "--aligned"), _flag(argv, "--inv")
    invariant = (aligned == "true") if aligned is not None else None if inv is None else int(inv)
    return model.predict_limit(model.parse_hn(_flag(argv, "--hn")), int(_flag(argv, "--genus")), invariant)


def _check_limit(argv, code, out, err) -> str | None:
    genus = int(_flag(argv, "--genus"))
    steps = model.parse_hn(_flag(argv, "--hn"))
    ok, what = _predict_limit(argv)
    if not ok:
        if code != 1 or out or not err.startswith(f"error: {what}: "):
            return f"expected refusal {what} (exit 1), got exit {code}: {err.strip()[:80]}"
        return None
    if code != 0 or err:
        return f"expected case {what}, got exit {code}: {err.strip()[:80]}"
    feasible = model.feasible(steps, genus) if model.family(steps) in ("1", "2") else []
    records = _records(argv, out)
    if records is not None:
        (record,) = records
        got = (record["stratum"], record["case"], record["feasible_set"])
    else:
        fields = dict(line.split(":", 1) for line in out.splitlines())
        got = (fields["stratum"].strip(), fields["case"].strip(), json.loads(fields["feasible set"]))
    if got != (model.hn_text(steps), what, feasible):
        return f"got (stratum, case, feasible) {got}, expected {(model.hn_text(steps), what, feasible)}"
    return None


def _check_strata(argv, code, out, err) -> str | None:
    genus, rank, degree = (int(_flag(argv, f)) for f in ("--genus", "--rank", "--degree"))
    if code != 0 or err:
        return f"exit {code}: {err.strip()[:80]}"
    expected = {
        model.hn_text(s): model.feasible(s, genus) if model.family(s) in ("1", "2") else []
        for s in model.strata(rank, degree, genus)
    }
    records = _records(argv, out)
    if records is not None:
        got = {r["hn"]: r.get("feasible_set", []) for r in records}
        listed = len(records)
    else:
        header, *lines = out.splitlines()
        got = {}
        for line in lines:
            hn_text, _, rest = line.strip().partition(" ")
            got[hn_text] = json.loads(rest.split("feasible=")[1]) if "feasible=" in rest else []
        listed = int(header.rsplit(":", 1)[1])
    if got != expected or listed != len(expected):
        return f"strata differ from the model ({listed} listed, {len(expected)} expected)"
    return None


def _check_fixed(argv, code, out, err) -> str | None:
    genus, degree = int(_flag(argv, "--genus")), int(_flag(argv, "--degree"))
    if code != 0 or err:
        return f"exit {code}: {err.strip()[:80]}"
    records = _records(argv, out)
    if records is not None:
        got = tuple(r["component"] for r in records)
    else:
        got = tuple(line.strip() for line in out.splitlines()[1:])
    if got != model.fixed_labels(degree, genus):
        return "fixed components differ from the model"
    return None


def check_mix_query(argv, code, out, err) -> str | None:
    """Check one cli-mix output against the model alone."""
    check = {"limit": _check_limit, "strata": _check_strata, "fixed": _check_fixed}[argv[0]]
    try:
        return check(argv, code, out, err)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparseable output ({type(exc).__name__}: {exc})"


class Workload:
    """A named query list with its checks; `entries(queries)` counts the
    classified (stratum, invariant) entries one pass delivers."""

    keep_output = True

    def __init__(self, expected: dict):
        self.expected = expected


class IncidenceWide(Workload):
    keep_output = False  # tens of MB per pass; digests suffice

    def queries(self, seed):
        return incidence_queries()

    def entries(self, queries):
        return sum(
            model.entries(3, int(_flag(q, "--degree")), int(_flag(q, "--genus"))) for q in queries
        )

    def check(self, seed, index, argv, code, digest, out, err):
        want = self.expected["incidence-wide"][" ".join(argv)]
        return None if digest == want else f"output digest {digest[:16]} != recorded {want[:16]}"


class VerifySweep(Workload):
    def queries(self, seed):
        return [["verify", "--format", "json"]]

    def entries(self, queries):
        # criterion 2's grid: every rank-3 classification over g 2..5, |d| <= 6
        return sum(
            model.entries(3, d, g) - 1 for g in range(2, 6) for d in range(-6, 7)
        )

    def check(self, seed, index, argv, code, digest, out, err):
        recorded = self.expected["verify-sweep"]
        if code != 0 or err:
            return f"verify exit {code}: {err.strip()[:80]}"
        try:
            got = [[r["number"], r["name"], r["passed"], r["details"]] for r in json.loads(out)["results"]]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparseable verify output ({type(exc).__name__}: {exc})"
        want = [[n, name, True, details] for n, name, details in recorded["results"]]
        if got != want:
            return f"criteria differ from the recorded ones: {got}"
        entries = self.entries(None)
        if not got[1][3].startswith(f"{entries} classifications unique"):
            return f"criterion 2 does not count the model's {entries} classifications"
        if digest != recorded["digest"]:
            return "verify output differs from the recorded bytes"
        return None


class CliMix(Workload):
    def queries(self, seed):
        return mix_queries(seed)

    def entries(self, queries):
        # each classified limit query delivers one entry
        return sum(1 for q in queries if q[0] == "limit" and _predict_limit(q)[0])

    def check(self, seed, index, argv, code, digest, out, err):
        reason = check_mix_query(argv, code, out, err)
        if reason is None and seed == MIX_DIGEST_SEED:
            want = self.expected["cli-mix"]["digests"][index]
            if not digest.startswith(want):
                reason = f"output digest {digest[:16]} != recorded {want}"
        return reason


WORKLOADS = {"incidence-wide": IncidenceWide, "verify-sweep": VerifySweep, "cli-mix": CliMix}
