"""Command-line front end.

Subcommands: ``strata`` (admissible HN types), ``fixed`` (fixed-point
component labels), ``limit`` (classify one downward-flow limit),
``incidence`` (the full table, exportable as JSON/CSV/DOT), and
``verify`` (the acceptance suite).  All degree-like flags take integers;
slopes are always derived, never accepted raw.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import incidence as incidence_mod
from . import verification
from .admissibility import (
    CaseFamily,
    enumerate_strata,
    invariant_range,
    validate,
)
from .core import (
    Genus,
    HNType,
    InvalidHNType,
    StrataError,
    format_hn_type,
    format_label,
    format_rational,
    parse_hn_steps,
)
from .fixed_points import enumerate_fixed_components
from .limit_classifier import (
    Aligned,
    ClassifierInput,
    NotApplicable,
    SlopeI,
    SlopeN,
    classify,
)


@dataclass(frozen=True)
class RunConfig:
    command: str
    genus: int
    rank: int | None = None
    degree: int | None = None
    hn: str | None = None
    invariant: int | bool | None = None
    format: str = "table"
    output: str | None = None


class UsageError(StrataError):
    """A flag combination violates a command precondition."""


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _envelope(query: dict, results: list, meta: dict) -> dict:
    return {"query": query, "results": results, "meta": meta}


def _run_strata(config: RunConfig) -> str:
    genus = Genus(config.genus)
    strata = enumerate_strata(config.rank, config.degree, genus)
    records = []
    for stratum in strata:
        record = {
            "hn": format_hn_type(stratum.hn),
            "mu_vector": [format_rational(m) for m in stratum.mu_vector],
        }
        if config.rank == 3:
            rng = invariant_range(stratum)
            record["case_family"] = rng.case_family.value
            record["feasible_set"] = list(rng.feasible_integers)
        records.append(record)
    if config.format == "json":
        query = {
            "command": "strata",
            "genus": config.genus,
            "rank": config.rank,
            "degree": config.degree,
        }
        return _json_text(_envelope(query, records, {"genus": config.genus}))
    lines = [
        f"admissible strata for rank {config.rank}, degree {config.degree}, "
        f"genus {config.genus}: {len(records)}"
    ]
    for record in records:
        line = f"  {record['hn']:<16} mu=({', '.join(record['mu_vector'])})"
        if "case_family" in record:
            line += f"  family={record['case_family']}"
            line += f"  feasible={record['feasible_set']}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _run_fixed(config: RunConfig) -> str:
    genus = Genus(config.genus)
    labels = enumerate_fixed_components(config.rank, config.degree, genus)
    records = [{"component": format_label(label)} for label in labels]
    if config.format == "json":
        query = {
            "command": "fixed",
            "genus": config.genus,
            "rank": config.rank,
            "degree": config.degree,
        }
        return _json_text(_envelope(query, records, {"genus": config.genus}))
    lines = [
        f"fixed components for rank {config.rank}, degree {config.degree}, "
        f"genus {config.genus}: {len(records)}"
    ]
    lines.extend(f"  {record['component']}" for record in records)
    return "\n".join(lines) + "\n"


def _limit_invariant(config: RunConfig, stratum) -> SlopeI | SlopeN | Aligned | NotApplicable:
    if stratum.is_semistable or stratum.hn.total_rank == 2:
        if config.invariant is not None:
            raise UsageError(f"{stratum.hn} takes no invariant; drop --inv/--aligned")
        return NotApplicable()
    family = stratum.case_family
    if family is CaseFamily.CASE3_FLAG:
        if not isinstance(config.invariant, bool):
            raise UsageError(
                f"{stratum.hn} has mu2 = mu; pass --aligned true|false, not --inv"
            )
        return Aligned(config.invariant)
    if isinstance(config.invariant, bool) or config.invariant is None:
        need = "I" if family is CaseFamily.CASE1_I else "N"
        raise UsageError(f"{stratum.hn} needs an integer --inv (slope of {need})")
    if family is CaseFamily.CASE1_I:
        return SlopeI(config.invariant)
    return SlopeN(config.invariant)


def _run_limit(config: RunConfig) -> str:
    if config.hn is None:
        raise UsageError("limit requires --hn")
    genus = Genus(config.genus)
    try:
        steps = parse_hn_steps(config.hn)
    except InvalidHNType as exc:
        raise UsageError(str(exc)) from None
    hn = HNType(steps)
    if config.degree is not None and hn.total_degree != config.degree:
        raise UsageError(
            f"--degree {config.degree} contradicts the HN type's degree "
            f"{hn.total_degree}"
        )
    stratum = validate(hn, genus)
    datum = _limit_invariant(config, stratum)
    outcome = classify(ClassifierInput(stratum, datum))
    if stratum.hn.total_rank == 3 and not stratum.is_semistable:
        feasible = list(invariant_range(stratum).feasible_integers)
    else:
        feasible = []
    record = incidence_mod.outcome_record(hn, config.invariant, outcome, feasible)
    if config.format == "json":
        query = {
            "command": "limit",
            "genus": config.genus,
            "degree": hn.total_degree,
            "hn": format_hn_type(hn),
            "invariant": config.invariant,
        }
        meta = {
            "genus": config.genus,
            "case_tags": [outcome.case_tag.value],
            "realizability": "assumed",
        }
        return _json_text(_envelope(query, [record], meta))
    lines = [
        f"stratum:             {record['stratum']}",
        f"invariant:           {record['invariant']}",
        f"case:                {record['case']}",
        f"component:           {record['component']}",
        f"graded degrees:      {record['graded_degrees']}",
        f"HN type of limit:    {record['hnt_limit']}",
        f"strictly polystable: {record['strictly_polystable']}",
        f"feasible set:        {record['feasible_set']}",
    ]
    return "\n".join(lines) + "\n"


def _run_incidence(config: RunConfig) -> str:
    genus = Genus(config.genus)
    table = incidence_mod.build_table(config.rank, config.degree, genus)
    if config.format == "csv":
        return incidence_mod.table_to_csv(table)
    if config.format == "dot":
        return incidence_mod.table_to_dot(table)
    records = incidence_mod.table_to_records(table)
    if config.format == "json":
        query = {
            "command": "incidence",
            "genus": config.genus,
            "rank": config.rank,
            "degree": config.degree,
        }
        meta = {
            "genus": config.genus,
            "case_tags": incidence_mod.table_case_tags(table),
            "realizability": "assumed",
        }
        return _json_text(_envelope(query, records, meta))
    lines = [
        f"incidence for rank {config.rank}, degree {config.degree}, "
        f"genus {config.genus}"
    ]
    for record in records:
        inv = record["invariant"]
        inv_text = "-" if inv is None else str(inv).lower()
        lines.append(
            f"  {record['stratum']:<16} inv={inv_text:<6} case={record['case']:<4} "
            f"-> {record['component']}"
        )
    return "\n".join(lines) + "\n"


def _run_verify(config: RunConfig) -> tuple[int, str]:
    results = verification.run_all()
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status} {res.number}. {res.name}: {res.details}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} criteria passed")
    if config.format == "json":
        doc = {
            "query": {"command": "verify"},
            "results": [
                {
                    "number": r.number,
                    "name": r.name,
                    "passed": r.passed,
                    "details": r.details,
                }
                for r in results
            ],
            "meta": {"passed": passed, "total": len(results)},
        }
        return (0 if passed == len(results) else 1), _json_text(doc)
    return (0 if passed == len(results) else 1), "\n".join(lines) + "\n"


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one command; returns (exit status, serialized output)."""
    if config.command == "verify":
        return _run_verify(config)
    if config.command == "strata":
        return 0, _run_strata(config)
    if config.command == "fixed":
        return 0, _run_fixed(config)
    if config.command == "limit":
        return 0, _run_limit(config)
    if config.command == "incidence":
        return 0, _run_incidence(config)
    raise UsageError(f"unknown command {config.command!r}")


def _parse_aligned(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="higgsstrata",
        description="Exact stratification calculator for rank-2/3 Higgs bundle moduli.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, rank: bool, degree_required: bool):
        p.add_argument("--genus", type=int, required=True, help="genus of the curve (>= 2)")
        if rank:
            p.add_argument("--rank", type=int, choices=(2, 3), required=True)
        p.add_argument("--degree", type=int, required=degree_required)
        p.add_argument("--output", help="write the result to this path instead of stdout")

    p_strata = sub.add_parser("strata", help="enumerate admissible HN types")
    add_common(p_strata, rank=True, degree_required=True)
    p_strata.add_argument("--format", choices=("table", "json"), default="table")

    p_fixed = sub.add_parser("fixed", help="enumerate fixed-point component labels")
    add_common(p_fixed, rank=True, degree_required=True)
    p_fixed.add_argument("--format", choices=("table", "json"), default="table")

    p_limit = sub.add_parser("limit", help="classify one downward-flow limit")
    add_common(p_limit, rank=False, degree_required=False)
    p_limit.add_argument("--hn", required=True, help='HN type, e.g. "1:1,2:0"')
    group = p_limit.add_mutually_exclusive_group()
    group.add_argument("--inv", type=int, help="integer slope of I or N")
    group.add_argument(
        "--aligned", type=_parse_aligned, help="alignment flag for balanced strata"
    )
    p_limit.add_argument("--format", choices=("table", "json"), default="table")

    p_inc = sub.add_parser("incidence", help="build the full incidence table")
    add_common(p_inc, rank=True, degree_required=True)
    p_inc.add_argument("--format", choices=("table", "json", "csv", "dot"), default="table")

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--format", choices=("table", "json"), default="table")
    p_verify.add_argument("--output")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    invariant: int | bool | None = None
    if getattr(args, "aligned", None) is not None:
        invariant = args.aligned
    elif getattr(args, "inv", None) is not None:
        invariant = args.inv
    genus = getattr(args, "genus", 2)
    if genus < 2:
        raise UsageError(f"genus must be >= 2, got {genus}")
    return RunConfig(
        command=args.command,
        genus=genus,
        rank=getattr(args, "rank", None),
        degree=getattr(args, "degree", None),
        hn=getattr(args, "hn", None),
        invariant=invariant,
        format=getattr(args, "format", "table"),
        output=getattr(args, "output", None),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        code, text = run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except StrataError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {config.output}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
