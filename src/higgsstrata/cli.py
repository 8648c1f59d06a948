"""Command-line front end.

Subcommands: ``strata`` (admissible HN types), ``fixed`` (fixed-point
component labels), ``limit`` (classify one downward-flow limit),
``incidence`` (the full table, exportable as JSON/CSV/DOT), and
``verify`` (the acceptance suite).  All degree-like flags take integers;
slopes are always derived, never accepted raw.

One parser serves every ``main`` call of a process, one table maps each
command to its handler, and one renderer writes every command's JSON
envelope or text lines.

Importing this module loads only what every command needs: ``verify``
imports the verification module when it runs, and only the CSV writer
imports csv, so a one-shot query pays for neither.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from collections import namedtuple

from . import incidence as incidence_mod
from .admissibility import AdmissibleStratum, CaseFamily, enumerate_strata
from .core import (
    Genus,
    HNType,
    InvalidGenus,
    InvalidHNType,
    StrataError,
    _ratio,
    format_hn_type,
    format_label,
    parse_hn_steps,
)
from .fixed_points import enumerate_fixed_components
from .limit_classifier import ClassifierInput, Invariant, classify


RunConfig = namedtuple("RunConfig", "command genus rank degree hn invariant format output",
                       defaults=(None, None, None, None, None, "table", None))


class UsageError(StrataError):
    """A flag combination violates a command precondition."""


def _render(config: RunConfig, query: dict, records: list | str, meta: dict, text) -> str:
    """A command's output: the JSON envelope of its query, records and
    meta data, or the lines ``text()`` yields (called only for text).
    ``records`` may be JSON text already, indented for the envelope
    (``incidence.records_json``).  Every envelope is written by
    ``incidence.to_json``."""
    if config.format == "json":
        doc = {"query": {"command": config.command, **query}, "meta": meta}
        if isinstance(records, str):
            # "results" sorts after "meta" and "query": it is the last key.
            head = incidence_mod.to_json(doc)
            return f'{head[:-2]},\n  "results": {records}\n}}\n'
        doc["results"] = records
        return incidence_mod.to_json(doc) + "\n"
    return "\n".join(text()) + "\n"


def _render_grid(config: RunConfig, header: str, records: list, meta: dict, row) -> str:
    """Render a strata, fixed or incidence run: the query is its (rank,
    degree, genus) point, the text a header line over one ``row`` per
    record.  ``header`` names the point ``{where}`` and the count ``{count}``."""
    query = {"genus": config.genus, "rank": config.rank, "degree": config.degree}
    where = f"rank {config.rank}, degree {config.degree}, genus {config.genus}"
    return _render(
        config, query, records, meta,
        lambda: [header.format(where=where, count=len(records)), *map(row, records)],
    )


def _strata_row(record: dict) -> str:
    line = f"  {record['hn']:<16} mu=({', '.join(record['mu_vector'])})"
    if "case_family" in record:
        line += f"  family={record['case_family']}  feasible={record['feasible_set']}"
    return line


def _run_strata(config: RunConfig) -> tuple[int, str]:
    genus = Genus(config.genus)
    strata = enumerate_strata(config.rank, config.degree, genus)
    records = []
    for stratum in strata:
        record = {
            "hn": format_hn_type(stratum.hn),
            "mu_vector": [_ratio(m, 6) for m in stratum.mu6_vector],
        }
        if config.rank == 3:
            record["case_family"] = stratum.case_family.value
            record["feasible_set"] = list(stratum.feasible_integers)
        records.append(record)
    return 0, _render_grid(
        config, "admissible strata for {where}: {count}", records,
        {"genus": config.genus}, _strata_row,
    )


def _run_fixed(config: RunConfig) -> tuple[int, str]:
    genus = Genus(config.genus)
    labels = enumerate_fixed_components(config.rank, config.degree, genus)
    records = [{"component": format_label(label)} for label in labels]
    return 0, _render_grid(
        config, "fixed components for {where}: {count}", records,
        {"genus": config.genus}, lambda record: f"  {record['component']}",
    )


def _limit_invariant(config: RunConfig, stratum) -> Invariant:
    if stratum.is_semistable or stratum.hn.total_rank == 2:
        if config.invariant is not None:
            raise UsageError(f"{stratum.hn} takes no invariant; drop --inv/--aligned")
    elif stratum.case_family is CaseFamily.CASE3_FLAG:
        if not isinstance(config.invariant, bool):
            raise UsageError(
                f"{stratum.hn} has mu2 = mu; pass --aligned true|false, not --inv"
            )
    elif isinstance(config.invariant, bool) or config.invariant is None:
        need = "I" if stratum.case_family is CaseFamily.CASE1_I else "N"
        raise UsageError(f"{stratum.hn} needs an integer --inv (slope of {need})")
    return config.invariant


def _run_limit(config: RunConfig) -> tuple[int, str]:
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
    stratum = AdmissibleStratum(hn, genus)
    outcome = classify(ClassifierInput(stratum, _limit_invariant(config, stratum)))
    incidence_mod.check_outcome(stratum, outcome)
    feasible = list(stratum.feasible_integers)
    record = incidence_mod.outcome_record(hn, config.invariant, outcome, feasible)
    query = {
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
    return 0, _render(config, query, [record], meta, lambda: [
        f"stratum:             {record['stratum']}",
        f"invariant:           {record['invariant']}",
        f"case:                {record['case']}",
        f"component:           {record['component']}",
        f"graded degrees:      {record['graded_degrees']}",
        f"HN type of limit:    {record['hnt_limit']}",
        f"strictly polystable: {record['strictly_polystable']}",
        f"feasible set:        {record['feasible_set']}",
    ])


def _incidence_row(record: dict) -> str:
    inv = record["invariant"]
    inv_text = "-" if inv is None else str(inv).lower()
    return (
        f"  {record['stratum']:<16} inv={inv_text:<6} case={record['case']:<4} "
        f"-> {record['component']}"
    )


def _run_incidence(config: RunConfig) -> tuple[int, str]:
    genus = Genus(config.genus)
    table = incidence_mod.build_table(config.rank, config.degree, genus)
    if config.format == "csv":
        return 0, incidence_mod.table_to_csv(table)
    if config.format == "dot":
        return 0, incidence_mod.table_to_dot(table)
    meta = {
        "genus": config.genus,
        "case_tags": incidence_mod.table_case_tags(table),
        "realizability": "assumed",
    }
    if config.format == "json":
        records = incidence_mod.records_json(table)
    else:
        records = incidence_mod.table_to_records(table)
    return 0, _render_grid(config, "incidence for {where}", records, meta, _incidence_row)


def _run_verify(config: RunConfig) -> tuple[int, str]:
    """Run the acceptance suite; exit status 1 if a criterion fails.  The
    verification module, which imports this one lazily too, loads on the
    first verify of a process."""
    from . import verification  # here, not at the top: only verify runs the suite

    results = verification.run_all()
    passed = sum(1 for r in results if r.passed)
    records = [
        {"number": r.number, "name": r.name, "passed": r.passed, "details": r.details}
        for r in results
    ]

    def text():
        for r in results:
            yield f"{'PASS' if r.passed else 'FAIL'} {r.number}. {r.name}: {r.details}"
        yield f"{passed}/{len(results)} criteria passed"

    meta = {"passed": passed, "total": len(results)}
    return (0 if passed == len(results) else 1), _render(config, {}, records, meta, text)


_COMMANDS = {
    "strata": _run_strata,
    "fixed": _run_fixed,
    "limit": _run_limit,
    "incidence": _run_incidence,
    "verify": _run_verify,
}


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one command; returns (exit status, serialized output)."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        raise UsageError(f"unknown command {config.command!r}")
    return handler(config)


def _parse_aligned(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared."""
    parser = argparse.ArgumentParser(
        prog="higgsstrata",
        description="Exact stratification calculator for rank-2/3 Higgs bundle moduli.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Kept for parse_args, which reads plain argv against a subcommand's actions.
    parser.subcommands = sub

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
    group.add_argument(
        "--inv", dest="invariant", metavar="INV", type=int, help="integer slope of I or N"
    )
    group.add_argument(
        "--aligned", dest="invariant", metavar="ALIGNED", type=_parse_aligned,
        help="alignment flag for balanced strata",
    )
    p_limit.add_argument("--format", choices=("table", "json"), default="table")

    p_inc = sub.add_parser("incidence", help="build the full incidence table")
    add_common(p_inc, rank=True, degree_required=True)
    p_inc.add_argument("--format", choices=("table", "json", "csv", "dot"), default="table")

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--format", choices=("table", "json"), default="table")
    p_verify.add_argument("--output")

    return parser


@functools.cache
def _plain_grammar(command: str, subparser: argparse.ArgumentParser) -> tuple:
    """A subcommand parser's plain store actions by exact option string, its
    required actions' destinations, and the namespace of a parse that gives
    no flag: the command and each action's default, as argparse sets them.
    RunConfig supplies every field a subcommand has no action for."""
    plain = {
        flag: action
        for flag, action in subparser._option_string_actions.items()
        if type(action) is argparse._StoreAction
    }
    required = frozenset(action.dest for action in subparser._actions if action.required)
    start = {"command": command}
    for action in subparser._actions:
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            start.setdefault(action.dest, action.default)
    return plain, required, start


def _parse_plain(command: str, subparser, tokens) -> argparse.Namespace | None:
    """The namespace of ``tokens`` when they are exact ``--flag value``
    pairs that argparse would read the same way: each flag a plain store
    action's own option string, no dest given twice, each value a string
    that argparse takes as an argument and that the action's type converts
    into its choices, and no required action left out.  A value may start
    with "-" only as a negative integer in ASCII digits, which argparse
    reads as a value because no option of these parsers looks like a
    negative number.  None for any other tokens, which argparse then
    parses and words."""
    if len(tokens) % 2:
        return None
    plain, required, start = _plain_grammar(command, subparser)
    given = {}
    for flag, value in zip(tokens[::2], tokens[1::2]):
        action = plain.get(flag)
        if action is None or action.dest in given or not isinstance(value, str):
            return None
        if value[:1] == "-" and not (value[1:].isdigit() and value[1:].isascii()):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    if not required <= given.keys():
        return None
    return argparse.Namespace(**{**start, **given})


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    """build_parser().parse_args(argv): the same namespace, exit status and
    messages.  When argv[0] names a subcommand and the rest is plain
    ``--flag value`` pairs, they are read against that subcommand's own
    argparse actions (``_parse_plain``).  Any other argv takes the full
    parse, so argparse parses, and words, every error, usage line and help
    text."""
    parser = build_parser()
    subparser = parser.subcommands.choices.get(argv[0]) if argv else None
    if subparser is not None:
        args = _parse_plain(argv[0], subparser, argv[1:])
        if args is not None:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit status.

    The cyclic garbage collector is paused for the whole command (parse,
    run and write) and re-enabled on the way out only if it was enabled
    on entry.  A command builds large tables, outcomes and texts that hold
    no reference cycles, so reference counting frees all it drops, and
    the collector's passes over those containers would find nothing.
    Library calls such as ``incidence.build_table`` or
    ``verification.run_all`` keep their caller's collector state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        config = RunConfig(**vars(parse_args(argv)))
        try:
            code, text = run(config)
        except (UsageError, InvalidGenus) as exc:
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
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
