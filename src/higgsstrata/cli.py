"""Command-line front end.

Subcommands: ``strata`` (admissible HN types), ``fixed`` (fixed-point
component labels), ``limit`` (classify one downward-flow limit),
``incidence`` (the full table, exportable as JSON/CSV/DOT), and
``verify`` (the acceptance suite).  All degree-like flags take integers;
slopes are always derived, never accepted raw.

One table holds the command-line grammar, one maps each command to its
handler, and one renderer writes every command's JSON envelope or text
lines.

Importing this module loads only what every command needs: ``verify``
imports the verification module when it runs, only the CSV writer
imports csv, and only a command line that the plain reader refuses
imports argparse, so a one-shot query pays for none of them.
"""

from __future__ import annotations

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
    ``records`` may be JSON text already, indented for the envelope:
    ``incidence --format json`` (``incidence.records_json``) and
    ``strata --format json`` (``_run_strata``) write it so.  Every
    envelope is written by ``incidence.to_json``."""
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


# Line breaks with the indent of a record's braces, fields and list items
# in an envelope's results.
_RECORD = "\n    "
_FIELD = _RECORD + "  "
_ITEM = _FIELD + "  "


def _run_strata(config: RunConfig) -> tuple[int, str]:
    """Each stratum's text row or JSON record, keys sorted, written from the
    stratum: its HN text formatted once, each scaled slope's text once a
    query.  The HN, family and slope texts need no JSON escaping."""
    genus = Genus(config.genus)
    strata = enumerate_strata(config.rank, config.degree, genus)
    as_json = config.format == "json"
    text = '"{}"'.format if as_json else str
    slopes = {m: text(_ratio(m, 6)) for m in {m for s in strata for m in s.mu6_vector}}
    rows = []
    for stratum in strata:
        hn, family = format_hn_type(stratum.hn), stratum.case_family
        mu = map(slopes.__getitem__, stratum.mu6_vector)
        if as_json:
            record = "{" + _FIELD
            if family is not None:
                feasible = f",{_ITEM}".join(map(str, stratum.feasible_integers))
                feasible = f"[{_ITEM}{feasible}{_FIELD}]" if feasible else "[]"
                record += f'"case_family": "{family.value}",{_FIELD}'
                record += f'"feasible_set": {feasible},{_FIELD}'
            mu = f",{_ITEM}".join(mu)
            rows.append(f'{record}"hn": "{hn}",{_FIELD}"mu_vector": [{_ITEM}{mu}{_FIELD}]{_RECORD}}}')
        else:
            line = f"  {hn:<16} mu=({', '.join(mu)})"
            if family is not None:
                line += f"  family={family.value}  feasible={list(stratum.feasible_integers)}"
            rows.append(line)
    if as_json:  # every query has the semistable stratum, so rows is never empty
        rows = "[" + _RECORD + f",{_RECORD}".join(rows) + "\n  ]"
    header = "admissible strata for {where}: {count}"
    return 0, _render_grid(config, header, rows, {"genus": config.genus}, str)


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
    import argparse  # here, not at the top: only a refused value needs argparse's error

    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


# The command-line grammar: each command's help line and its flags in
# argparse's order, each with its add_argument keywords.  The flags in
# _EXCLUSIVE form one mutually exclusive group.  build_parser builds
# argparse's parser from this table, and _parse_plain reads plain
# command lines from it.
_GENUS = {"type": int, "required": True, "help": "genus of the curve (>= 2)"}
_OUTPUT = {"help": "write the result to this path instead of stdout"}
_FORMAT = {"choices": ("table", "json"), "default": "table"}
_GRID = {
    "--genus": _GENUS,
    "--rank": {"type": int, "choices": (2, 3), "required": True},
    "--degree": {"type": int, "required": True},
    "--output": _OUTPUT,
    "--format": _FORMAT,
}
_GRAMMAR = {
    "strata": ("enumerate admissible HN types", _GRID),
    "fixed": ("enumerate fixed-point component labels", _GRID),
    "limit": ("classify one downward-flow limit", {
        "--genus": _GENUS,
        "--degree": {"type": int},
        "--output": _OUTPUT,
        "--hn": {"required": True, "help": 'HN type, e.g. "1:1,2:0"'},
        "--inv": {
            "dest": "invariant", "metavar": "INV", "type": int,
            "help": "integer slope of I or N",
        },
        "--aligned": {
            "dest": "invariant", "metavar": "ALIGNED", "type": _parse_aligned,
            "help": "alignment flag for balanced strata",
        },
        "--format": _FORMAT,
    }),
    "incidence": ("build the full incidence table", {
        **_GRID, "--format": {"choices": ("table", "json", "csv", "dot"), "default": "table"},
    }),
    "verify": ("run the acceptance suite", {"--format": _FORMAT, "--output": {}}),
}
_EXCLUSIVE = ("--inv", "--aligned")


@functools.cache
def build_parser():
    """The argparse parser of ``_GRAMMAR``, built on first use and
    then shared.  Only a command line that ``_parse_plain`` refuses
    needs it."""
    import argparse  # here, not at the top: a plain command line needs no argparse

    parser = argparse.ArgumentParser(
        prog="higgsstrata",
        description="Exact stratification calculator for rank-2/3 Higgs bundle moduli.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _GRAMMAR.items():
        subparser = sub.add_parser(command, help=help_text)
        group = None
        for flag, spec in flags.items():
            if flag in _EXCLUSIVE:
                group = group or subparser.add_mutually_exclusive_group()
                group.add_argument(flag, **spec)
            else:
                subparser.add_argument(flag, **spec)
    return parser


def _parse_plain(command: str, tokens) -> RunConfig | None:
    """The RunConfig of ``tokens`` when they are exact ``--flag value``
    pairs that argparse would read the same way: each flag one of the
    command's own in ``_GRAMMAR``, no dest given twice, each value a
    string that argparse takes as an argument and that the flag's type
    converts into its choices, and no required flag left out.  A value
    may start with "-" only as a negative integer in ASCII digits, which
    argparse reads as a value because no option of these parsers looks
    like a negative number.  None for any other tokens, which argparse
    then parses and words."""
    if len(tokens) % 2:
        return None
    flags = _GRAMMAR[command][1]
    given = {}
    for flag, value in zip(tokens[::2], tokens[1::2]):
        spec = flags.get(flag)
        if spec is None or not isinstance(value, str):
            return None
        dest = spec.get("dest", flag[2:])
        if dest in given:
            return None
        if value[:1] == "-" and not (value[1:].isdigit() and value[1:].isascii()):
            return None
        if "type" in spec:
            # Any refusal: int's ValueError, or _parse_aligned's
            # argparse.ArgumentTypeError, whose module a plain command line
            # does not load.  The full parse raises or words it again.
            try:
                value = spec["type"](value)
            except Exception:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[dest] = value
    for flag, spec in flags.items():
        if spec.get("required") and spec.get("dest", flag[2:]) not in given:
            return None
    return RunConfig(command, **given)


def parse_args(argv: list[str] | None) -> RunConfig:
    """The RunConfig of ``build_parser().parse_args(argv)``, with the same
    exit status and messages; ``argv`` defaults to ``sys.argv[1:]``.  When
    argv[0] names a command and the rest is plain ``--flag value`` pairs,
    they are read from ``_GRAMMAR`` (``_parse_plain``) over RunConfig's
    defaults, and argparse is neither imported nor built.  Any other argv
    takes the full parse, so argparse parses, and words, every error,
    usage line and help text."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _GRAMMAR:
        config = _parse_plain(argv[0], argv[1:])
        if config is not None:
            return config
    return RunConfig(**vars(build_parser().parse_args(argv)))


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
        config = parse_args(argv)
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
