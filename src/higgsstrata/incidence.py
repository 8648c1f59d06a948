"""Assemble the full incidence relation between the two stratifications.

A table records, for every admissible Harder-Narasimhan stratum of a
moduli space, the downward-flow limit of each feasible invariant value.
The index of fixed-component labels by the strata reaching them is
derived from those rows when it is read.  One stratum meeting several
components is the expected picture in rank 3; in rank 2 the
correspondence is a bijection.  This module builds and writes tables;
the acceptance checks that read them are in verification.

The JSON writer encodes strings with CPython's C function
``_json.encode_basestring_ascii``, the one ``json.dumps`` uses, without
importing the json package; ``table_to_csv`` imports csv on its first call.
"""

from __future__ import annotations

# The C function that json.encoder re-exports, taken from _json so that the
# json package, with its decoder and scanner, is never imported.
from _json import encode_basestring_ascii as _json_string
from types import SimpleNamespace

from . import fixed_points, limit_classifier, matrix_oracle
from .admissibility import AdmissibleStratum, enumerate_strata
from .core import (
    FixedComponentLabel,
    Frozen,
    Genus,
    HNType,
    LimitOutcome,
    _set,
    format_hn_type,
    format_label,
)
from .limit_classifier import Invariant, Run


class IncidenceRow(Frozen):
    """A stratum's feasible invariants and outcomes, as classify_stratum's runs."""

    _fields = ("stratum", "runs")

    def __init__(self, stratum: AdmissibleStratum, runs: tuple[Run, ...]) -> None:
        _set(self, "stratum", stratum)
        _set(self, "runs", runs)

    @property
    def entries(self) -> tuple[tuple[Invariant, LimitOutcome], ...]:
        """Each (invariant, outcome) pair of the runs, in sweep order."""
        return tuple((key, outcome) for values, outcome in self.runs for key in values)

    @property
    def feasible_set(self) -> tuple[Invariant, ...]:
        return tuple(key for values, _ in self.runs for key in values)


class IncidenceTable(Frozen):
    """One (rank, degree, genus) point's rows.  ``bb_index`` is derived
    from the rows on each read: each fixed-component label with the HN
    types of the strata reaching it, sorted by label text."""

    _fields = ("rank", "degree", "genus", "rows")

    def __init__(self, rank: int, degree: int, genus: Genus, rows: tuple[IncidenceRow, ...]) -> None:
        for name, value in zip(self._fields, (rank, degree, genus, rows)):
            _set(self, name, value)

    @property
    def bb_index(self) -> tuple[tuple[FixedComponentLabel, tuple[HNType, ...]], ...]:
        reaching: dict[FixedComponentLabel, list[HNType]] = {}  # by component
        reached_by: dict[int, list[HNType]] = {}  # the same lists, by outcome id
        for row in self.rows:
            hn = row.stratum.hn
            for _, outcome in row.runs:
                reached = reached_by.get(id(outcome))
                if reached is None:
                    reached = reached_by[id(outcome)] = reaching.setdefault(outcome.component, [])
                # Rows are distinct strata, so a stratum already listed for
                # this component is the last one listed.
                if not reached or reached[-1] is not hn:
                    reached.append(hn)
        return tuple((label, tuple(reaching[label])) for label in sorted(reaching, key=format_label))

    def bb_map(self) -> dict[FixedComponentLabel, tuple[HNType, ...]]:
        return dict(self.bb_index)


def check_outcome(stratum: AdmissibleStratum, outcome: LimitOutcome) -> None:
    """Check one classified outcome of the stratum against the
    fixed-point constraints and the gauge-scaling engine; a rejection
    raises AssertionError naming the stratum (it would indicate an
    implementation bug)."""
    hn = stratum.hn
    if not fixed_points.validate_component_label(
        outcome.component, hn.total_rank, hn.total_degree, stratum.genus
    ):
        raise AssertionError(
            f"outcome component {format_label(outcome.component)} fails "
            f"fixed-point validation for stratum {hn}"
        )
    if not matrix_oracle.oracle_check(outcome):
        raise AssertionError(
            f"gauge-scaling check failed for case {outcome.case_tag.value} "
            f"of stratum {hn}"
        )


def build_table(rank: int, degree: int, genus: Genus) -> IncidenceTable:
    """Classify every (stratum, feasible invariant) pair into the rows.

    Construction is deterministic: strata in enumeration order, slope
    invariants ascending, alignment flags True before False.  Every
    outcome is checked against the fixed-point constraints and the
    gauge-scaling engine before it enters the table.
    """
    rows = []
    interned: dict = {}  # equal outcomes of the table are one object
    # Each distinct outcome is checked once, by the first stratum reaching it.
    checked: set[int] = set()  # outcome ids
    for stratum in enumerate_strata(rank, degree, genus):
        runs = limit_classifier.classify_stratum(stratum, interned)
        for _, outcome in runs:
            if id(outcome) not in checked:
                check_outcome(stratum, outcome)
                checked.add(id(outcome))
        rows.append(IncidenceRow(stratum, runs))
    return IncidenceTable(rank, degree, genus, tuple(rows))


# ---------------------------------------------------------------------------
# Serialization


def outcome_record(
    hn: HNType, invariant: Invariant, outcome: LimitOutcome, feasible: list
) -> dict:
    """The output record of one classified limit, for ``limit`` and
    ``incidence`` alike."""
    return {
        "stratum": format_hn_type(hn),
        "invariant": invariant,
        "case": outcome.case_tag.value,
        "component": format_label(outcome.component),
        "graded_degrees": list(outcome.graded_degrees),
        "hnt_limit": format_hn_type(outcome.hnt_limit),
        "strictly_polystable": outcome.strictly_polystable,
        "feasible_set": feasible,
    }


def table_to_records(table: IncidenceTable) -> list[dict]:
    """Flat outcome records, one per (stratum, invariant) pair."""
    records = []
    for row in table.rows:
        feasible = [k for k in row.feasible_set if k is not None]
        for values, outcome in row.runs:
            for key in values:
                records.append(outcome_record(row.stratum.hn, key, outcome, feasible))
    return records


def to_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for the values the
    package writes: dicts with str keys, lists, tuples, str, int, bool
    and None.  Any other type raises TypeError.

    The json module encodes with its C encoder only when ``indent`` is
    None; this writer takes its place for every indented document.
    """
    return _json(value, "\n")


#: The text of a scalar by its exact type, so that a bool is not an int.
_JSON_SCALARS = {
    str: _json_string,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _json(value, line: str) -> str:
    """``value`` as JSON text whose nested lines start with ``line`` (a
    line break and the indent of the line that ``value`` begins on).
    A container writes its scalar items itself: they are most items."""
    write = _JSON_SCALARS.get(type(value))
    if write is not None:
        return write(value)
    inner = line + "  "
    parts = []
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in sorted(value):  # _json_string refuses a key that is no str
            item = value[key]
            write = _JSON_SCALARS.get(type(item))
            text = _json(item, inner) if write is None else write(item)
            parts.append(f"{_json_string(key)}: {text}")
        return "{" + inner + ("," + inner).join(parts) + line + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        for item in value:
            write = _JSON_SCALARS.get(type(item))
            parts.append(_json(item, inner) if write is None else write(item))
        return "[" + inner + ("," + inner).join(parts) + line + "]"
    # Subclasses of str and int; bool has none.
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def records_json(table: IncidenceTable) -> str:
    """``json.dumps(table_to_records(table), indent=2, sort_keys=True)``
    as the ``results`` of an output envelope: one level deeper, so every
    line after the first is indented by two more spaces.

    A record is written as six fragments between its sorted keys: the
    outcome's case and component, the row's feasible set, the outcome's
    graded degrees and HN type, the invariant, the row's stratum, and the
    outcome's polystability.  Outcome fragments are formatted once per
    outcome object (equal outcomes of a table are one object), row
    fragments once per row; per value only the invariant is written.
    """
    # Line breaks with the indent of a record's braces, fields and list items.
    record_line = "\n    "
    field_line = record_line + "  "
    item_line = field_line + "  "
    separator = "," + record_line
    parts = ["["]
    fragments: dict[int, tuple[str, str, str]] = {}  # by outcome id
    for row in table.rows:
        keys = [k for k in row.feasible_set if k is not None]  # all ints or all bools
        feasible = "[" + item_line + ("," + item_line).join(
            map(_JSON_SCALARS[type(keys[0])], keys)
        ) + field_line + "]" if keys else "[]"
        row_feasible = f'{feasible},{field_line}"graded_degrees": '
        row_stratum = (
            f',{field_line}"stratum": {_json_string(format_hn_type(row.stratum.hn))},'
            f'{field_line}"strictly_polystable": '
        )
        for values, outcome in row.runs:
            outcome_parts = fragments.get(id(outcome))
            if outcome_parts is None:
                outcome_parts = fragments[id(outcome)] = (
                    f'{{{field_line}"case": {_json_string(outcome.case_tag.value)},'
                    f'{field_line}"component": {_json_string(format_label(outcome.component))},'
                    f'{field_line}"feasible_set": ',
                    f"{_json(outcome.graded_degrees, field_line)},"
                    f'{field_line}"hnt_limit": {_json_string(format_hn_type(outcome.hnt_limit))},'
                    f'{field_line}"invariant": ',
                    ("true" if outcome.strictly_polystable else "false") + record_line + "}",
                )
            head, middle, tail = outcome_parts
            for text in map(_JSON_SCALARS[type(values[0])], values):  # one type a run
                parts += (separator, head, row_feasible, middle, text, row_stratum, tail)
    if len(parts) == 1:
        return "[]"
    parts[1] = record_line  # the first record follows "[" without a comma
    parts.append("\n  ]")
    return "".join(parts)


CSV_HEADER = ("stratum", "invariant", "case", "component", "hnt_limit")
#: The CSV text of an invariant by its exact type; no such text needs quoting.
_CSV_INVARIANTS = {**_JSON_SCALARS, type(None): lambda _: ""}


def table_to_csv(table: IncidenceTable) -> str:
    """One line per (stratum, invariant, outcome) under the fixed header.
    csv.writer quotes each row's stratum and each outcome's fields once;
    an invariant's text never needs quoting, so it is written as it is."""
    import csv  # here, not at the top: only the CSV format needs the module

    # writerow returns what the file's write returns: here, the line.
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    parts = [line(CSV_HEADER)]
    tails: dict[int, str] = {}  # ",case,component,hnt_limit\n" by outcome id
    for row in table.rows:
        head = line((format_hn_type(row.stratum.hn), ""))[:-1]  # "stratum,"
        for values, outcome in row.runs:
            tail = tails.get(id(outcome))
            if tail is None:
                case, label = outcome.case_tag.value, format_label(outcome.component)
                tail = tails[id(outcome)] = line(("", case, label, format_hn_type(outcome.hnt_limit)))
            for text in map(_CSV_INVARIANTS[type(values[0])], values):  # one type a run
                parts += (head, text, tail)
    return "".join(parts)


def table_to_dot(table: IncidenceTable) -> str:
    """Bipartite reachability graph: box-shaped stratum nodes, ellipse
    fixed-component nodes, one edge per classified limit."""
    degree_id = str(table.degree).replace("-", "m")
    lines = [
        f"digraph incidence_{table.rank}_{degree_id}_g{table.genus.g} {{",
        "  rankdir=LR;",
    ]
    strata = [format_hn_type(row.stratum.hn) for row in table.rows]
    for hn_text in strata:
        lines.append(f'  "hn:{hn_text}" [shape=box];')
    # '"bb:component"' by component, in bb_index order, then by outcome id.
    components = {label: f'"bb:{format_label(label)}"' for label, _ in table.bb_index}
    for node in components.values():
        lines.append(f"  {node} [shape=ellipse];")
    nodes: dict[int, str] = {}
    edges: dict[str, None] = {}  # insertion-ordered set
    for hn_text, row in zip(strata, table.rows):
        for _, outcome in row.runs:
            node = nodes.get(id(outcome))
            if node is None:
                node = nodes[id(outcome)] = components[outcome.component]
            edges[f'  "hn:{hn_text}" -> {node};'] = None
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def table_case_tags(table: IncidenceTable) -> list[str]:
    """Sorted case tags occurring in the table (for output metadata)."""
    tags = {outcome.case_tag for row in table.rows for _, outcome in row.runs}
    return sorted(tag.value for tag in tags)
