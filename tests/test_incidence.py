"""Incidence tables, the two coincidence criteria on single tables, and
serialization."""

import csv
import enum
import io
import json
from copy import copy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsstrata import (
    Genus,
    HodgeBundle,
    build_table,
    format_label,
    parse_hn_type,
    table_to_csv,
    table_to_dot,
    table_to_records,
)
from higgsstrata import cli, fixed_points, incidence, matrix_oracle, verification
from higgsstrata.core import CaseTag, format_hn_type
from higgsstrata.incidence import CSV_HEADER, records_json, table_case_tags

GOLDEN = Path(__file__).parent / "golden"
X1_TAGS = (CaseTag.C1_1, CaseTag.C2_1)


def row_for(table, hn_text):
    (row,) = [r for r in table.rows if str(r.stratum.hn) == hn_text]
    return row


class TestBuildTable:
    def test_rank3_degree0_genus2(self):
        table = build_table(3, 0, Genus(2))
        assert len(table.rows) == 5
        row = row_for(table, "2:1,1:-1")
        assert [key for key, _ in row.entries] == [0]
        outcome = row.entries[0][1]
        assert outcome.case_tag is CaseTag.C2_2
        assert outcome.strictly_polystable

    def test_one_stratum_meets_two_components(self):
        table = build_table(3, 1, Genus(3))
        row = row_for(table, "1:1,2:0")
        targets = {out.component for _, out in row.entries}
        assert targets == {HodgeBundle((1, 2), (1, 0)), HodgeBundle((1, 1, 1), (1, 0, 0))}
        by_invariant = {key: out.component for key, out in row.entries}
        assert by_invariant == {
            -3: HodgeBundle((1, 2), (1, 0)),
            -2: HodgeBundle((1, 2), (1, 0)),
            -1: HodgeBundle((1, 2), (1, 0)),
            0: HodgeBundle((1, 1, 1), (1, 0, 0)),
        }

    def test_rank2_table_is_bijective(self):
        table = build_table(2, 1, Genus(2))
        assert len(table.rows) == 2
        assert row_for(table, "2:1").entries[0][1].component == HodgeBundle((2,), (1,))
        component = row_for(table, "1:1,1:0").entries[0][1].component
        assert component == HodgeBundle((1, 1), (1, 0))

    def test_semistable_maps_to_min_and_nothing_else_does(self):
        for rank, degree, g in ((2, 0, 2), (3, 0, 2), (3, 1, 3), (3, -2, 4)):
            table = build_table(rank, degree, Genus(g))
            min_label = HodgeBundle((rank,), (degree,))
            reaching = table.bb_map()[min_label]
            assert reaching == (parse_hn_type(f"{rank}:{degree}"),)
            for row in table.rows:
                for _, out in row.entries:
                    if out.component == min_label:
                        assert row.stratum.is_semistable

    def test_coprime_degree_has_no_polystable_or_balanced_rows(self):
        table = build_table(3, 2, Genus(3))
        for row in table.rows:
            for key, out in row.entries:
                assert not out.strictly_polystable
                assert not isinstance(key, bool)

    def test_polystable_label_can_collect_several_strata(self):
        table = build_table(3, 0, Genus(2))
        (poly_label,) = [
            label for label, _ in table.bb_index if label.__class__.__name__ == "PolystableSum"
        ]
        reaching = set(table.bb_map()[poly_label])
        assert reaching == {
            parse_hn_type("1:1,2:-1"),
            parse_hn_type("2:1,1:-1"),
            parse_hn_type("1:1,1:0,1:-1"),
        }

    def test_deterministic(self):
        a = build_table(3, -1, Genus(3))
        b = build_table(3, -1, Genus(3))
        assert a == b


class TestEmittedLabels:
    def test_distinct_emitted_labels_have_distinct_texts(self):
        # Each table component and each enumerated fixed component, for
        # ranks 2 and 3, g 2..5 and |d| <= 6.  Within one (rank, degree,
        # genus) point a label's text names it: DOT node ids and the sort
        # key of bb_index are these texts.
        checked = 0
        for rank in (2, 3):
            for g in range(2, 6):
                genus = Genus(g)
                for d in range(-6, 7):
                    table = build_table(rank, d, genus)
                    labels = {label for label, _ in table.bb_index}
                    labels.update(fixed_points.enumerate_fixed_components(rank, d, genus))
                    texts = {format_label(label): label for label in labels}
                    assert len(texts) == len(labels), (rank, d, g)
                    checked += len(labels)
        assert checked > 1000

    def test_graded_degrees_have_one_entry_per_piece_and_sum_to_d(self):
        for rank in (2, 3):
            for g in range(2, 6):
                for d in range(-6, 7):
                    for row in build_table(rank, d, Genus(g)).rows:
                        for _, out in row.entries:
                            c = out.component
                            pieces = (
                                sum(map(len, c.summands))
                                if out.strictly_polystable
                                else len(c.ranks)
                            )
                            assert len(out.graded_degrees) == pieces, out
                            assert sum(out.graded_degrees) == d, out


class TestRank2Coincidence:
    @pytest.mark.parametrize("degree,g", [(1, 2), (0, 2), (3, 4)])
    def test_holds(self, degree, g):
        result = verification.criterion_rank2_coincidence(verification.Sweep((g,), (degree,)))
        assert result == (1, "rank2-coincidence", True, "1 tables bijective")


class TestHnBbTheorem:
    def test_genus2_degree0_instance(self):
        # Criterion 5 at this point also requires (2,0,-2), and only it,
        # to be verified, and (1,0,-1) to be in the table.
        result = verification.criterion_hn_bb_theorem(verification.Sweep((2,), (0,)))
        assert result == (5, "hn-bb-coincidence", True, "1 labels verified")
        table = build_table(3, 0, Genus(2))
        labels = {
            out.component
            for row in table.rows
            for _, out in row.entries
            if not out.strictly_polystable and out.component.ranks == (1, 1, 1)
        }
        assert HodgeBundle((1, 1, 1), (1, 0, -1)) in labels  # spread 2 = 2g-2: out of scope


class TestSerialization:
    def test_records_carry_the_frozen_fields(self):
        records = table_to_records(build_table(3, 0, Genus(2)))
        expected_keys = {
            "stratum",
            "invariant",
            "case",
            "component",
            "graded_degrees",
            "hnt_limit",
            "strictly_polystable",
            "feasible_set",
        }
        assert records
        assert all(set(r) == expected_keys for r in records)
        semistable = [r for r in records if r["case"] == "ss"]
        assert semistable == [
            {
                "stratum": "3:0",
                "invariant": None,
                "case": "ss",
                "component": "min",
                "graded_degrees": [0],
                "hnt_limit": "3:0",
                "strictly_polystable": False,
                "feasible_set": [],
            }
        ]

    def test_csv_header_and_quoting(self):
        text = table_to_csv(build_table(3, 0, Genus(2)))
        reader = csv.reader(io.StringIO(text))
        rows = list(reader)
        assert tuple(rows[0]) == CSV_HEADER
        assert all(len(row) == 5 for row in rows)
        # component labels contain commas and must survive CSV parsing
        components = {row[3] for row in rows[1:]}
        assert "t111:1,0,-1" in components
        aligned_values = {row[1] for row in rows[1:]}
        assert {"true", "false"} <= aligned_values

    def test_dot_shapes_and_structure(self):
        text = table_to_dot(build_table(3, 0, Genus(2)))
        assert text.startswith("digraph ")
        assert text.rstrip().endswith("}")
        assert text.count("{") == text.count("}")
        assert '"hn:3:0" [shape=box];' in text
        assert '"bb:min" [shape=ellipse];' in text
        assert '"hn:3:0" -> "bb:min";' in text

    def test_case_tags_sorted(self):
        assert table_case_tags(build_table(3, 0, Genus(2))) == [
            "1.2",
            "2.2",
            "3.1",
            "3.2",
            "ss",
        ]


def golden_incidence_points():
    """(rank, degree, genus) of every golden incidence file."""
    points = set()
    for path in GOLDEN.glob("incidence_r*_d*_g*.*"):
        rank, degree, genus = path.stem.split("_")[1:]
        points.add((int(rank[1:]), int(degree[1:]), int(genus[1:])))
    return sorted(points)


def reference_json(table):
    """json.dumps's text for the records, nested one level deep."""
    text = json.dumps(table_to_records(table), indent=2, sort_keys=True)
    return text.replace("\n", "\n  ")


def reference_csv(table):
    """table_to_csv's text from one csv.writer.writerow per entry."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in table.rows:
        for key, outcome in row.entries:
            if key is None:
                inv = ""
            elif isinstance(key, bool):
                inv = "true" if key else "false"
            else:
                inv = str(key)
            writer.writerow((
                format_hn_type(row.stratum.hn),
                inv,
                outcome.case_tag.value,
                format_label(outcome.component),
                format_hn_type(outcome.hnt_limit),
            ))
    return buf.getvalue()


class TestCsv:
    """The run writer gives a per-entry csv.writer's bytes."""

    @pytest.mark.parametrize("rank,degree,genus", golden_incidence_points())
    def test_golden_points(self, rank, degree, genus):
        table = build_table(rank, degree, Genus(genus))
        assert table_to_csv(table) == reference_csv(table)

    @pytest.mark.parametrize("rank", (2, 3))
    def test_small_grid(self, rank):
        quoted = 0
        for g in range(2, 7):
            for d in range(-6, 7):
                table = build_table(rank, d, Genus(g))
                text = table_to_csv(table)
                assert text == reference_csv(table)
                quoted += text.count('\n"')  # a line whose stratum holds a comma
        assert quoted > 0

    def test_comma_bearing_strata_and_labels_are_quoted(self):
        rank2 = table_to_csv(build_table(2, 0, Genus(2))).splitlines()
        assert '"1:1,1:-1",,rk2,r2:1,"1:1,1:-1"' in rank2
        rank3 = table_to_csv(build_table(3, 0, Genus(2))).splitlines()
        assert '"2:1,1:-1",0,2.2,"poly:[1,-1]+[0]","1:1,1:0,1:-1"' in rank3

    def test_empty_table(self):
        table = build_table(3, 0, Genus(2))
        empty = type(table)(table.rank, table.degree, table.genus, ())
        assert table_to_csv(empty) == reference_csv(empty) == ",".join(CSV_HEADER) + "\n"


class TestRecordsJson:
    """The fragment writer gives json.dumps's bytes for table_to_records."""

    @pytest.mark.parametrize("rank,degree,genus", golden_incidence_points())
    def test_golden_points(self, rank, degree, genus):
        table = build_table(rank, degree, Genus(genus))
        assert records_json(table) == reference_json(table)

    def test_golden_points_are_found(self):
        assert (3, 0, 3) in golden_incidence_points()
        assert len(golden_incidence_points()) >= 5

    @settings(max_examples=60, deadline=None)
    @given(
        rank=st.sampled_from((2, 3)),
        degree=st.integers(-10, 10),
        genus=st.integers(2, 10),
    )
    def test_drawn_points(self, rank, degree, genus):
        table = build_table(rank, degree, Genus(genus))
        assert records_json(table) == reference_json(table)

    def test_empty_table(self):
        table = build_table(3, 0, Genus(2))
        empty = type(table)(table.rank, table.degree, table.genus, ())
        assert records_json(empty) == json.dumps([], indent=2) == "[]"


class TestSharedOutcomes:
    def test_x1_entries_of_a_row_share_one_object(self):
        table = build_table(3, 0, Genus(10))
        shared_rows = 0
        for row in table.rows:
            tags = [outcome.case_tag for _, outcome in row.entries]
            x1 = [outcome for _, outcome in row.entries if outcome.case_tag in X1_TAGS]
            # x.1 values are the row's lowest: they come first, in one run.
            assert tags[: len(x1)] == [outcome.case_tag for outcome in x1]
            assert all(outcome is x1[0] for outcome in x1)
            shared_rows += len(x1) > 1
        assert shared_rows > 0

    def test_each_outcome_object_is_checked_once(self, monkeypatch):
        calls = {"validate": 0, "oracle": 0}
        validate = fixed_points.validate_component_label
        oracle = matrix_oracle.oracle_check

        def counting_validate(*args):
            calls["validate"] += 1
            return validate(*args)

        def counting_oracle(outcome):
            calls["oracle"] += 1
            return oracle(outcome)

        monkeypatch.setattr(fixed_points, "validate_component_label", counting_validate)
        monkeypatch.setattr(matrix_oracle, "oracle_check", counting_oracle)
        table = build_table(3, 0, Genus(10))
        outcomes = [outcome for row in table.rows for _, outcome in row.entries]
        distinct = len({id(outcome) for outcome in outcomes})
        assert calls == {"validate": distinct, "oracle": distinct}
        assert distinct < len(outcomes)

    @pytest.mark.parametrize("genus", [10, 30])
    def test_equal_outcomes_of_a_table_are_one_object(self, genus):
        # Case x.2/x.3 outcomes recur across rows; the table interns them.
        table = build_table(3, 0, Genus(genus))
        outcomes = [outcome for row in table.rows for _, outcome in row.entries]
        assert len({id(outcome) for outcome in outcomes}) == len(set(outcomes))

    def test_a_fault_in_a_shared_outcome_names_a_stratum_reaching_it(self, monkeypatch):
        table = build_table(3, 0, Genus(10))
        reaching: dict = {}  # outcome value -> HN types of the rows holding it
        for row in table.rows:
            for _, outcome in row.entries:
                reaching.setdefault(outcome, set()).add(row.stratum.hn)
        shared, strata = next((o, hns) for o, hns in reaching.items() if len(hns) > 1)
        oracle = matrix_oracle.oracle_check
        monkeypatch.setattr(
            matrix_oracle, "oracle_check", lambda outcome: outcome != shared and oracle(outcome)
        )
        with pytest.raises(AssertionError) as failure:
            build_table(3, 0, Genus(10))
        head, _, hn_text = str(failure.value).rpartition(" of stratum ")
        assert head == f"gauge-scaling check failed for case {shared.case_tag.value}"
        assert parse_hn_type(hn_text) in strata

    def test_build_table_hashes_no_enum_member_in_python(self, monkeypatch):
        # CaseTag and CaseFamily members hash by identity, in C.
        calls = []
        enum_hash = enum.Enum.__hash__

        def counting_hash(member):
            calls.append(member)
            return enum_hash(member)

        monkeypatch.setattr(enum.Enum, "__hash__", counting_hash)
        build_table(3, 0, Genus(10))
        assert calls == []

    def test_each_component_is_formatted_once_per_table(self, monkeypatch):
        # build_table formats no component.  One read of bb_index formats
        # each distinct component once, to sort it.  Each writer formats a
        # component at most once per distinct outcome object; table_to_dot
        # reads bb_index once and formats each of its labels once more,
        # for its node.
        calls = []
        format_component = incidence.format_label

        def counting(label):
            calls.append(label)
            return format_component(label)

        monkeypatch.setattr(incidence, "format_label", counting)
        table = build_table(3, 0, Genus(10))
        assert calls == []
        components = {outcome.component for row in table.rows for _, outcome in row.runs}
        outcomes = {id(outcome) for row in table.rows for _, outcome in row.runs}
        index = table.bb_index
        assert len(calls) == len(set(calls)) == len(components) == len(index) > 0
        for write, bound in (
            (records_json, len(outcomes)),
            (table_to_csv, len(outcomes)),
            (table_to_dot, len(components) + len(outcomes)),
        ):
            calls.clear()
            write(table)
            assert 0 < len(calls) <= bound, write.__name__

    def test_shared_outcomes_serialize_like_separate_ones(self):
        table = build_table(3, 1, Genus(6))
        rows = tuple(
            type(row)(row.stratum, tuple((values, copy(out)) for values, out in row.runs))
            for row in table.rows
        )
        unshared = type(table)(table.rank, table.degree, table.genus, rows)
        assert unshared == table
        assert table_to_csv(unshared) == table_to_csv(table)
        assert table_to_dot(unshared) == table_to_dot(table)
        assert records_json(unshared) == records_json(table)


def reference_bb_index(table):
    """Each component with the strata reaching it, in row order, from the
    entries alone, sorted by label text."""
    reaching: dict = {}
    for row in table.rows:
        for _, outcome in row.entries:
            strata = reaching.setdefault(outcome.component, [])
            if row.stratum.hn not in strata:
                strata.append(row.stratum.hn)
    return tuple((label, tuple(reaching[label])) for label in sorted(reaching, key=format_label))


GOLDEN_INCIDENCE_FILES = sorted(
    path.name for path in GOLDEN.glob("incidence_r*_d*_g*.*") if path.suffix != ".dot"
)


def golden_incidence_argv(name):
    rank, degree, genus = name.split(".")[0].split("_")[1:]
    return ["incidence", "--rank", rank[1:], "--degree", degree[1:], "--genus", genus[1:],
            "--format", name.rpartition(".")[2]]


class TestDerivedIndex:
    """bb_index is derived from the rows on each read; only DOT and
    verify read it."""

    @pytest.mark.parametrize("rank", (2, 3))
    def test_index_matches_a_reference_from_the_entries(self, rank):
        for g in range(2, 7):
            for degree in range(-6, 7):
                table = build_table(rank, degree, Genus(g))
                assert table.bb_index == reference_bb_index(table), (g, degree)
                assert table.bb_map() == dict(reference_bb_index(table))

    def test_a_stratum_is_listed_once_per_component(self):
        # No built row reaches a component from two runs; a row built by
        # hand whose runs repeat, as copies, still lists its stratum once.
        table = build_table(3, 1, Genus(6))
        rows = tuple(
            type(row)(row.stratum, row.runs + tuple((values, copy(out)) for values, out in row.runs))
            for row in table.rows
        )
        doubled = type(table)(table.rank, table.degree, table.genus, rows)
        assert doubled.bb_index == table.bb_index == reference_bb_index(doubled)

    def test_golden_files_cover_every_other_format(self):
        assert {name.rpartition(".")[2] for name in GOLDEN_INCIDENCE_FILES} == {"json", "csv", "table"}

    @pytest.mark.parametrize("name", GOLDEN_INCIDENCE_FILES)
    def test_other_formats_never_read_the_index(self, name, monkeypatch, capsys):
        def refuse(table):
            raise AssertionError("bb_index read")

        monkeypatch.setattr(incidence.IncidenceTable, "bb_index", property(refuse))
        assert cli.main(golden_incidence_argv(name)) == 0
        assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("rank,degree,genus", golden_incidence_points())
    def test_dot_reads_the_index_once(self, rank, degree, genus, monkeypatch, capsys):
        reads = []
        derive = incidence.IncidenceTable.bb_index.fget

        def counting(table):
            reads.append(table)
            return derive(table)

        monkeypatch.setattr(incidence.IncidenceTable, "bb_index", property(counting))
        name = f"incidence_r{rank}_d{degree}_g{genus}.dot"
        assert cli.main(golden_incidence_argv(name)) == 0
        assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()
        assert len(reads) == 1
