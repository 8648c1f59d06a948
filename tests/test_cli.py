"""Command-line behaviour: the documented queries, formats and exit codes."""

import argparse
import gc
import json
import os
import subprocess
import sys
import types

import pytest

from higgsstrata import cli, incidence, matrix_oracle


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLimitCommand:
    def test_type111_outcome_as_json(self, capsys):
        code, out, _ = run_cli(
            ["limit", "--genus", "3", "--degree", "1", "--hn", "1:1,2:0",
             "--inv", "0", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        (result,) = doc["results"]
        assert result["case"] == "1.3"
        assert result["component"] == "t111:1,0,0"
        assert result["graded_degrees"] == [1, 0, 0]
        assert result["hnt_limit"] == "1:1,2:0"
        assert result["feasible_set"] == [-3, -2, -1, 0]
        assert doc["meta"]["genus"] == 3

    def test_out_of_bounds_slope_fails_with_error_kind(self, capsys):
        code, out, err = run_cli(
            ["limit", "--genus", "2", "--degree", "0", "--hn", "1:1,2:-1",
             "--inv", "0"],
            capsys,
        )
        assert code == 1
        assert "SlopeOutOfBounds" in err

    def test_aligned_flag_route(self, capsys):
        code, out, _ = run_cli(
            ["limit", "--genus", "2", "--hn", "1:1,1:0,1:-1",
             "--aligned", "false", "--format", "json"],
            capsys,
        )
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["case"] == "3.2"
        assert result["strictly_polystable"] is True

    def test_balanced_stratum_needs_aligned_not_inv(self, capsys):
        code, _, err = run_cli(
            ["limit", "--genus", "2", "--hn", "1:1,1:0,1:-1", "--inv", "0"],
            capsys,
        )
        assert code == 2
        assert "--aligned" in err

    def test_semistable_needs_no_invariant(self, capsys):
        code, out, _ = run_cli(
            ["limit", "--genus", "2", "--hn", "3:0", "--format", "json"], capsys
        )
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["case"] == "ss"
        assert result["component"] == "min"

    def test_record_is_the_incidence_record(self, capsys):
        # Both commands build their records with incidence.outcome_record.
        _, out, _ = run_cli(
            ["limit", "--genus", "3", "--hn", "1:1,2:0", "--inv", "0",
             "--format", "json"],
            capsys,
        )
        (record,) = json.loads(out)["results"]
        _, out, _ = run_cli(
            ["incidence", "--genus", "3", "--rank", "3", "--degree", "1",
             "--format", "json"],
            capsys,
        )
        assert record in json.loads(out)["results"]

    def test_degree_contradiction_rejected(self, capsys):
        code, _, err = run_cli(
            ["limit", "--genus", "2", "--degree", "5", "--hn", "3:0"], capsys
        )
        assert code == 2

    def test_outcome_is_checked_before_it_is_printed(self, capsys, monkeypatch):
        # limit puts its one outcome through the checks incidence runs on
        # every table entry, with the same message.
        monkeypatch.setattr(matrix_oracle, "oracle_check", lambda outcome: False)
        argv = ["limit", "--genus", "2", "--hn", "1:1,1:0,1:-1", "--aligned", "true"]
        with pytest.raises(
            AssertionError, match="gauge-scaling check failed for case 3.1 of stratum 1:1,1:0,1:-1"
        ):
            cli.main(argv)
        assert capsys.readouterr().out == ""


class TestStrataCommand:
    def test_five_rows_at_rank3_degree0_genus2(self, capsys):
        code, out, _ = run_cli(
            ["strata", "--genus", "2", "--rank", "3", "--degree", "0"], capsys
        )
        assert code == 0
        assert "5" in out.splitlines()[0]
        assert len(out.strip().splitlines()) == 6

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["strata", "--genus", "2", "--rank", "3", "--degree", "0",
             "--format", "json"],
            capsys,
        )
        doc = json.loads(out)
        assert len(doc["results"]) == 5
        assert doc["results"][0]["hn"] == "3:0"

    @staticmethod
    def reference(rank, degree, g, fmt):
        """The output as it was written from one record dict per stratum,
        with slope texts from the HN type's Fractions."""
        records = []
        for stratum in cli.enumerate_strata(rank, degree, cli.Genus(g)):
            record = {
                "hn": cli.format_hn_type(stratum.hn),
                "mu_vector": [str(mu) for mu in stratum.hn.mu_vector],
            }
            if rank == 3:
                record["case_family"] = stratum.case_family.value
                record["feasible_set"] = list(stratum.feasible_integers)
            records.append(record)
        if fmt == "json":
            doc = {
                "meta": {"genus": g},
                "query": {"command": "strata", "degree": degree, "genus": g, "rank": rank},
                "results": records,
            }
            return json.dumps(doc, indent=2, sort_keys=True) + "\n"
        lines = [f"admissible strata for rank {rank}, degree {degree}, genus {g}: {len(records)}"]
        for record in records:
            line = f"  {record['hn']:<16} mu=({', '.join(record['mu_vector'])})"
            if "case_family" in record:
                line += f"  family={record['case_family']}  feasible={record['feasible_set']}"
            lines.append(line)
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("rank", [2, 3])
    def test_output_matches_a_reference_from_record_dicts(self, rank, fmt):
        for g in range(2, 13):
            for degree in range(-7, 8):
                config = cli.RunConfig("strata", g, rank, degree, format=fmt)
                assert cli.run(config) == (0, self.reference(rank, degree, g, fmt)), (g, degree)

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_each_slope_text_is_written_once_a_query(self, fmt, monkeypatch):
        calls = []

        def counting(p, q):
            calls.append((p, q))
            return ratio(p, q)

        ratio = cli._ratio
        monkeypatch.setattr(cli, "_ratio", counting)
        for rank, degree, g in ((3, -5, 12), (3, 0, 4), (2, 1, 2), (2, -7, 9)):
            calls.clear()
            config = cli.RunConfig("strata", g, rank, degree, format=fmt)
            cli.run(config)
            values = {m for s in cli.enumerate_strata(rank, degree, cli.Genus(g)) for m in s.mu6_vector}
            assert sorted(calls) == sorted((m, 6) for m in values)

    def test_results_reach_the_envelope_writer_as_text(self, monkeypatch):
        documents = []

        def recording(value):
            documents.append(value)
            return to_json(value)

        to_json = incidence.to_json
        monkeypatch.setattr(incidence, "to_json", recording)
        for rank, degree, g in ((3, -5, 12), (2, 1, 2)):
            documents.clear()
            code, text = cli.run(cli.RunConfig("strata", g, rank, degree, format="json"))
            assert code == 0
            assert text == self.reference(rank, degree, g, "json")
            assert len(documents) == 1
            assert "results" not in documents[0]


class TestFixedCommand:
    def test_rank2_components(self, capsys):
        code, out, _ = run_cli(
            ["fixed", "--genus", "2", "--rank", "2", "--degree", "1",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        got = [r["component"] for r in json.loads(out)["results"]]
        assert got == ["min", "r2:1"]


class TestIncidenceCommand:
    def test_json_round_trips_byte_identically(self, capsys):
        code, out, _ = run_cli(
            ["incidence", "--genus", "2", "--rank", "3", "--degree", "0",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        reserialized = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert reserialized == out

    def test_two_runs_are_byte_identical(self, capsys):
        argv = ["incidence", "--genus", "3", "--rank", "3", "--degree", "1",
                "--format", "json"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first.encode() == second.encode()

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["incidence", "--genus", "2", "--rank", "3", "--degree", "0",
             "--format", "csv"],
            capsys,
        )
        assert out.splitlines()[0] == "stratum,invariant,case,component,hnt_limit"

    def test_dot_format(self, capsys):
        code, out, _ = run_cli(
            ["incidence", "--genus", "2", "--rank", "2", "--degree", "1",
             "--format", "dot"],
            capsys,
        )
        assert out.startswith("digraph ")
        assert '"bb:r2:1" [shape=ellipse];' in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = run_cli(
            ["incidence", "--genus", "2", "--rank", "3", "--degree", "0",
             "--format", "json", "--output", str(target)],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["meta"]["genus"] == 2


class TestVerifyCommand:
    def test_all_criteria_pass(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert sum(1 for line in lines if line.startswith("PASS")) == 9
        assert lines[-1] == "9/9 criteria passed"


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["strata", "--genus", "2", "--rank", "3"])
        assert exc.value.code == 2

    def test_bad_genus(self, capsys):
        code, _, err = run_cli(
            ["strata", "--genus", "1", "--rank", "3", "--degree", "0"], capsys
        )
        assert code == 2
        assert "genus" in err


class TestBadInput:
    """Bad input yields a named error and an exit code, never a traceback."""

    def test_malformed_hn_text_is_a_usage_error(self, capsys):
        code, out, err = run_cli(["limit", "--genus", "2", "--hn", "1:a"], capsys)
        assert code == 2
        assert out == ""
        assert err == "usage error: bad HN step '1:a', expected rank:degree\n"

    def test_increasing_slopes_are_an_invalid_hn_type(self, capsys):
        code, out, err = run_cli(["limit", "--genus", "2", "--hn", "1:0,1:1"], capsys)
        assert code == 1
        assert out == ""
        assert err == (
            "error: InvalidHNType: subquotient slopes must be strictly "
            "decreasing: ((1, 0), (1, 1))\n"
        )

    @pytest.mark.parametrize("hn,rank", [("1:0", 1), ("2:1,2:0", 4)])
    def test_unsupported_rank_is_a_domain_error(self, hn, rank, capsys):
        code, out, err = run_cli(["limit", "--genus", "2", "--hn", hn], capsys)
        assert code == 1
        assert out == ""
        assert err == (
            f"error: RankUnsupported: only ranks 2 and 3 are supported, got {rank}\n"
        )

    def test_unwritable_output_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code, out, err = run_cli(
            ["strata", "--genus", "2", "--rank", "3", "--degree", "0",
             "--output", str(target)],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.exists()


class TestSharedParser:
    """``main`` builds argparse's parser at most once per process, for the
    first command line that the plain reader refuses, and reusing it
    changes no call's exit status, output or error text."""

    @staticmethod
    def outcome(argv, capsys):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_import_builds_no_parser(self):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import higgsstrata.cli\n"
            "assert not built, built\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", script], check=True, env=env)

    def test_one_parser_across_calls(self, capsys, monkeypatch):
        # A plain command line builds no parser, even one that run()
        # refuses (genus 1); the command lines argparse parses share one.
        cli.build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in (
            ["strata", "--genus", "2", "--rank", "3", "--degree", "0"],
            ["limit", "--genus", "2", "--hn", "3:0"],
            ["fixed", "--genus", "2", "--rank", "2", "--degree", "1"],
            ["strata", "--genus", "1", "--rank", "3", "--degree", "0"],
        ):
            self.outcome(argv, capsys)
        assert built == []
        self.outcome(["strata", "--genus=2", "--rank", "3", "--degree", "0"], capsys)
        one_build = len(built)
        assert one_build > 0
        for argv in (
            ["limit", "--genus", "2", "--hn", "3:0", "--inv", "0", "--aligned", "true"],
            ["fixed", "--genus", "2", "--rank", "4", "--degree", "1"],
            ["--help"],
        ):
            self.outcome(argv, capsys)
        assert len(built) == one_build

    def test_reused_parser_matches_a_fresh_one(self, capsys):
        sequence = [
            ["limit", "--genus", "2", "--hn", "1:1,1:0,1:-1", "--aligned", "false"],
            ["limit", "--genus", "3", "--hn", "1:1,2:0", "--inv", "0", "--format", "json"],
            ["strata", "--genus", "2", "--rank", "3", "--degree", "0"],
            ["limit", "--genus", "2", "--hn", "1:1,1:0,1:-1", "--inv", "0"],
            ["limit", "--genus", "2", "--hn", "3:0", "--inv", "0", "--aligned", "true"],
            ["limit", "--genus", "2", "--hn", "1:1,1:0,1:-1", "--aligned", "true"],
        ]
        cli.build_parser.cache_clear()
        shared = [self.outcome(argv, capsys) for argv in sequence]
        fresh = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            fresh.append(self.outcome(argv, capsys))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 2, 2, 0]
        assert shared[4][2].endswith(
            "error: argument --aligned: not allowed with argument --inv\n"
        )


def run_without_site(script, *args):
    """Run ``script`` in a fresh interpreter without site, which loads
    only what the script asks for; returns its stdout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-S", "-c", script, *args], capture_output=True, text=True,
        env=env, check=True,
    ).stdout


def test_imports_load_no_module_that_not_every_command_uses():
    # No command uses dataclasses, inspect or typing, nor the JSON decoder;
    # only incidence --format csv uses csv, only verify runs the suite, and
    # only a command line that the plain reader refuses uses argparse and
    # its gettext.  The package itself parses no argv.
    unused = {"dataclasses", "inspect", "typing", "argparse", "gettext"}
    imports = {
        "higgsstrata.cli": unused | {"json", "json.decoder", "csv", "higgsstrata.verification"},
        "higgsstrata": unused,
    }
    for module, absent in imports.items():
        script = (
            "import sys\n"
            f"import {module}\n"
            f"print(sorted({sorted(absent)!r} & sys.modules.keys()))\n"
        )
        assert run_without_site(script) == "[]\n", module


def test_plain_command_lines_load_no_argparse():
    # One golden command line of each command, then a joined flag, which
    # only argparse reads.
    from test_golden import GOLDEN, GOLDEN_RUNS

    runs = {}
    for argv, name in GOLDEN_RUNS:
        runs.setdefault(argv[0], (argv, str(GOLDEN / name)))
    assert sorted(runs) == sorted(cli._COMMANDS)
    refused = (["strata", "--genus=4", "--rank", "3", "--degree", "0"],
               str(GOLDEN / "strata_r3_d0_g4.table"))
    script = (
        "import io, json, sys\n"
        "import higgsstrata.cli as cli\n"
        "for argv, path in json.loads(sys.argv[1]):\n"
        "    sys.stdout = io.StringIO()\n"
        "    code = cli.main(argv)\n"
        "    out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__\n"
        "    assert code == 0, argv\n"
        "    with open(path, 'rb') as handle:\n"
        "        assert out.encode('utf-8') == handle.read(), argv\n"
        "    print(argv[0], sorted({'argparse', 'gettext'} & sys.modules.keys()))\n"
    )
    lines = run_without_site(script, json.dumps([*runs.values(), refused])).splitlines()
    assert lines == [f"{command} []" for command in runs] + ["strata ['argparse', 'gettext']"]


def test_console_script_takes_the_plain_path():
    # The console script calls main() with no argv, so it reads sys.argv.
    from test_golden import GOLDEN, LIMIT_CASES

    script = (
        "import io, sys\n"
        "import higgsstrata.cli as cli\n"
        "path, sys.argv = sys.argv[1], ['higgsstrata', *sys.argv[2:]]\n"
        "sys.stdout = io.StringIO()\n"
        "code = cli.main()\n"
        "out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__\n"
        "with open(path, 'rb') as handle:\n"
        "    assert out.encode('utf-8') == handle.read()\n"
        "print(code, 'argparse' in sys.modules)\n"
    )
    golden = str(GOLDEN / "limit" / "1.1.table")
    assert run_without_site(script, golden, "limit", *LIMIT_CASES["1.1"]) == "0 False\n"


@pytest.fixture
def collector():
    """Restores the cyclic collector's state and debug flags after a test
    that changes them."""
    enabled, debug = gc.isenabled(), gc.get_debug()
    yield
    gc.set_debug(debug)
    gc.garbage.clear()
    (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    """``main`` pauses the cyclic garbage collector for the whole command.
    That is safe because no command path leaves cyclic garbage: what a
    command drops, reference counting frees."""

    @staticmethod
    def outcome(argv, capsys):
        return TestSharedParser.outcome(argv, capsys)[0]

    REFUSALS = [
        # limit: in the gap of the feasible set, then a slope out of bounds.
        (["limit", "--genus", "2", "--hn", "1:0,2:-2", "--inv", "5"], 1),
        (["limit", "--genus", "2", "--degree", "0", "--hn", "1:1,2:-1", "--inv", "0"], 1),
        # A usage error, and an --output into a missing directory.
        (["limit", "--genus", "2", "--hn", "1:1,1:0,1:-1", "--inv", "0"], 2),
        (["strata", "--genus", "2", "--rank", "3", "--degree", "0",
          "--output", "{tmp}/missing/x"], 1),
    ]

    def test_no_command_path_leaves_cyclic_garbage(self, capsys, tmp_path, collector):
        from test_golden import GOLDEN_RUNS

        self.outcome(["strata", "--genus", "2", "--rank", "3", "--degree", "0"], capsys)
        gc.disable()
        gc.collect()  # what earlier calls and tests left
        runs = [(argv, 0) for argv, _ in GOLDEN_RUNS] + [
            ([arg.format(tmp=tmp_path) for arg in argv], code) for argv, code in self.REFUSALS
        ]
        for argv, code in runs:
            assert self.outcome(argv, capsys) == code, argv
            assert gc.collect() == 0, argv

    def test_lazy_imports_leave_no_cyclic_garbage(self):
        # In a fresh process, csv and verification are first imported
        # inside main, with the collector paused.  What the import of the
        # CLI left is collected first.
        golden = os.path.join(os.path.dirname(__file__), "golden")
        script = (
            "import gc, io, sys\n"
            "import higgsstrata.cli as cli\n"
            "gc.disable()\n"
            "gc.collect()\n"
            "runs = [\n"
            "    (['incidence', '--genus', '3', '--rank', '3', '--degree', '0', '--format', 'csv'],\n"
            "     'incidence_r3_d0_g3.csv', 'csv'),\n"
            "    (['verify', '--format', 'json'], 'verify.json', 'higgsstrata.verification'),\n"
            "]\n"
            "for argv, name, module in runs:\n"
            "    assert module not in sys.modules, module\n"
            "    sys.stdout = io.StringIO()\n"
            "    code = cli.main(argv)\n"
            "    out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__\n"
            "    assert code == 0, argv\n"
            "    with open(f'{sys.argv[1]}/{name}', 'rb') as handle:\n"
            "        assert out.encode('utf-8') == handle.read(), name\n"
            "    assert gc.collect() == 0, argv\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-S", "-c", script, golden], check=True, env=env)

    def test_an_argparse_error_leaves_only_argparse_formatter_cycles(self, capsys, collector):
        # argparse's HelpFormatter refers to itself through its sections;
        # each usage or help text leaves one such cycle.  The error ends a
        # console-script process, and in a longer-lived caller the
        # collector, re-enabled on the way out, frees it.
        self.outcome(["strata", "--genus", "2", "--rank", "3", "--degree", "0"], capsys)
        gc.disable()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        for argv in (["strata", "--genus", "2", "--rank", "3"], ["strata", "--bogus"], ["--help"]):
            self.outcome(argv, capsys)
            gc.collect()
            kinds = {type(obj) for obj in gc.garbage}
            assert argparse.HelpFormatter in kinds, argv
            assert kinds <= {
                argparse.HelpFormatter, argparse.HelpFormatter._Section,
                list, tuple, dict, types.MethodType,
            }, argv
            gc.garbage.clear()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("argv,code", [
        (["strata", "--genus", "2", "--rank", "3", "--degree", "0"], 0),
        (["limit", "--genus", "2", "--hn", "1:0,2:-2", "--inv", "5"], 1),
        (["strata", "--genus", "1", "--rank", "3", "--degree", "0"], 2),
        (["--help"], 0),
        (["strata", "--bogus"], 2),
    ], ids=["exit0", "exit1", "exit2", "help", "bad-flag"])
    def test_main_leaves_the_collector_as_it_found_it(self, enabled, argv, code, capsys, collector):
        (gc.enable if enabled else gc.disable)()
        assert self.outcome(argv, capsys) == code
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_an_escaping_exception_restores_the_collector(self, enabled, monkeypatch, collector):
        def failing(stratum, outcome):
            raise AssertionError("check failed")

        monkeypatch.setattr(incidence, "check_outcome", failing)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(AssertionError, match="check failed"):
            cli.main(["limit", "--genus", "2", "--hn", "3:0"])
        assert gc.isenabled() is enabled

    def test_no_collection_runs_while_a_table_is_built(self, capsys, collector):
        starts = []

        def hook(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.enable()
        gc.callbacks.append(hook)
        try:
            code = cli.main(["incidence", "--rank", "3", "--degree", "0", "--genus", "12",
                             "--format", "csv"])
        finally:
            gc.callbacks.remove(hook)
        assert code == 0
        assert capsys.readouterr().out.startswith("stratum,invariant,case,component,hnt_limit\n")
        assert starts == []
