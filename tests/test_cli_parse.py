"""``cli.parse_args`` against the full parse it short-cuts.

``parse_args`` has two paths.  When argv[0] names a subcommand and the
rest is plain ``--flag value`` pairs, it reads them against that
subcommand's own argparse actions; any other argv takes the full parse,
``build_parser().parse_args``.  Over the benchmark's cli-mix command lines
and over mutations of them, its namespace, exit status, stdout and stderr
must equal those of the full parse.
"""

import argparse
import contextlib
import functools
import importlib
import io
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsstrata import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@functools.cache
def mix_argvs() -> list[list[str]]:
    """The cli-mix command lines of seeds 0 and 1."""
    sys.path.insert(0, str(PERFBENCH))  # workloads imports its neighbours by bare name
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    return [argv for seed in (0, 1) for argv in workloads.mix_queries(seed)]


def _parsed(parse, argv):
    """(namespace or exit status, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = f"exit {exc.code}"
    return result, out.getvalue(), err.getvalue()


def assert_same_parse(argv):
    direct = _parsed(cli.parse_args, argv)
    full = _parsed(lambda a: cli.build_parser().parse_args(a), argv)
    assert direct == full, argv


def test_cli_mix_argvs_parse_as_the_full_parser_does():
    assert len(mix_argvs()) == 2200
    for argv in mix_argvs():
        assert_same_parse(argv)
        assert cli.parse_args(argv).command == argv[0]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--help"],
        ["fixed", "-h"],
        ["verify"],
        ["verify", "--genus", "3"],
        ["fixed", "--genus", "2", "--rank", "3", "--degree", "1", "extra"],
        ["fixed", "--genus", "2", "--rank", "3", "--degree", "1", "--", "extra"],
        ["limit", "--gen", "2", "--hn=1:0,2:-2", "--inv", "-2"],
        ["limit", "--ge", "2", "--hn", "1:0,2:-2", "--aligned", "yes", "--inv", "0"],
        ["strata", "--genus", "2", "--rank", "4", "--degree", "0"],
        ["fix", "--genus", "2"],
        ["--genus", "2", "fixed"],
        ("fixed", "--genus", "2", "--rank", "2", "--degree", "1"),
        ["limit", "--genus", "2", "--hn", "1:0,2:-2", "--inv", "1", "--inv", "2"],
        ["limit", "--genus", "2", "--hn", "1:1,1:0,1:-1", "--inv", "1", "--aligned", "true"],
        ["strata", "--genus", "2", "--rank", "3", "--degree", "0", "--format", "xml"],
        ["limit", "--genus", "2", "--hn", "-1:0"],
        ["verify", "--format"],
        # Shapes the plain path refuses: a joined flag, an abbreviated
        # flag, a trailing end-of-options marker, help after valid flags.
        ["fixed", "--genus=2", "--rank", "3", "--degree", "1"],
        ["incidence", "--genus", "2", "--rank", "3", "--degree", "0", "--form", "csv"],
        ["fixed", "--genus", "2", "--rank", "3", "--degree", "1", "--"],
        ["limit", "--genus", "2", "--hn", "1:0,2:-2", "--inv", "-2", "-h"],
    ],
)
def test_edge_argvs_parse_as_the_full_parser_does(argv):
    assert_same_parse(argv)


def test_cli_mix_argvs_never_reach_argparse(monkeypatch):
    """Every cli-mix command line is plain ``--flag value`` pairs, read
    from the subcommand's actions without an argparse parse."""
    full = [cli.build_parser().parse_args(argv) for argv in mix_argvs()]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a plain command line")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert [cli.parse_args(argv) for argv in mix_argvs()] == full


def test_no_argv_reads_sys_argv(monkeypatch):
    for argv in (["prog", "fixed", "--genus", "2", "--rank", "3", "--degree", "0"], ["prog"]):
        monkeypatch.setattr(sys, "argv", argv)
        assert_same_parse(None)


# Tokens a mutation inserts: help, the end-of-options marker, abbreviated
# and joined flags, flags of other subcommands, values and stray words, and
# values near the plain path's edge: dashed words and non-ASCII digits.
TOKENS = [
    "-h", "--help", "--", "--gen", "--ge", "--g", "--genus=3", "--hn=1:0,2:-2",
    "--rank", "--degree", "--deg", "--inv", "--aligned", "--format", "--output",
    "json", "csv", "3", "-2", "0", "1:1,2:0", "true", "extra", "fixed", "verify", "",
    "-1:0", "-1.5", "-²", "-x", "-", "٣", " -3", "1e3", "--inv=-2", "-0",
]


@st.composite
def mutated_argv(draw):
    argv = list(draw(st.sampled_from(mix_argvs())))
    for _ in range(draw(st.integers(1, 3))):
        if argv and draw(st.booleans()):
            start = draw(st.integers(0, len(argv) - 1))
            del argv[start:start + draw(st.integers(1, 2))]  # a flag, or a flag and its value
        else:
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(TOKENS)))
    return argv


@settings(max_examples=400, deadline=None)
@given(mutated_argv())
def test_mutated_argvs_parse_as_the_full_parser_does(argv):
    assert_same_parse(argv)
