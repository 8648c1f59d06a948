"""Byte-for-byte comparison of CLI output with committed golden files.

The files under tests/golden/ hold the exact output of ``cli.run`` or
``cli.main`` for a fixed set of queries.  An intended output change
replaces the golden file in the same change and is recorded in
CHANGES.md.

``GOLDEN_RUNS`` pairs every golden file of a command's output with the
console-script argv that writes it, and ``ARGPARSE_RUNS`` does the same
for help texts and usage errors, which argparse writes.  Run as a
script, this file prints one line per pair: the exit status, the file's
path from the repository root, then the argv, for the CI step that
compares each installed ``higgsstrata`` run with its file.
"""

import sys
from pathlib import Path

import pytest

from higgsstrata import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("incidence", rank, degree, genus, fmt)
    for rank, degree, genus in ((3, 0, 2), (3, 0, 3), (3, 1, 3), (3, 2, 5), (2, 1, 2))
    for fmt in ("json", "csv", "dot")
] + [
    ("strata", 3, 0, 4, "json"),
    ("strata", 2, 1, 2, "json"),
    ("strata", 3, -5, 12, "json"),
    ("fixed", 3, 0, 4, "json"),
    ("fixed", 3, 1, 5, "json"),
]


@pytest.mark.parametrize(
    "command,rank,degree,genus,fmt",
    CASES,
    ids=[f"{c}_r{r}_d{d}_g{g}.{f}" for c, r, d, g, f in CASES],
)
def test_output_matches_golden_file(command, rank, degree, genus, fmt):
    config = cli.RunConfig(
        command=command, genus=genus, rank=rank, degree=degree, format=fmt
    )
    code, text = cli.run(config)
    assert code == 0
    expected = (GOLDEN / f"{command}_r{rank}_d{degree}_g{genus}.{fmt}").read_bytes()
    assert text.encode("utf-8") == expected


def test_verify_output_matches_golden_file():
    code, text = cli.run(cli.RunConfig(command="verify", genus=2, format="json"))
    assert code == 0
    assert text.encode("utf-8") == (GOLDEN / "verify.json").read_bytes()


def test_verify_config_needs_no_genus():
    # verify takes no --genus, so its RunConfig gives none.
    code, text = cli.run(cli.RunConfig(command="verify", format="json"))
    assert code == 0
    assert text.encode("utf-8") == (GOLDEN / "verify.json").read_bytes()


def test_verify_table_output_matches_golden_file(capsys):
    assert cli.main(["verify"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "verify.table").read_bytes()


TABLE_CASES = [
    ("strata", 3, 0, 4),
    ("strata", 2, 1, 2),
    ("strata", 3, -5, 12),
    ("fixed", 3, 0, 4),
    ("fixed", 2, 1, 2),
    ("fixed", 3, -2, 7),
    ("incidence", 3, 0, 3),
    ("incidence", 3, 1, 3),
    ("incidence", 3, 2, 5),
    ("incidence", 2, 1, 2),
]


@pytest.mark.parametrize(
    "command,rank,degree,genus",
    TABLE_CASES,
    ids=[f"{c}_r{r}_d{d}_g{g}.table" for c, r, d, g in TABLE_CASES],
)
def test_table_output_matches_golden_file(command, rank, degree, genus, capsys):
    argv = [command, "--rank", str(rank), "--degree", str(degree),
            "--genus", str(genus), "--format", "table"]
    assert cli.main(argv) == 0
    expected = (GOLDEN / f"{command}_r{rank}_d{degree}_g{genus}.table").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


# One datum per case tag; tests/golden/limit/<tag>.<format> holds its output.
LIMIT_CASES = {
    "1.1": ["--genus", "2", "--hn", "1:0,2:-2", "--inv", "-2"],
    "1.2": ["--genus", "2", "--degree", "0", "--hn", "1:1,2:-1", "--inv", "-1"],
    "1.3": ["--genus", "2", "--hn", "1:0,2:-2", "--inv", "-1"],
    "1.4": ["--genus", "2", "--hn", "1:1,1:-1,1:-2", "--inv", "-1"],
    "2.1": ["--genus", "2", "--hn", "2:-1,1:-1", "--inv", "-2"],
    "2.2": ["--genus", "2", "--degree", "0", "--hn", "2:1,1:-1", "--inv", "0"],
    "2.3": ["--genus", "2", "--hn", "2:0,1:-2", "--inv", "0"],
    "2.4": ["--genus", "2", "--hn", "1:1,1:0,1:-2", "--inv", "1"],
    "3.1": ["--genus", "2", "--hn", "1:1,1:0,1:-1", "--aligned", "true"],
    "3.2": ["--genus", "2", "--hn", "1:1,1:0,1:-1", "--aligned", "false"],
    "rk2": ["--genus", "2", "--hn", "1:0,1:-2"],
    "ss": ["--genus", "2", "--degree", "-2", "--hn", "3:-2"],
}


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("tag", sorted(LIMIT_CASES))
def test_limit_output_matches_golden_file(tag, fmt, capsys):
    assert cli.main(["limit", *LIMIT_CASES[tag], "--format", fmt]) == 0
    expected = (GOLDEN / "limit" / f"{tag}.{fmt}").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


def _flags(rank, degree, genus, fmt):
    return ["--rank", str(rank), "--degree", str(degree), "--genus", str(genus), "--format", fmt]


GOLDEN_RUNS = (
    [([c, *_flags(r, d, g, f)], f"{c}_r{r}_d{d}_g{g}.{f}") for c, r, d, g, f in CASES]
    + [([c, *_flags(r, d, g, "table")], f"{c}_r{r}_d{d}_g{g}.table") for c, r, d, g in TABLE_CASES]
    + [(["verify", "--format", fmt], f"verify.{fmt}") for fmt in ("json", "table")]
    + [
        (["limit", *argv, "--format", fmt], f"limit/{tag}.{fmt}")
        for tag, argv in sorted(LIMIT_CASES.items())
        for fmt in ("table", "json")
    ]
)


# Help texts and usage errors: argv, golden file, exit status.  A file
# of a status-0 run holds stdout, one of a status-2 run stderr.  argparse
# words and wraps these texts itself, and the bytes vary with the Python
# version (3.13 wraps a usage line's exclusive group elsewhere), so the
# files hold what Python 3.10 and 3.11 print at 80 columns, and only
# those versions compare them.
ARGPARSE_PYTHONS = ((3, 10), (3, 11))
LIMIT_111 = ["limit", "--genus", "2", "--hn", "1:1,1:0,1:-1"]
ARGPARSE_RUNS = [
    (["-h"], "argparse/help.stdout", 0),
    *(
        ([command, "-h"], f"argparse/{command}_help.stdout", 0)
        for command in ("strata", "fixed", "limit", "incidence", "verify")
    ),
    (["strata", "--rank", "3", "--degree", "0"], "argparse/missing_genus.stderr", 2),
    (["strata", "--genus", "2", "--rank", "3", "--degree", "0", "--format", "xml"],
     "argparse/format_xml.stderr", 2),
    ([*LIMIT_111, "--inv", "1", "--aligned", "true"], "argparse/inv_and_aligned.stderr", 2),
    ([*LIMIT_111, "--aligned", "maybe"], "argparse/aligned_maybe.stderr", 2),
    (["fix", "--genus", "2"], "argparse/unknown_command.stderr", 2),
]


@pytest.mark.skipif(
    sys.version_info[:2] not in ARGPARSE_PYTHONS,
    reason="the files hold argparse's bytes as Python 3.10 and 3.11 print them",
)
@pytest.mark.parametrize("argv,name,code", ARGPARSE_RUNS, ids=[n for _, n, _ in ARGPARSE_RUNS])
def test_argparse_output_matches_golden_file(argv, name, code, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    assert exited.value.code == code
    out, err = capsys.readouterr()
    written, silent = (err, out) if code else (out, err)
    assert written.encode("utf-8") == (GOLDEN / name).read_bytes()
    assert silent == ""


def test_golden_runs_cover_every_golden_file_and_write_it(capsys):
    files = sorted(p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*") if p.is_file())
    names = [name for _, name in GOLDEN_RUNS] + [name for _, name, _ in ARGPARSE_RUNS]
    assert sorted(names) == files
    for argv, name in GOLDEN_RUNS:
        assert cli.main(argv) == 0, name
        assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    runs = [(argv, name, 0) for argv, name in GOLDEN_RUNS]
    if sys.version_info[:2] in ARGPARSE_PYTHONS:
        runs += ARGPARSE_RUNS
    for argv, name, code in runs:
        print(code, f"tests/golden/{name}", *argv)
