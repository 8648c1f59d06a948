"""Byte-for-byte comparison of CLI output with committed golden files.

The files under tests/golden/ hold the exact output of ``cli.run`` for
a fixed set of queries.  An intended output change replaces the golden
file in the same change and is recorded in CHANGES.md.
"""

from pathlib import Path

import pytest

from higgsstrata import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("incidence", rank, degree, genus, fmt)
    for rank, degree, genus in ((3, 0, 2), (3, 1, 3), (3, 2, 5), (2, 1, 2))
    for fmt in ("json", "csv", "dot")
] + [("strata", 3, 0, 4, "json"), ("fixed", 3, 0, 4, "json")]


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
