"""Fuzzed command lines: ``cli.main`` returns an exit status or exits
through argparse with status 2, and never raises anything else.

Values stay small (genus <= 8, |degree| <= 12) so that no draw starts a
long enumeration; every command runs in this process.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from higgsstrata import cli

small_degree = st.integers(-12, 12)

hn_text = st.one_of(
    st.text(max_size=20),
    st.lists(
        st.tuples(st.integers(0, 4), small_degree), min_size=1, max_size=4
    ).map(lambda steps: ",".join(f"{r}:{d}" for r, d in steps)),
)


def flag(name, values):
    """``[name, value]``, or in one draw of five nothing, so that required
    flags are sometimes missing."""
    present = st.sampled_from([True, True, True, True, False])
    return st.tuples(present, values).map(
        lambda drawn: [name, str(drawn[1])] if drawn[0] else []
    )


def command(name, *flags):
    return st.tuples(st.just([name]), *flags).map(lambda parts: sum(parts, []))


genus = flag("--genus", st.integers(-2, 8))
rank = flag("--rank", st.one_of(st.sampled_from([2, 3]), st.integers(0, 4)))
degree = flag("--degree", small_degree)
formats = st.sampled_from(["table", "json", "csv", "dot", "xml"])
fmt = flag("--format", formats)

argv = st.one_of(
    command("strata", genus, rank, degree, fmt),
    command("fixed", genus, rank, degree, fmt),
    command("incidence", genus, rank, degree, fmt),
    command(
        "limit",
        genus,
        degree,
        # Joined, argparse parses it; as two tokens, the plain path may read it.
        st.tuples(st.booleans(), hn_text).map(
            lambda drawn: ["--hn", drawn[1]] if drawn[0] else [f"--hn={drawn[1]}"]
        ),
        st.one_of(
            flag("--inv", small_degree),
            flag("--aligned", st.sampled_from(["true", "false", "no", "maybe"])),
            st.tuples(flag("--inv", small_degree), flag("--aligned", st.just("true"))).map(
                lambda both: both[0] + both[1]
            ),
        ),
        fmt,
    ),
    command("verify", fmt),
)


@settings(max_examples=200, deadline=None)
@given(argv)
def test_main_never_raises(args):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            assert exc.code == 2, (args, sink.getvalue())
            return
    assert isinstance(code, int), args
