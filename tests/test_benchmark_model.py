"""The package against the benchmark's independent model and digests.

``perfbench/model.py`` is an exact model of the slope rules written
without any code of the package; ``perfbench/expected.json`` holds the
digests of the benchmark's outputs.  Both are imported or read from
``perfbench/`` as they are, never copied, so the package cannot move
with them.
"""

import contextlib
import hashlib
import importlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from higgsstrata import (
    ClassificationError,
    ClassifierInput,
    Genus,
    classify,
    classify_stratum,
    cli,
    core,
    enumerate_fixed_components,
    enumerate_strata,
    feasible_inputs,
    format_label,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(name: str):
    """A module of perfbench/, which imports its neighbours by bare name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


model = _perfbench("model")
workloads = _perfbench("workloads")

GENERA, DEGREES = range(2, 9), range(-8, 9)


def _verdict(stratum, invariant) -> tuple[bool, str]:
    """(True, case tag) or (False, refusal kind), as the model states it."""
    try:
        outcome = classify(ClassifierInput(stratum, invariant))
    except ClassificationError as exc:
        return False, type(exc).__name__
    return True, outcome.case_tag.value


@pytest.mark.parametrize("rank", (2, 3), ids=["r2", "r3"])
@pytest.mark.parametrize("genus", GENERA, ids=[f"g{g}" for g in GENERA])
def test_strata_feasible_sets_and_cases_match_the_model(rank, genus):
    for degree in DEGREES:
        strata = enumerate_strata(rank, degree, Genus(genus))
        assert sorted(s.hn.steps for s in strata) == sorted(model.strata(rank, degree, genus))
        for stratum in strata:
            check_stratum(stratum, genus)


def check_stratum(stratum, genus: int) -> None:
    steps = stratum.hn.steps
    where = f"{model.hn_text(steps)} at g={genus}"
    assert feasible_inputs(stratum) == model.feasible(steps, genus), where
    for values, outcome in classify_stratum(stratum, {}):
        for invariant in values:
            want = model.predict_limit(steps, genus, invariant)
            assert (True, outcome.case_tag.value) == want, f"{where}, {invariant}"
    if model.family(steps) == "3":
        for flag in (True, False):
            assert _verdict(stratum, flag) == model.predict_limit(steps, genus, flag), where
    elif model.family(steps) in ("1", "2"):
        # Every gap integer, and 3 integers beyond each end of the
        # window: refused, and by the model's kind.
        low, _, _, gap_high = model.slope_window(steps, genus)
        outside = [*range(math.ceil(low) - 3, math.ceil(low))]
        outside += range(math.floor(gap_high) + 1, math.floor(gap_high) + 4)
        for v in model.gap_integers(steps, genus) + outside:
            want = model.predict_limit(steps, genus, v)
            assert not want[0], f"{where}, {v}"
            assert _verdict(stratum, v) == want, f"{where}, {v}"


@pytest.mark.parametrize("genus", GENERA, ids=[f"g{g}" for g in GENERA])
def test_rank3_fixed_labels_match_the_model(genus):
    for degree in DEGREES:
        labels = enumerate_fixed_components(3, degree, Genus(genus))
        assert tuple(map(format_label, labels)) == model.fixed_labels(degree, genus), degree


def _run_lengths(degree: int, genus: int) -> int:
    """The summed lengths of the runs of every row of a rank-3 table."""
    interned: dict = {}  # one dict for the table, as build_table passes
    return sum(
        len(values)
        for stratum in enumerate_strata(3, degree, Genus(genus))
        for values, _ in classify_stratum(stratum, interned)
    )


@pytest.mark.parametrize("genus", GENERA, ids=[f"g{g}" for g in GENERA])
def test_run_lengths_sum_to_the_model_entries(genus):
    for degree in DEGREES:
        assert _run_lengths(degree, genus) == model.entries(3, degree, genus), degree


def test_incidence_wide_run_lengths_sum_to_the_model_entries():
    # The benchmark's entries_per_s counts model.entries per table.
    for argv in workloads.incidence_queries():
        degree, genus = int(argv[argv.index("--degree") + 1]), int(argv[argv.index("--genus") + 1])
        assert _run_lengths(degree, genus) == model.entries(3, degree, genus), argv


def _run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("rank", (2, 3), ids=["r2", "r3"])
def test_strata_slope_texts_match_the_model(rank):
    # strata --format json writes each slope as str of the model's Fraction.
    for genus in GENERA:
        for degree in DEGREES:
            argv = ["strata", "--genus", str(genus), "--rank", str(rank), "--degree", str(degree)]
            code, out, err = _run([*argv, "--format", "json"])
            assert (code, err) == (0, ""), argv
            got = {r["hn"]: r["mu_vector"] for r in json.loads(out)["results"]}
            want = {
                model.hn_text(steps): [str(m) for m in model.mu_vector(steps)]
                for steps in model.strata(rank, degree, genus)
            }
            assert got == want, argv


def _digest(argv: list[str]) -> str:
    """sha256 of "code NUL stdout NUL stderr" of one in-process CLI run,
    as the benchmark's worker records it."""
    text = "\0".join(map(str, _run(argv)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_incidence_wide_outputs_match_the_benchmark_digests():
    # The six g = 30 and g = 20 tables of the benchmark's incidence-wide
    # workload, byte for byte, in about a second.
    expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
    queries = workloads.incidence_queries()
    assert len(queries) == 6
    for argv in queries:
        assert _digest(argv) == expected["incidence-wide"][" ".join(argv)], " ".join(argv)


def test_every_traced_layer_resolves_in_the_package():
    # perfbench/layers.py's Tracer.install looks up every (module, name) of
    # TRACED and wraps the HNType.mu_vector property, whose calls run.py's
    # MUST_CALL requires.  So invariant_range and polygon_of stay, though
    # nothing in the package calls them, and so does HNType.mu_vector,
    # while the benchmark names them.
    layers = _perfbench("layers")
    for module, name in layers.TRACED:
        assert callable(getattr(importlib.import_module(f"higgsstrata.{module}"), name, None)), name
    assert "mu_vector" in core.HNType.__dict__
