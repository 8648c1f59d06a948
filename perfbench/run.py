"""The higgsstrata benchmark.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process with one thread drives a closed loop: each pass
sends the workload's query list through ``higgsstrata.cli.main(argv)``
in a fresh worker interpreter (``worker.py``), one query after another,
and passes repeat until ``--seconds`` have elapsed.  Every output is
checked (``workloads.py``).  ``setup_s`` is the median import time of
``higgsstrata.cli`` over the run's fresh interpreters.  All times are
seconds at a reference CPU speed (see REF_LOOP_S).

With ``--trace 0`` the last stdout line reports the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics
of a traced run (``layers.py``), which also runs one untraced pass to
report the tracing overhead.  A summary with sample counts goes to
stderr.  The exit status is nonzero, with no result line, when the
program cannot be run or the tracing self-check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 150
# Time of worker.ref_loop, rounded, on the host the baseline was measured
# on (2-vCPU Intel Xeon at 2.1 GHz, Python 3.11.7).  Reported times are
# seconds at that reference speed: measured time x REF_LOOP_S / the
# loop's time measured alongside.  Raw seconds go to stderr.
REF_LOOP_S = 80e-6
# A query's speed is the median loop time over the samples taken while it
# ran, widened to at least this many (about 0.1 s) around it.
SPEED_WINDOW = 20

# Layers each workload must call when traced (the layer-to-metric
# predictions of baseline.json say these workloads exercise them).
MUST_CALL = {
    "incidence-wide": (
        "cli.main", "cli.run", "limit_classifier.classify", "matrix_oracle.oracle_check",
        "core.HNType.mu_vector", "incidence.table_to_dot",
    ),
    "verify-sweep": (
        "cli.main", "limit_classifier.classify", "matrix_oracle.oracle_check", "core.HNType.mu_vector",
        *(f"verification.{name}" for name in layers.CRITERIA.values()),
    ),
    "cli-mix": ("cli.main", "fixed_points.enumerate_fixed_components"),
}


class WorkerFailed(RuntimeError):
    pass


def run_worker(queries: list, *, trace: bool = False, keep: bool = False) -> dict:
    env = dict(os.environ)
    # Import from cached bytecode, as an installed CLI does; the warm-up
    # worker writes the cache into the checkout's src/.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    job = json.dumps({"queries": queries, "trace": trace, "keep": keep})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=job, capture_output=True, text=True, cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        raise WorkerFailed(f"worker exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout)


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile: 11 of cli-mix's 1100 query latencies
    lie beyond it; below 100 values it is the maximum."""
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def count_failures(workload, seed: int, queries: list, passes: list) -> tuple[int, list[str]]:
    """Failed queries over all passes, and why; a repeated (query, output)
    pair is judged once."""
    verdicts: dict = {}
    problems = []
    failed = 0
    for report in passes:
        for index, (argv, (code, _, digest, out, err, *_)) in enumerate(zip(queries, report["results"])):
            if (index, digest) not in verdicts:
                verdicts[index, digest] = workload.check(seed, index, argv, code, digest, out, err)
                if verdicts[index, digest] is not None:
                    problems.append(f"{' '.join(argv)}: {verdicts[index, digest]}")
            failed += verdicts[index, digest] is not None
    return failed, problems


def measure(queries: list, seconds: float, *, trace: bool, keep: bool) -> tuple[list, list, list]:
    """Passes until `seconds` have elapsed, each preceded by a setup probe
    (a fresh interpreter that only imports the CLI).  A traced run starts
    with one untraced pass.  Returns the reports of (probes, untraced
    passes, traced passes)."""
    run_worker([])  # fills the bytecode caches; not a sample
    deadline = time.perf_counter() + seconds
    passes = [run_worker(queries, keep=keep)] if trace else []
    traced: list[dict] = []
    timed = traced if trace else passes
    probes = []
    while True:
        probes.append(run_worker([]))
        started = time.perf_counter()
        timed.append(run_worker(queries, trace=trace, keep=keep))
        now = time.perf_counter()
        if now + (now - started) / 2 > deadline:  # the next pass would mostly overrun
            return probes, passes, traced


def latencies(report: dict) -> list[float]:
    """The pass's query latencies in seconds at the reference speed."""
    samples = report["ref_samples"]
    scaled = []
    for _, seconds, _, _, _, first, last in report["results"]:
        if last - first < SPEED_WINDOW:
            first = max(0, min((first + last - SPEED_WINDOW) // 2, len(samples) - SPEED_WINDOW))
            last = first + SPEED_WINDOW
        scaled.append(seconds * REF_LOOP_S / statistics.median(samples[first:last]))
    return scaled


def end_to_end(workload, queries: list, passes: list, workers: list) -> dict:
    """The median pass; each query's latency is its median over the passes."""
    latencies_ms = [[t * 1e3 for t in latencies(p)] for p in passes]
    pass_s = statistics.median(sum(pass_ms) / 1e3 for pass_ms in latencies_ms)
    query_ms = [statistics.median(column) for column in zip(*latencies_ms)]
    return {
        "setup_s": statistics.median(w["setup_s"] * REF_LOOP_S / w["setup_ref_s"] for w in workers),
        "pass_s": pass_s,
        "entries_per_s": workload.entries(queries) / pass_s,
        "queries_per_s": len(queries) / pass_s,
        "query_p50_ms": statistics.median(query_ms),
        "query_p99_ms": p99(query_ms),
        "peak_rss_mb": max(p["maxrss_kb"] for p in passes) / 1024,
    }


def per_layer(name: str, untraced: dict, traced: list) -> tuple[dict, list]:
    """Mean per-pass layer metrics, the tracing overhead, and self-check problems."""
    metrics = {
        key: statistics.fmean(p["layers"][key] for p in traced) for key in traced[0]["layers"]
    }
    metrics["trace.overhead_s"] = statistics.median(sum(latencies(p)) for p in traced) - sum(latencies(untraced))
    problems = [f"layer {layer} was never called" for layer in MUST_CALL[name] if not metrics[f"{layer}.calls"]]
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.MIX_DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](workloads.load_expected())
    queries = workload.queries(args.seed)
    try:
        probes, passes, traced = measure(queries, args.seconds, trace=bool(args.trace), keep=workload.keep_output)
    except WorkerFailed as exc:
        print(f"benchmark: cannot run the program: {exc}", file=sys.stderr)
        return 1
    failed, problems = count_failures(workload, args.seed, queries, passes + traced)
    attempted = len(queries) * len(passes + traced)

    if args.trace:
        values, self_check = per_layer(args.workload, passes[0], traced)
        wanted = spec["per_layer"]
        if self_check:
            print("benchmark: tracing self-check failed:\n  " + "\n  ".join(self_check), file=sys.stderr)
            return 1
    else:
        values = end_to_end(workload, queries, passes, probes + passes)
        wanted = spec["end_to_end"]
    raw_pass_s = statistics.median(sum(r[1] for r in p["results"]) for p in passes)
    speed = statistics.median(REF_LOOP_S / statistics.median(p["ref_samples"]) for p in passes)
    print(
        f"{args.workload} seed={args.seed}: {len(passes)} untraced and {len(traced)} traced passes"
        f" of {len(queries)} queries ({len(queries) * len(passes)} untraced latency samples),"
        f" {attempted} checked, {failed} failed; {len(probes + passes)} setup samples;"
        f" untraced pass {raw_pass_s:.4f} s as measured, CPU at {speed:.3f} of reference speed",
        file=sys.stderr,
    )
    for problem in problems[:10]:
        print(f"  FAILED {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
