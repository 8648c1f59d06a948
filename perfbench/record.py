"""Record ``expected.json``: the output digests the benchmark checks against.

    python3 perfbench/record.py

Run from the root of a source checkout, and only when the program's
output is meant to change.  Every output is first checked against the
model; nothing is recorded if a check fails.
"""

from __future__ import annotations

import json
import sys

import model
import run
import workloads


def main() -> int:
    problems = []
    incidence = workloads.incidence_queries()
    report = run.run_worker(incidence)
    problems += [f"{q}: exit {r[0]}" for q, r in zip(incidence, report["results"]) if r[0] != 0]

    verify = run.run_worker([["verify", "--format", "json"]], keep=True)["results"][0]
    code, _, verify_digest, out, *_ = verify
    criteria = json.loads(out)["results"] if code == 0 else []
    problems += [f"criterion {c['number']} fails" for c in criteria if not c["passed"]]
    classified = sum(model.entries(3, d, g) - 1 for g in range(2, 6) for d in range(-6, 7))
    if not criteria or not criteria[1]["details"].startswith(f"{classified} classifications"):
        problems.append("verify does not pass or does not count the model's classifications")

    mix = workloads.mix_queries(workloads.MIX_DIGEST_SEED)
    mix_results = run.run_worker(mix, keep=True)["results"]
    for argv, (code, _, _, out, err, *_) in zip(mix, mix_results):
        reason = workloads.check_mix_query(argv, code, out, err)
        if reason:
            problems.append(f"{' '.join(argv)}: {reason}")

    if problems:
        print("not recorded:\n  " + "\n  ".join(problems[:20]), file=sys.stderr)
        return 1
    expected = {
        "incidence-wide": {" ".join(q): r[2] for q, r in zip(incidence, report["results"])},
        "verify-sweep": {
            "digest": verify_digest,
            "results": [[c["number"], c["name"], c["details"]] for c in criteria],
        },
        "cli-mix": {"seed": workloads.MIX_DIGEST_SEED, "digests": [r[2][:16] for r in mix_results]},
    }
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
