"""Generated boundary mutants of the decision code, against `verify`.

Each `<`, `<=`, `>` and `>=` in the decision code (limit_classifier.py,
admissibility.py, fixed_points.py), in core.py and matrix_oracle.py, which
it builds on, and in verification.py, which checks it, is flipped (`<` <->
`<=`, `>` <-> `>=`), one at a time.
The operator is found from the `ast` positions of its two operands, so the
rest of the file stays byte for byte as it is.  Each mutant is written
into a temporary copy of `src/`, never into the checkout, and
`verification.run_all()` runs on it in a fresh process.  One line per
mutant names the criteria it fails, or the reason it is allowed to pass.

A mutant that passes all nine criteria is a survivor.  Each allowed
survivor is listed in SURVIVORS by file, enclosing function and the
comparison's text, with why `verify` cannot catch it:

* checker: it weakens a check, so correct code still passes;
* equivalent: it changes no output;
* unreached: `verify` never runs the code.

Exits 1 when a survivor is not listed or a listed survivor is now caught
(or gone), else 0.  Run from anywhere: python3 tools/mutant_scan.py
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "higgsstrata")
FILES = (
    "limit_classifier.py", "admissibility.py", "fixed_points.py",
    "core.py", "matrix_oracle.py", "verification.py",
)
FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
BOUNDARY = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
OPERATOR = re.compile(rb"[<>]=?")

SURVIVORS = {
    ("limit_classifier.py", "AuditCheck.holds", "self.degree * self.r < self.d * self.rank"):
        "checker: a strict audit inequality that allows equality",
    ("fixed_points.py", "validate_fixed_111", "l1 + l2 - 2 * l3 > 0"):
        "checker: a strict stability inequality that allows equality",
    ("fixed_points.py", "validate_fixed_111", "2 * l1 - l2 - l3 > 0"):
        "checker: a strict stability inequality that allows equality",
    ("fixed_points.py", "validate_component_label", "degree < 2 * label.degrees[0]"):
        "checker: the lower rank-2 bound d < 2*d1 allows equality",
    ("admissibility.py", "invariant_range", "gap_high6 > gap_low6"):
        "unreached: verify never calls invariant_range",
    ("core.py", "HNType.__init__", "d * pr < pd * r"):
        "equivalent: steps of equal slope are merged before this comparison",
    ("core.py", "_hn_lines", "high < middle"):
        "equivalent: equal degrees reach the checked constructor, which merges them alike",
    ("core.py", "_hn_lines", "middle < low"):
        "equivalent: equal degrees reach the checked constructor, which merges them alike",
    ("matrix_oracle.py", "oracle_check", "stated < computed"):
        "equivalent: the other conjuncts already exclude equality",
    ("verification.py", "_result", "len(failures) > 5"):
        "equivalent: it only words the details of a failing result",
    ("verification.py", "_check_rank3", "excess < 0"):
        "equivalent: the equality count fails an equality in a strict check",
}

# Run in the mutant's copy: the failed criteria, or the error that ended the run.
PROBE = """
import json
from higgsstrata import verification
try:
    results = verification.run_all()
except Exception as exc:
    print(json.dumps(f"raised {type(exc).__name__}"))
else:
    failed = [r.number for r in results if not r.passed]
    print(json.dumps(failed if len(results) == 9 else f"{len(results)} results"))
"""


def _offsets(source: bytes) -> list[int]:
    # The byte offset at which each line starts, 1-based like ast's lines.
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _functions(tree: ast.Module) -> dict[int, str]:
    # Each Compare node's id, with the qualified name of the function around it.
    names: dict[int, str] = {}

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            if isinstance(child, ast.Compare):
                names[id(child)] = ".".join(scope) or "<module>"
            visit(child, inner)

    visit(tree, ())
    return names


def mutants(name: str, source: bytes):
    """Each boundary flip in one file: (key, start, end, new operator)."""
    tree = ast.parse(source)
    starts = _offsets(source)
    functions = _functions(tree)
    flips = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for left, op, right in zip(operands, node.ops, operands[1:]):
            if not isinstance(op, BOUNDARY):
                continue
            # Between the operands stand only the operator, blanks and brackets.
            begin = starts[left.end_lineno] + left.end_col_offset
            found = OPERATOR.search(source, begin, starts[right.lineno] + right.col_offset)
            first = starts[left.lineno] + left.col_offset
            last = starts[right.end_lineno] + right.end_col_offset
            text = " ".join(source[first:last].decode().split())
            flips.append((found.start(), found.end(), functions[id(node)], text))
    seen: dict[tuple[str, str, str], int] = {}
    for start, end, function, text in sorted(flips):
        key = (name, function, text)
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:  # the same text again in one function
            key = (name, function, f"{text} #{seen[key]}")
        yield key, start, end, FLIPS[source[start:end].decode()]


def run_mutant(source_dir: Path, name: str, mutated: bytes) -> str | list[int]:
    """The criteria that run_all fails with one file replaced."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(source_dir, src, ignore=shutil.ignore_patterns("__pycache__"))
        Path(src, "higgsstrata", name).write_bytes(mutated)
        try:
            done = subprocess.run(
                [sys.executable, "-B", "-c", PROBE], capture_output=True, text=True,
                cwd=tmp, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
            )
        except subprocess.TimeoutExpired:
            return "timed out"
    if done.returncode != 0:
        return f"exit {done.returncode}: {done.stderr.strip().splitlines()[-1:]}"
    return json.loads(done.stdout)


def main() -> int:
    caught = survived = 0
    unexpected, listed = [], set(SURVIVORS)
    for name in FILES:
        source = (ROOT / PACKAGE / name).read_bytes()
        for key, start, end, new in mutants(name, source):
            mutated = source[:start] + new.encode() + source[end:]
            failed = run_mutant(ROOT / "src", name, mutated)
            label = f"{key[0]}:{key[1]}: {key[2]} ({source[start:end].decode()} -> {new})"
            if failed:
                caught += 1
                fails = ", ".join(map(str, failed)) if isinstance(failed, list) else failed
                print(f"{label}: fails {fails}")
                if key in listed:
                    unexpected.append(f"listed survivor is caught: {label}")
            else:
                survived += 1
                reason = SURVIVORS.get(key)
                print(f"{label}: survives ({reason or 'NOT LISTED'})")
                if reason is None:
                    unexpected.append(f"survivor not listed: {label}")
            listed.discard(key)
    unexpected += [f"listed survivor not found: {':'.join(key)}" for key in sorted(listed)]
    print(f"{caught} of {caught + survived} mutants fail a criterion; {survived} survive")
    for line in unexpected:
        print(line)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
