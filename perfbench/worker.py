"""Run one pass of CLI queries in a fresh interpreter.

Reads a job ``{"queries": [argv, ...], "trace": bool, "keep": bool}`` as
JSON on stdin and writes one JSON report on stdout.  Each query calls
``higgsstrata.cli.main(argv)`` with stdout and stderr captured.  Every
pass runs in its own process, as every CLI invocation does, so nothing
the program keeps in memory carries over from one pass to the next.

The CPU this runs on changes speed by up to a quarter within seconds
(shared hosts), so the worker also samples the speed: a fixed reference
loop runs before the import and, during the pass, from a 5 ms interval
timer.  The loop's own time is taken out of every latency.  The report
carries the loop times and, per query, the range of samples taken
while it ran, so each timing can be put on one speed scale.
"""

import signal
import time

REF_ITERATIONS = 1000
PROBE_INTERVAL_S = 0.005


def ref_loop() -> float:
    """Seconds taken by a fixed loop of integer bytecodes."""
    x = 0
    t0 = time.perf_counter()
    for _ in range(REF_ITERATIONS):
        x = (x * 7 + 3) & 0xFF
    return time.perf_counter() - t0


_setup_ref = [ref_loop() for _ in range(9)]
_t0 = time.perf_counter()
import higgsstrata.cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


class SpeedProbe:
    """Runs `ref_loop` on every tick of a wall-clock interval timer."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds inside the handler, probe overhead included

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(ref_loop())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_query(argv: list[str], probe: SpeedProbe) -> tuple[object, float, str, str]:
    """(exit code, seconds net of probe ticks, stdout, stderr) of one query."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        spent = probe.spent
        t0 = time.perf_counter()
        try:
            code = higgsstrata.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed query, not a crash
            code = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0 - (probe.spent - spent)
    return code, seconds, out.getvalue(), err.getvalue()


def peak_rss_kb() -> int:
    """This process's peak resident set since exec (getrusage's ru_maxrss
    would also count the parent's memory at fork time)."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def output_digest(code, out: str, err: str) -> str:
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode("utf-8")).hexdigest()


def main() -> None:
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        import layers

        tracer = layers.Tracer.install()
    results = []
    keep = job["keep"]
    with SpeedProbe() as probe:
        for argv in job["queries"]:
            first = len(probe.samples)
            code, seconds, out, err = run_query(argv, probe)
            digest = output_digest(code, out, err)
            results.append([code, seconds, digest, out if keep else "", err if keep else "", first, len(probe.samples)])
    report = {
        "setup_s": SETUP_S,
        "setup_ref_s": statistics.median(_setup_ref),
        "ref_samples": probe.samples,
        "results": results,
        "maxrss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
