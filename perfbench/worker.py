"""One fresh interpreter running one workload; started by run.py.

Untraced mode: set up, print "ready", then wait for a line on stdin.
"stop" ends the process (run.py times several set-ups that way); "go" runs
whole passes over the inputs for the given seconds, checks every output
after the timed region and prints one JSON line.

Traced mode: set up, run the same in-process pass untraced, traced and
untraced again, and print the per-layer metrics as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from spans import Tracer


class Outcome:
    """Failed operations: raised (not run) or produced a wrong output."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.raised = 0
        self.wrong = 0

    def call(self, run, item):
        try:
            return run(item)
        except Exception as exc:  # one failed operation must not end the run
            if not self.raised:
                traceback.print_exc(file=sys.stderr)
            self.raised += 1
            return exc

    def judge(self, item, output, copies: int) -> None:
        """Check one output that `copies` operations produced."""
        if isinstance(output, Exception):
            return
        found = self.workload.problems(item, output)
        if found:
            self.wrong += copies
            print(f"{self.workload.name} {item}: {found[:3]}", file=sys.stderr)


def timed_run(workload, seconds: float) -> dict:
    """Whole passes over the inputs for `seconds`, then the checks.

    The host's speed drifts by tens of percent over seconds, so each input's
    latency is taken as its median over the passes; throughput and the
    percentiles are computed from those per-input medians.
    """
    outcome = Outcome(workload)
    items = workload.items
    first, differs = [], [0] * len(items)
    times = [[] for _ in items]
    passes = 0
    clock = time.perf_counter
    start = clock()
    while True:
        pass_start = clock()
        for idx, item in enumerate(items):
            t0 = clock()
            out = outcome.call(workload.run, item)
            times[idx].append(clock() - t0)
            if passes == 0:
                first.append(out)
            elif not isinstance(out, Exception) and out != first[idx]:
                differs[idx] += 1
        passes += 1
        if clock() - start + (clock() - pass_start) > seconds:
            break
    peak_kb = resource.getrusage(workload.rusage_who).ru_maxrss
    for idx, item in enumerate(items):
        outcome.judge(item, first[idx], passes - differs[idx])
        if differs[idx]:
            outcome.wrong += differs[idx]
            print(f"{workload.name} {item}: output changed between passes", file=sys.stderr)
    reference = workload.reference_problems()
    for problem in reference:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    per_op_ms = [statistics.median(t) * 1000.0 for t in times]
    return {
        "correct": not outcome.wrong and not reference,
        "attempted": passes * len(items),
        "failed": outcome.raised + outcome.wrong,
        "metrics": {
            "ops_per_s": len(items) * 1000.0 / sum(per_op_ms),
            "op_p50_ms": statistics.median(per_op_ms),
            "op_p90_ms": statistics.quantiles(per_op_ms, n=10)[-1],
            "peak_rss_mb": peak_kb / 1024.0,
        },
    }


# ---------------------------------------------------------------------------
# traced mode
# ---------------------------------------------------------------------------

IMPORT_REPEATS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import crossint.cli; "
    "print((time.perf_counter() - t) * 1000.0)"
)


def _python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=workloads.ROOT,
        env=workloads.worker_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )


def cli_import_ms() -> float:
    return statistics.median(
        float(_python(["-c", IMPORT_PROBE]).stdout) for _ in range(IMPORT_REPEATS)
    )


def numpy_import_ms() -> float:
    """Cumulative numpy import time under `import crossint.cli`; 0 if not imported."""
    values = []
    for _ in range(IMPORT_REPEATS):
        err = _python(["-X", "importtime", "-c", "import crossint.cli"]).stderr
        cumulative = 0.0
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                cumulative = float(parts[1]) / 1000.0
        values.append(cumulative)
    return statistics.median(values)


def binom_ns() -> float:
    """Median ns per exactarith.binom call over a fixed argument set."""
    from crossint.exactarith import binom

    args = [(a, j) for a in range(8, 33) for j in range(-1, 14)] * 40
    runs = []
    for _ in range(7):
        t0 = time.perf_counter_ns()
        for a, j in args:
            binom(a, j)
        runs.append((time.perf_counter_ns() - t0) / len(args))
    return statistics.median(runs)


def traced_run(workload) -> dict:
    """Untraced, traced, untraced: the same in-process pass three times."""
    import crossint.cli  # noqa: F401  imported up front, not inside the first pass

    outcome = Outcome(workload)
    items = workload.items

    def untraced_ms() -> float:
        t0 = time.perf_counter()
        for item in items:
            outcome.call(workload.run_traced, item)
        return (time.perf_counter() - t0) * 1000.0

    before = untraced_ms()
    tracer = Tracer()
    tracer.install()
    outputs = []
    try:
        t0 = time.perf_counter()
        for idx, item in enumerate(items):
            outputs.append(outcome.call(lambda it: tracer.op(idx, workload.run_traced, it), item))
        traced_ms = (time.perf_counter() - t0) * 1000.0
    finally:
        tracer.restore()
    after = untraced_ms()
    for item, out in zip(items, outputs):
        outcome.judge(item, out, 1)
    workloads.RESULTS.mkdir(exist_ok=True)
    tracer.write(workloads.RESULTS / f"trace-{workload.name}-seed{workload.seed}.jsonl")

    self_ms = tracer.self_ms()
    calls = tracer.calls

    def module_self(module: str) -> float:
        return sum((v for k, v in self_ms.items() if k.startswith(module + ".")), 0.0)

    metrics = {
        "cli.import_ms": cli_import_ms(),
        "cli.numpy_import_ms": numpy_import_ms(),
        "cli.main_ms": tracer.total_ms("cli.main"),
        "oracle.max_product_cascade.self_ms": self_ms["oracle.max_product_cascade"],
        "oracle.max_product_cascade.calls": calls["oracle.max_product_cascade"],
        "oracle.max_product_enumeration.self_ms": self_ms["oracle.max_product_enumeration"],
        "oracle.conjecture_scan.self_ms": self_ms["oracle.conjecture_scan"],
        "oracle.measure_oracle.self_ms": self_ms["oracle.measure_oracle"],
        "cascade.advance.calls": calls["cascade._advance"],
        "cascade.digits.calls": calls["cascade._digits"],
        "cascade.kk_cross_bound.calls": calls["cascade.kk_cross_bound"],
        "exactarith.binom.calls": calls["exactarith.binom"],
        "exactarith.binom_ns": binom_ns(),
        "families.self_ms": module_self("families"),
        "regions.self_ms": module_self("regions"),
        "regions.e_j.calls": calls["regions.e_j"],
        "trace.overhead_ms": traced_ms - (before + after) / 2.0,
    }
    return {
        "correct": not outcome.wrong,
        "attempted": 3 * len(items),
        "failed": outcome.raised + outcome.wrong,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        if args.trace:
            result = traced_run(workload)
        else:
            print("ready", flush=True)
            if sys.stdin.readline().strip() != "go":
                return 0
            result = timed_run(workload, args.seconds)
    finally:
        workload.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
